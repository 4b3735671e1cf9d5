"""Every record the command line reads ends in a clean exit.

Hypothesis writes small JSON records for the commands that read files:
simplicial sets, covers, squares, preorders and manifests.  Some are valid,
some are well formed but mathematically wrong, and some have one part
replaced by arbitrary JSON or removed.  Each command must return 0, 1 or
2 without raising, and every exit 2 must print an ``error:`` line.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from conftest import circle, four_test_spaces
from ssetkit import cli
from ssetkit.excision import identity_square, interval_collapse_square, pushout_square
from ssetkit.serialize import map_to_record, sset_to_record
from ssetkit.sset import SSetMap, boundary, constant_map, horn, standard_simplex

# Records stay small: at most 4 cells per level and dimension 2.
MAX_CELLS = 4
TOP = 2

junk = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.text("ab0|", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abuvw", max_size=2), inner, max_size=3),
    max_leaves=6,
)


def _replace_part(draw, node):
    """``node`` with one part replaced by junk or, in an object, removed;
    the deeper the part, the likelier."""
    if not (isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)) < 3):
        return draw(junk)
    if isinstance(node, list):
        i = draw(st.integers(0, len(node) - 1))
        return node[:i] + [_replace_part(draw, node[i])] + node[i + 1:]
    key = draw(st.sampled_from(sorted(node)))
    out = dict(node)
    if draw(st.booleans()):
        del out[key]
    else:
        out[key] = _replace_part(draw, node[key])
    return out


@st.composite
def damaged(draw, records):
    record = draw(records)
    if draw(st.integers(0, 3)) == 3:
        return _replace_part(draw, record)
    return record


def _simplex_pair(draw, cells, dim):
    """A ``[word, base]`` pair in dimension ``dim``: a cell of a nonempty
    level at most ``dim``, degenerated up by a decreasing word."""
    m = draw(st.sampled_from([m for m in range(dim + 1) if cells[m]]))
    word = draw(st.sets(st.integers(0, max(dim - 1, 0)), min_size=dim - m,
                        max_size=dim - m))
    return [sorted(word, reverse=True), draw(st.sampled_from(cells[m]))]


@st.composite
def random_sset_records(draw):
    """Cells and faces of the right shape; the identities may fail."""
    counts = [draw(st.integers(1, MAX_CELLS))]
    for _ in range(draw(st.integers(0, TOP))):
        counts.append(draw(st.integers(0, MAX_CELLS)))
    cells = [[f"c{k}_{i}" for i in range(n)] for k, n in enumerate(counts)]
    faces = {
        name: [_simplex_pair(draw, cells, k - 1) for _ in range(k + 1)]
        for k in range(1, len(cells))
        for name in cells[k]
    }
    record = {"cells": cells, "faces": faces}
    if draw(st.booleans()):
        record["basepoint"] = draw(st.sampled_from(cells[0]))
    return record


SPACES = [
    standard_simplex(0), standard_simplex(1), standard_simplex(2), boundary(2),
    horn(2, 1), *four_test_spaces().values(),
]
plain_sset_records = (
    st.sampled_from([sset_to_record(X) for X in SPACES]) | random_sset_records()
)
sset_records = damaged(plain_sset_records)
TOKENS = {"circle": circle(), "boundary2": boundary(2), "simplex2": standard_simplex(2)}
SPACED = {
    "circle": ["circle"], "boundary2": ["boundary", "2"], "simplex2": ["simplex", "2"],
}


@st.composite
def plain_cover_records(draw):
    token = draw(st.sampled_from([None, *TOKENS]))
    if token is None:
        space = draw(plain_sset_records)
        names = [name for level in space["cells"] for name in level]
    else:
        space = draw(st.sampled_from([token, SPACED[token]]))
        names = sorted(TOKENS[token].names)
    piece = st.lists(st.sampled_from(names), max_size=4)
    u = draw(piece)
    v = draw(piece)
    if draw(st.integers(0, 3)) < 3:  # most covers cover: v gets what u misses
        v += [n for n in names if n not in u]
    return {"space": space, "u": u, "v": v}


cover_records = damaged(plain_cover_records())


def _square_record(sq) -> dict:
    record = {key: sset_to_record(getattr(sq, key)) for key in "wuvx"}
    for leg in ("w_to_u", "w_to_v", "u_to_x", "v_to_x"):
        record[leg] = map_to_record(getattr(sq, leg))
    return record


def _squares():
    b1, d1, pt = boundary(1), standard_simplex(1), standard_simplex(0)
    incl = SSetMap.inclusion(b1, d1)
    S1 = circle()
    to_vertex = constant_map(pt, S1, S1.nondeg(0)[0])
    return [
        interval_collapse_square(),
        pushout_square(incl, incl),
        pushout_square(to_vertex, to_vertex),
        identity_square(boundary(2)),
    ]


# The identity square of ∂Δ² once more, its corners named by token and words.
_TOKEN_CORNERS = {
    "w": "boundary2", "u": ["boundary", "2"], "v": "boundary2", "x": "boundary2",
}
square_records = damaged(st.sampled_from(
    [_square_record(sq) for sq in _squares()]
    + [{**_square_record(identity_square(boundary(2))), **_TOKEN_CORNERS}]
))
plain_preorder_records = st.lists(
    st.sampled_from("abcd"), min_size=1, max_size=4, unique=True
).flatmap(
    lambda elements: st.fixed_dictionaries({
        "elements": st.just(elements),
        "pairs": st.lists(st.lists(st.sampled_from(elements), min_size=2,
                                   max_size=2), max_size=4),
    })
)
preorder_records = damaged(plain_preorder_records)
manifest_records = damaged(st.fixed_dictionaries({
    "spaces": st.dictionaries(st.sampled_from(["A", "B"]), st.one_of(
        st.sampled_from(["circle", "s2", "simplex2", "boundary2", "point"]),
        st.sampled_from([
            ["suspension", "circle"], ["quotient", "simplex2", "boundary2"],
            ["product", "circle", "simplex1"], ["horn", "2", "1"],
        ]),
        sset_records,
    ), max_size=2),
    "covers": st.dictionaries(st.just("c"), cover_records, max_size=1),
    "squares": st.dictionaries(
        st.just("q"),
        st.sampled_from(["interval-collapse", "identity:A"]) | square_records,
        max_size=1,
    ),
    "tasks": st.lists(st.sampled_from([
        ["homology", "A", "--json"], ["qcat", "B", "-d", "2"], ["mv", "c", "--reduced"],
        ["excision", "q", "--assert"], ["tower", "reduced_chains", "A", "-N", "1"],
        ["space", "B"], ["counterexample"], ["run", "x"], ["homology", "nowhere"],
    ]), max_size=3),
}))

COMMANDS = {
    "homology": (sset_records, st.sampled_from([[], ["--json"], ["--top", "3"]])),
    "tower": (sset_records, st.sampled_from([["-N", "1"], ["-N", "2", "--json"]])),
    "qcat": (sset_records, st.sampled_from(
        [["-d", "2"], ["-d", "3", "--assert"], ["-d", "3", "--max-enum", "20"]]
    )),
    "mv": (cover_records, st.sampled_from([[], ["--reduced"], ["--json", "--assert"]])),
    "mv-reduced": (cover_records, st.just(["--reduced", "--json"])),
    "excision": (square_records, st.sampled_from([["--json"], ["--assert"]])),
    "space-nerve": (preorder_records, st.sampled_from([[], ["-d", "2", "--json"]])),
    "run": (manifest_records, st.just([])),
}
PREFIX = {
    "tower": ["tower", "reduced_chains"],
    "mv-reduced": ["mv"],
    "space-nerve": ["space", "nerve"],
}


def run_cli(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert any(line.startswith("error:") for line in lines)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_exits_cleanly_on_any_record(command, tmp_path_factory):
    path = tmp_path_factory.mktemp(command) / "record.json"
    records, options = COMMANDS[command]

    @settings(max_examples=150)
    @given(records, options)
    def check(record, extra):
        path.write_text(json.dumps(record))
        run_cli(PREFIX.get(command, [command]) + [str(path)] + extra)

    check()


@st.composite
def builtin_spaces(draw):
    """A built-in space as its compact token and its spaced words."""
    head = draw(st.sampled_from(
        ["point", "circle", "simplex", "boundary", "horn", "s"]
    ))
    if head in ("point", "circle"):
        return head, [head]
    n = draw(st.integers(0 if head in ("simplex", "s") else 1, 3))
    if head == "horn":
        k = draw(st.integers(0, n))
        return f"horn{n}_{k}", ["horn", str(n), str(k)]
    return f"{head}{n}", [head, str(n)]


def _space_json(words) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["space", *words, "--json"]) == 0
    return out.getvalue()


@settings(max_examples=40)
@given(builtin_spaces())
def test_compact_and_spaced_tokens_build_equal_spaces(space):
    compact, spaced = space
    assert _space_json([compact]) == _space_json(spaced)


def _run_captured(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# The N of a manifest's ``["nerve", FILE, "-d", N]``: integers of either
# sign, words that are no integer, or no N at all.
truncations = st.one_of(
    st.integers(-3, 5).map(lambda n: [str(n)]),
    st.sampled_from([["x"], ["1.5"], ["+1"], [" 2"], [""], [], ["1", "2"]]),
)


def test_manifest_nerves_truncate_or_exit_two(tmp_path_factory):
    # A manifest nerve truncated at N >= 0 is the nerve that ``space nerve
    # FILE -d N`` prints; any other N exits 2 with one error line and
    # prints nothing.
    work = tmp_path_factory.mktemp("nerve-d")
    poset, manifest = work / "poset.json", work / "manifest.json"

    @settings(max_examples=60)
    @given(plain_preorder_records, truncations)
    def check(record, n):
        poset.write_text(json.dumps(record))
        manifest.write_text(json.dumps({
            "spaces": {"A": ["nerve", str(poset), "-d", *n]},
            "tasks": [["space", "A", "--json"]],
        }))
        code, out, err = _run_captured(["run", str(manifest)])
        if len(n) == 1 and n[0].lstrip("-").isdigit() and int(n[0]) >= 0:
            assert (code, err) == (0, "")
            direct = _run_captured(["space", "nerve", str(poset), "-d", n[0], "--json"])
            assert out == "== task 0: space A --json\n" + direct[1]
            assert len(json.loads(direct[1])["cells"]) <= int(n[0]) + 1
        else:
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1 and err.startswith("error: ")

    check()


@pytest.mark.parametrize("d, counts", [(0, [4]), (1, [4, 6]), (2, [4, 6, 4])])
def test_manifest_nerve_of_a_chain_counts_its_subchains(tmp_path, d, counts):
    # The nerve of 0 < 1 < 2 < 3 has C(4, k + 1) nondegenerate k-simplices,
    # one per chain of k + 1 elements; -d d keeps the levels k <= d.
    poset = tmp_path / "chain.json"
    poset.write_text(json.dumps({
        "elements": list("0123"), "pairs": [["0", "1"], ["1", "2"], ["2", "3"]],
    }))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "spaces": {"A": ["nerve", str(poset), "-d", str(d)], "B": ["nerve", str(poset)]},
        "tasks": [["space", "A", "--json"], ["space", "B", "--json"]],
    }))
    code, out, _ = _run_captured(["run", str(manifest)])
    assert code == 0
    _, a, b = out.split("== task ")
    truncated = json.loads(a.partition("\n")[2])["cells"]
    full = json.loads(b.partition("\n")[2])["cells"]
    assert [len(level) for level in truncated] == counts
    assert [len(level) for level in full] == [4, 6, 4, 1]
