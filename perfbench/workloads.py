"""The four workloads: their tasks, seeded inputs and output checks.

Each workload is a list of ``Task`` values.  A task is one ``ssetkit``
command line, the exit code it must return, and a check that reads its
standard output and lists what is wrong with it.  ``make_workload`` writes
every input file into a work directory before any pass starts; the program
sees only those files.

Seeds change which cells an input has, not how many: each generator draws
from its seeded stream until the input falls in a fixed size class, so the
run-to-run cost of a workload does not depend on the seed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "data", "expected")

WORKLOADS = ("homology", "tower", "mv", "qcat")

# Size classes of the seeded inputs (see the module docstring).
SUBCOMPLEX_TOPS = 10  # of the 20 top cells of Δ³×Δ³
COVER_OVERLAP_CELLS = 111  # cells of U ∩ V in the cover of Δ³×Δ²
POSET_SIZE = 8
POSET_CHAINS = (8, 22, 29, 20, 7, 1)  # nondegenerate simplices of its nerve
POSET_EDGE_PROBABILITY = 0.45
QCAT_NERVE_DIM = 3


@dataclass(frozen=True)
class Task:
    name: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    tasks: tuple[Task, ...]
    inputs: dict  # input file name -> size facts (space counts and the like)


# -- reading and checking outputs -----------------------------------------


def canonical(obj) -> str:
    """ssetkit's canonical JSON form, written out independently."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def parse_record(text: str) -> tuple[object, list[str]]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    if canonical(obj) != text:
        return obj, ["output is not in canonical JSON form"]
    return obj, []


def parse_manifest_output(text: str, headers: list[str]) -> tuple[list, list[str]]:
    """Split the output of ``run`` into one record per manifest task."""
    records, problems = [], []
    chunks = text.split("== task ")
    if chunks[0] != "":
        return [], ["manifest output does not start with a task header"]
    if len(chunks) - 1 != len(headers):
        return [], [f"expected {len(headers)} task headers, got {len(chunks) - 1}"]
    for i, (chunk, header) in enumerate(zip(chunks[1:], headers)):
        first, _, body = chunk.partition("\n")
        if first != f"{i}: {header}":
            problems.append(f"task header {first!r} should be {i}: {header!r}")
        rec, more = parse_record(body)
        records.append(rec)
        problems += more
    return records, problems


def golden_check(name: str) -> Callable[[str], list[str]]:
    """The output recorded at the baseline commit, byte for byte."""
    with open(os.path.join(GOLDEN_DIR, name + ".json"), encoding="utf-8") as fh:
        want = fh.read()

    def check(text: str) -> list[str]:
        return [] if text == want else [f"output differs from {name}.json"]

    return check


def all_checks(*checks) -> Callable[[str], list[str]]:
    def check(text: str) -> list[str]:
        return [p for c in checks for p in c(text)]

    return check


def record_check(inner) -> Callable[[str], list[str]]:
    """Parse one canonical record, then apply ``inner(record)``."""
    def check(text: str) -> list[str]:
        rec, problems = parse_record(text)
        if rec is None or problems:
            return problems
        return inner(rec)

    return check


def manifest_check(headers: list[str], inner) -> Callable[[str], list[str]]:
    """Parse the output of ``run``, then apply ``inner`` to every record."""
    def check(text: str) -> list[str]:
        recs, problems = parse_manifest_output(text, headers)
        if problems:
            return problems
        return [p for rec in recs for p in inner(rec)]

    return check


def _group_map(groups: dict) -> dict[int, tuple[int, list]]:
    return {int(n): (g["rank"], g["torsion"]) for n, g in groups.items()}


def homology_problems(cx, orc) -> Callable[[dict], list[str]]:
    """Checks of a ``homology --json`` record of the complex ``cx``."""
    counts = oracle.counts(cx)

    def inner(rec) -> list[str]:
        if not isinstance(rec, dict) or set(rec) != {"space_counts", "groups"}:
            return ["homology record has the wrong keys"]
        problems = []
        if rec["space_counts"] != counts:
            problems.append(f"space counts {rec['space_counts']} != {counts}")
        groups = _group_map(rec["groups"])
        if sorted(groups) != list(range(len(counts))):
            return problems + [f"homology degrees {sorted(groups)} are wrong"]
        for n, (rank, torsion) in groups.items():
            below = groups[n - 1][1] if n > 0 else []
            problems += oracle.group_problems(orc, n, rank, torsion, below)
        euler_cells = sum((-1) ** k * c for k, c in enumerate(counts))
        euler_ranks = sum((-1) ** n * r for n, (r, _) in groups.items())
        if euler_cells != euler_ranks:
            problems.append(
                f"Euler characteristic {euler_cells} of the counts != "
                f"{euler_ranks} of the Betti ranks"
            )
        return problems

    return inner


def mv_problems(top: int, orc_w, orc_uv, orc_x) -> Callable[[dict], list[str]]:
    """Checks of an ``mv --json`` record: every slot exact, every group
    right, and the alternating rank sum of the exact sequence zero."""
    oracles = {"W": orc_w, "U_plus_V": orc_uv, "X": orc_x}
    layout = [(top, "X_shifted")] + [
        (n, tag) for n in range(top, -1, -1) for tag in ("W", "U_plus_V", "X")
    ]

    def inner(rec) -> list[str]:
        if not isinstance(rec, dict) or set(rec) != {"reduced", "entries", "maps", "exact"}:
            return ["mv record has the wrong keys"]
        entries = rec["entries"]
        got = [(e["degree"], e["position"]) for e in entries]
        if got != layout:
            return [f"mv entries {got} are not laid out as {layout}"]
        problems = []
        if rec["reduced"] is not False:
            problems.append("mv record is reduced")
        if rec["exact"] != [True] * (len(entries) - 1):
            problems.append(f"mv slots not all exact: {rec['exact']}")
        if len(rec["maps"]) != len(entries) - 1:
            problems.append("mv record has the wrong number of maps")
        torsion = {(e["degree"], e["position"]): e["torsion"] for e in entries}
        for e in entries:
            n, tag = e["degree"], e["position"]
            if tag == "X_shifted":
                if e["rank"] or e["torsion"]:
                    problems.append(f"H_{n + 1}(X) should vanish above the top cell")
                continue
            below = torsion.get((n - 1, tag), [])
            problems += [
                f"{tag}: {p}"
                for p in oracle.group_problems(oracles[tag], n, e["rank"], e["torsion"], below)
            ]
        alternating = sum((-1) ** i * e["rank"] for i, e in enumerate(entries))
        if alternating != 0:
            problems.append(f"alternating rank sum of the sequence is {alternating}")
        return problems

    return inner


def tower_stage_problems(degree_of_z: Callable[[int], int | None]) -> Callable[[dict], list[str]]:
    """Every stage ``n`` must be Z in degree ``degree_of_z(n)`` (None: zero)
    and vanish elsewhere."""
    def inner(rec) -> list[str]:
        problems = []
        for n, table in enumerate(rec.get("stages", [])):
            for k, g in _group_map(table).items():
                want = (1, []) if k == degree_of_z(n) else (0, [])
                if g != want:
                    problems.append(f"stage {n}: H_{k} is {g}, expected {want}")
        return problems

    return inner


def qcat_problems(ok: bool, checked: int, witness=None) -> Callable[[dict], list[str]]:
    def inner(rec) -> list[str]:
        problems = []
        if rec.get("ok") is not ok or rec.get("checked_dim") != checked:
            problems.append(f"qcat verdict {rec.get('ok')} at d={rec.get('checked_dim')}")
        got = rec.get("witness")
        got = None if got is None else (got.get("n"), got.get("i"))
        if got != witness:
            problems.append(f"qcat witness {got}, expected {witness}")
        return problems

    return inner


# -- seeded inputs -----------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _write_json(workdir: str, name: str, obj) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
    return name


def random_subcomplex(seed: int):
    """A subcomplex of Δ³×Δ³: the closure of a random half of its top cells."""
    tops = oracle.product_top_cells(3, 3)
    return oracle.closure(_rng("homology", seed).sample(tops, SUBCOMPLEX_TOPS))


def random_cover(seed: int):
    """Two pieces of Δ³×Δ²: a random split of its top cells into halves,
    drawn again until the overlap has ``COVER_OVERLAP_CELLS`` cells."""
    tops = oracle.product_top_cells(3, 2)
    rng = _rng("mv", seed)
    while True:
        order = rng.sample(tops, len(tops))
        u, v = order[: len(tops) // 2], order[len(tops) // 2:]
        w = oracle.closure(u) & oracle.closure(v)
        if len(w) == COVER_OVERLAP_CELLS:
            return tops, u, v


def poset_chain_counts(n: int, less: set) -> list[int]:
    """Strictly increasing chains of each length in a poset on 0..n-1."""
    above = {i: [j for j in range(n) if (i, j) in less] for i in range(n)}
    ends = [1] * n
    out = []
    while any(ends):
        out.append(sum(ends))
        ends = [sum(ends[j] for j in above[i]) for i in range(n)]
    return out


def random_poset(seed: int) -> dict:
    """A preorder record whose relation is a random partial order, drawn
    again until its nerve has the counts ``POSET_CHAINS``."""
    rng = _rng("qcat", seed)
    n = POSET_SIZE
    while True:
        pairs = [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < POSET_EDGE_PROBABILITY
        ]
        less = set(pairs)
        for k in range(n):
            for i in range(n):
                if (i, k) in less:
                    less |= {(i, j) for j in range(n) if (k, j) in less}
        if tuple(poset_chain_counts(n, less)) == POSET_CHAINS:
            break
    names = [f"x{i}" for i in rng.sample(range(n), n)]
    return {
        "elements": sorted(names),
        "pairs": [[names[a], names[b]] for a, b in pairs],
    }


# -- the workloads -----------------------------------------------------------


def _homology(seed: int, workdir: str) -> tuple[list[Task], dict]:
    full = oracle.closure(oracle.product_top_cells(3, 3))
    manifest = {
        "spaces": {"P": ["product", "simplex3", "simplex3"]},
        "tasks": [["homology", "P", "--json"]],
    }
    sub = random_subcomplex(seed)
    tasks = [
        Task(
            "product33",
            ("run", _write_json(workdir, "product33.json", manifest)),
            0,
            manifest_check(
                ["homology P --json"],
                homology_problems(full, oracle.homology_oracle(full)),
            ),
        ),
        Task(
            "subcomplex33",
            ("homology", _write_json(workdir, "subcomplex33.json", oracle.to_record(sub)), "--json"),
            0,
            record_check(homology_problems(sub, oracle.homology_oracle(sub))),
        ),
    ]
    return tasks, {"subcomplex33.json": {"counts": oracle.counts(sub)}}


def _tower(seed: int, workdir: str) -> tuple[list[Task], dict]:
    # Fixed inputs: the seed is not used.
    def task(name, argv, code, z_degree):
        return Task(
            name, tuple(argv), code,
            all_checks(golden_check(name), record_check(tower_stage_problems(z_degree))),
        )

    def l1_mock_extra(rec):
        if rec.get("stabilization_index") != 2:
            return ["l1_mock on S² should stabilize at stage 2"]
        return []

    tasks = [
        task("tower-circle-4", ["tower", "reduced_chains", "circle", "-N", "4", "--json"], 0,
             lambda n: 1),
        task("tower-s2-3", ["tower", "reduced_chains", "s2", "-N", "3", "--json"], 0,
             lambda n: 2),
        Task(
            "tower-l1mock-s2-3",
            ("tower", "l1_mock", "s2", "-N", "3", "--json", "--assert"),
            0,
            all_checks(
                golden_check("tower-l1mock-s2-3"),
                record_check(tower_stage_problems(lambda n: 2 if n < 2 else None)),
                record_check(l1_mock_extra),
            ),
        ),
    ]
    return tasks, {}


def _mv(seed: int, workdir: str) -> tuple[list[Task], dict]:
    tops, u, v = random_cover(seed)
    X = oracle.closure(tops)
    U, V = oracle.closure(u), oracle.closure(v)
    W = U & V
    cover = {
        "space": oracle.to_record(X),
        "u": sorted(oracle.simplex_name(s) for s in u),
        "v": sorted(oracle.simplex_name(s) for s in v),
    }
    shutil.copyfile(os.path.join(HERE, "data", "torus3.json"), os.path.join(workdir, "torus3.json"))
    top = len(oracle.counts(X)) - 1
    orc_uv = oracle.add_oracles(oracle.homology_oracle(U), oracle.homology_oracle(V))
    tasks = [
        Task(
            "mv-cover32",
            ("mv", _write_json(workdir, "cover32.json", cover), "--json", "--assert"),
            0,
            record_check(mv_problems(
                top, oracle.homology_oracle(W), orc_uv, oracle.homology_oracle(X)
            )),
        ),
        Task("excision-torus3", ("excision", "identity:torus3.json", "--json", "--assert"), 0,
             golden_check("excision-torus3")),
        Task("excision-interval", ("excision", "interval-collapse", "--json", "--assert"), 0,
             golden_check("excision-interval")),
        Task("counterexample", ("counterexample", "--json", "--assert"), 0,
             golden_check("counterexample")),
    ]
    inputs = {
        "cover32.json": {
            "counts": {
                "X": oracle.counts(X), "U": oracle.counts(U),
                "V": oracle.counts(V), "W": oracle.counts(W),
            }
        },
        "torus3.json": {"counts": [1, 7, 12, 6]},
    }
    return tasks, inputs


def _qcat(seed: int, workdir: str) -> tuple[list[Task], dict]:
    preorder = random_poset(seed)
    manifest = {
        "spaces": {"N": ["nerve", _write_json(workdir, "poset.json", preorder)]},
        "tasks": [["qcat", "N", "-d", str(QCAT_NERVE_DIM), "--json", "--assert"]],
    }
    tasks = [
        Task("qcat-simplex4", ("qcat", "simplex4", "-d", "4", "--json", "--assert"), 0,
             all_checks(golden_check("qcat-simplex4"), record_check(qcat_problems(True, 4)))),
        Task("qcat-boundary3", ("qcat", "boundary3", "-d", "3", "--json", "--assert"), 1,
             all_checks(golden_check("qcat-boundary3"),
                        record_check(qcat_problems(False, 3, (3, 1))))),
        Task("mapspace-simplex3", ("mapspace", "simplex3", "0", "3", "-d", "2", "--json"), 0,
             golden_check("mapspace-simplex3")),
        Task(
            "qcat-nerve",
            ("run", _write_json(workdir, "nerve.json", manifest)),
            0,
            # The nerve of a poset is a quasi-category.
            manifest_check(
                [" ".join(manifest["tasks"][0])],
                qcat_problems(True, QCAT_NERVE_DIM),
            ),
        ),
    ]
    return tasks, {"poset.json": {"elements": POSET_SIZE, "nerve_counts": list(POSET_CHAINS)}}


_MAKERS = {"homology": _homology, "tower": _tower, "mv": _mv, "qcat": _qcat}


def make_workload(name: str, seed: int, workdir: str) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    tasks, inputs = _MAKERS[name](seed, workdir)
    return Workload(name, seed, tuple(tasks), inputs)
