"""Command-line interface: exit codes, JSON stability, manifests."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from ssetkit import build, chain, cli
from ssetkit.excision import identity_square, reduced_suspension
from ssetkit.nerve import nerve_preorder
from ssetkit.serialize import (
    canonical_dumps,
    map_to_record,
    preorder_from_record,
    sset_to_record,
)
from ssetkit.sset import FiniteSSet, SSetMap, Simplex, boundary

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).parent.parent / "src"


def _child_env(env=None):
    # The child imports the package from this checkout, as pytest does.
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "ssetkit.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=_child_env(env),
    )


def test_space_builtin_summaries():
    r = run_cli("space", "horn", "2", "1")
    assert r.returncode == 0
    assert "(3, 2)" in r.stdout
    r = run_cli("space", "circle")
    assert r.returncode == 0
    assert "(1, 1)" in r.stdout


def test_space_json_round_trips(tmp_path):
    r = run_cli("space", "boundary", "2", "--json")
    assert r.returncode == 0
    rec = json.loads(r.stdout)
    assert len(rec["cells"][0]) == 3 and len(rec["cells"][1]) == 3
    # a serialized space is accepted back as an input file
    f = tmp_path / "b2.json"
    f.write_text(r.stdout)
    r2 = run_cli("homology", str(f), "--top", "1", "--json")
    assert r2.returncode == 0
    table = json.loads(r2.stdout)
    assert table["groups"]["0"]["rank"] == 1
    assert table["groups"]["1"]["rank"] == 1


def test_json_bytes_stable_across_runs():
    a = run_cli("homology", "circle", "--json")
    b = run_cli("homology", "circle", "--json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_homology_human_table():
    r = run_cli("homology", "circle", "--top", "2")
    assert r.returncode == 0
    assert "H_0 = Z" in r.stdout
    assert "H_1 = Z" in r.stdout
    assert "H_2 = 0" in r.stdout


def test_qcat_verdicts_and_assert():
    ok = run_cli("qcat", "simplex3", "-d", "3", "--assert")
    assert ok.returncode == 0
    bad = run_cli("qcat", "boundary2", "-d", "2")
    assert bad.returncode == 0  # failed verdict without --assert still exits 0
    assert "fail" in bad.stdout.lower()
    bad2 = run_cli("qcat", "boundary2", "-d", "2", "--assert")
    assert bad2.returncode == 1
    rec = json.loads(run_cli("qcat", "boundary2", "-d", "2", "--json").stdout)
    assert rec["ok"] is False and rec["witness"]["n"] == 2


def test_mapspace():
    r = run_cli("mapspace", "simplex1", "0", "1", "-d", "1")
    assert r.returncode == 0
    assert "(1,)" in r.stdout


def test_invalid_inputs_exit_two():
    assert run_cli("space", "simplex", "17").returncode == 2
    assert run_cli("space", "nosuchthing").returncode == 2
    assert run_cli("homology", "missing_file.json").returncode == 2
    assert run_cli("qcat", "simplex2", "-d", "1").returncode == 2
    assert run_cli("mapspace", "simplex1", "9", "1", "-d", "1").returncode == 2


@pytest.mark.parametrize(
    "args, golden",
    [(("boundary3", "-d", "3"), "qcat_boundary3_d3.json"),
     (("boundary2", "-d", "2"), "qcat_boundary2_d2.json")],
)
def test_qcat_witness_bytes_are_pinned(args, golden):
    r = run_cli("qcat", *args, "--json")
    assert r.returncode == 0
    assert r.stdout == (DATA / golden).read_text()


def test_non_integer_degeneracy_index_exits_two(tmp_path):
    # No subcommand reads a chain record; the integers the CLI does read
    # from JSON are degeneracy indices, and false or 0.0 is not 0.
    codes = {}
    for label, word in (("int", [0]), ("bool", [False]), ("float", [0.0])):
        rec = {"cells": [["a"], ["e"], ["t"]],
               "faces": {"e": [[[], "a"], [[], "a"]],
                         "t": [[[], "e"], [word, "a"], [[], "e"]]}}
        f = tmp_path / f"{label}.json"
        f.write_text(json.dumps(rec))
        codes[label] = run_cli("homology", str(f)).returncode
    assert codes == {"int": 0, "bool": 2, "float": 2}


def test_mapspace_negative_truncation_exits_two():
    r = run_cli("mapspace", "simplex2", "0", "2", "-d", "-1")
    assert r.returncode == 2
    assert r.stderr == "error: truncation dimension -1 is negative\n"


def test_nerve_negative_truncation_exits_two(tmp_path):
    f = tmp_path / "poset.json"
    f.write_text(json.dumps({"elements": ["a", "b"], "pairs": [["a", "b"]]}))
    r = run_cli("space", "nerve", str(f), "-d", "-1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: truncation dimension -1 is negative\n"


@pytest.mark.parametrize(
    "spec", [["simplex3"], ["product", "simplex1", "simplex1"]]
)
def test_space_truncation_outside_a_nerve_exits_two(spec):
    r = run_cli("space", *spec, "-d", "1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: -d truncates only the nerve of 'nerve FILE'\n"


def test_space_nerve_truncation_keeps_its_bytes(tmp_path):
    poset = {"elements": ["a", "b", "c"], "pairs": [["a", "b"], ["b", "c"]]}
    f = tmp_path / "poset.json"
    f.write_text(json.dumps(poset))
    r = run_cli("space", "nerve", str(f), "-d", "1", "--json")
    assert r.returncode == 0
    N = nerve_preorder(preorder_from_record(poset), 1)
    assert N.counts() == (3, 3)
    assert r.stdout == canonical_dumps(sset_to_record(N))


@pytest.mark.parametrize(
    "task", [["space", "simplex3"], ["run", "manifest.json"]]
)
def test_closed_output_pipe_exits_two_with_one_error_line(tmp_path, task):
    # The read end is closed before the child starts, so its first write
    # to standard output fails.
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"tasks": [["space", "simplex3"], ["homology", "circle"]]}
    ))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run(
            [sys.executable, "-m", "ssetkit.cli", *task],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            cwd=tmp_path, env=_child_env(),
        )
    finally:
        os.close(write_end)
    assert r.returncode == 2
    assert r.stderr == "error: standard output closed before the output ended\n"


@pytest.mark.parametrize("n", [6, 9])
def test_oversized_products_are_refused(n):
    # Delta^6 x Delta^6 has 1,150,591 nondegenerate simplices and
    # Delta^9 x Delta^9 about 1.5e9, past the budget of 10**6: both are
    # refused while their levels are counted, before any is built.
    r = run_cli("space", "product", f"simplex{n}", f"simplex{n}", "--json")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: pullback exceeds 1000000 nondegenerate simplices\n"


def test_oversized_suspensions_are_refused(monkeypatch, capsys):
    # The tower of S¹ up to stage 4 builds Σ⁴S¹, 542 cells: with a budget
    # of 541 it is refused with one error line and nothing on stdout.
    monkeypatch.setattr(build, "DEFAULT_MAX_CANDIDATES", 541)
    assert cli.main(["tower", "reduced_chains", "circle", "-N", "4"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: reduced suspension exceeds 541 nondegenerate simplices\n"


def test_unknown_simplex_error_does_not_depend_on_hash_seed():
    runs = set()
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        r = run_cli("space", "quotient", "simplex2", "boundary3", env=env)
        runs.add((r.returncode, r.stderr))
    assert len(runs) == 1
    ((code, stderr),) = runs
    assert code == 2 and "unknown simplex" in stderr


def test_mv_from_cover_file(tmp_path):
    cover = {"space": "boundary2", "u": ["01", "12"], "v": ["02"]}
    f = tmp_path / "cover.json"
    f.write_text(json.dumps(cover))
    r = run_cli("mv", str(f), "--top", "2", "--assert")
    assert r.returncode == 0
    rec = json.loads(run_cli("mv", str(f), "--top", "2", "--json").stdout)
    assert all(rec["exact"])
    r2 = run_cli("mv", str(f), "--top", "2", "--reduced")
    assert r2.returncode == 0


def test_excision_square_verdicts():
    good = run_cli("excision", "interval-collapse", "--assert")
    assert good.returncode == 0
    bad = run_cli("excision", "corner-circle", "--assert")
    assert bad.returncode == 1
    rec = json.loads(run_cli("excision", "corner-circle", "--json").stdout)
    assert rec["square_is_pushout"] is False


def test_tower_reports():
    r = run_cli("tower", "l1_mock", "circle", "-N", "4", "--assert")
    assert r.returncode == 0
    assert "zero complex" in r.stdout
    rec = json.loads(run_cli("tower", "l1_mock", "circle", "-N", "4", "--json").stdout)
    assert rec["colimit"]["ranks"] == [0]
    nr = run_cli("tower", "reduced_chains", "s2", "-N", "2")
    assert nr.returncode == 0
    assert "not certified" in nr.stdout


def test_counterexample():
    r = run_cli("counterexample", "--assert")
    assert r.returncode == 0
    rec = json.loads(run_cli("counterexample", "--json").stdout)
    assert rec["pullback_H0_rank"] == 2
    assert rec["square_is_pushout"] is True


def test_manifest_run(tmp_path):
    manifest = {
        "spaces": {
            "torus": ["product", "circle", "circle"],
            "disk": "simplex2",
        },
        "covers": {
            "arcs": {"space": "boundary2", "u": ["01", "12"], "v": ["02"]},
        },
        "squares": {},
        "tasks": [
            ["homology", "torus", "--top", "2"],
            ["mv", "arcs", "--top", "2", "--assert"],
            ["qcat", "disk", "-d", "2", "--assert"],
        ],
    }
    f = tmp_path / "manifest.json"
    f.write_text(json.dumps(manifest))
    r = run_cli("run", str(f))
    assert r.returncode == 0
    assert "task 0" in r.stdout and "task 2" in r.stdout
    assert "H_2 = Z" in r.stdout

    manifest["tasks"].append(["qcat", "boundary2", "--assert"])
    f.write_text(json.dumps(manifest))
    assert run_cli("run", str(f)).returncode == 1

    manifest["tasks"].append(["space", "simplex", "99"])
    f.write_text(json.dumps(manifest))
    assert run_cli("run", str(f)).returncode == 2


@pytest.mark.parametrize(
    "argv, golden",
    [
        # recorded before products became pullbacks over the point
        ("space product simplex1 simplex2", "product_simplex1_simplex2.json"),
        # recorded before quotients were built without a pushout
        ("space suspension s2", "suspension_s2.json"),
    ],
    ids=["product", "suspension"],
)
def test_product_cell_names_are_stable(capsys, argv, golden):
    assert cli.main([*argv.split(), "--json"]) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


@pytest.mark.parametrize(
    "cover, line",
    [
        ({"space": "boundary2", "u": ["01"], "v": ["02"]}, "cover misses simplices: ['12']"),
        ({"space": "boundary2", "u": ["01", "zz"], "v": ["02", "12"]}, "unknown simplex 'zz'"),
    ],
    ids=["misses-a-cell", "unknown-cell"],
)
def test_bad_covers_exit_two_with_their_message(tmp_path, capsys, cover, line):
    # The cover's pieces are checked where the cover is read; the sequence
    # built from it checks no inclusion again.
    f = tmp_path / "cover.json"
    f.write_text(json.dumps(cover))
    assert cli.main(["mv", str(f), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {line}\n"


def _mv_of_the_disk_and_band_cover(tmp_path, capsys, *flags) -> str:
    claims = json.loads((DATA / "paper_claims.json").read_text())
    cover = dict(claims["covers"]["disk-and-band"])
    cover["space"] = claims["spaces"][cover["space"]]
    f = tmp_path / "cover.json"
    f.write_text(json.dumps(cover))
    assert cli.main(["mv", str(f), *flags, "--json"]) == 0
    return capsys.readouterr().out


def test_mv_record_of_the_disk_and_band_cover_is_stable(tmp_path, capsys):
    # Re-recorded when the presentations moved onto reductions, which
    # flipped the generator of H_1(W): the map into H_1(U + V) went from
    # [[2]] to [[-2]], and test_reduction checks that every map changed by
    # the change of generators alone.  The maps are written on the homology
    # generators, which any change of elimination order would move;
    # H_1(RP²) = Z/2 puts a non-unit relation in them.
    out = _mv_of_the_disk_and_band_cover(tmp_path, capsys)
    assert out == (DATA / "mv_disk_and_band.json").read_text()


def test_reduced_mv_record_of_the_disk_and_band_cover_is_stable(tmp_path, capsys):
    # Recorded while the reduced cover sequence packed its square of chain
    # inclusions by hand, before ``chain_square_of`` built it.
    out = _mv_of_the_disk_and_band_cover(tmp_path, capsys, "--reduced")
    assert out == (DATA / "mv_disk_and_band_reduced.json").read_text()


def test_a_square_record_that_does_not_commute_exits_two(tmp_path, capsys):
    # The legs parse as maps, but one sends the point to 0 and the other to
    # 1 of the same interval.  Recorded before squares were one class.
    at = {"images": {"0": [[], "0"]}}
    identity = {"images": {"0": [[], "0"], "1": [[], "1"], "01": [[], "01"]}}
    square = {
        "w": "point", "u": "simplex1", "v": "simplex1", "x": "simplex1",
        "w_to_u": at, "w_to_v": {"images": {"0": [[], "1"]}},
        "u_to_x": identity, "v_to_x": identity,
    }
    f = tmp_path / "square.json"
    f.write_text(json.dumps(square))
    assert cli.main(["excision", str(f), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: square does not commute\n"


_EDGE ={"cells": [["a"], ["e"]]}
_PREORDER = {"elements": ["a", "b"]}


@pytest.mark.parametrize(
    "command, record",
    [
        ("homology", {**_EDGE, "faces": [1, 2]}),
        ("homology", {**_EDGE, "faces": {"e": None}}),
        ("homology", {"cells": [5]}),
        ("homology", {**_EDGE, "faces": {"e": [[0, "a"], [[], "a"]]}}),
        ("homology", {"cells": [["a"]], "basepoint": ["a"]}),
        ("mv", {"space": "boundary2", "u": 5, "v": ["02"]}),
        ("run", {"spaces": [1]}),
        ("run", {"spaces": {"a": [1]}}),
        ("run", {"covers": {"c": 7}}),
        ("space nerve", {**_PREORDER, "pairs": 3}),
        ("space nerve", {**_PREORDER, "pairs": [3]}),
        ("space nerve", {**_PREORDER, "pairs": [[["a"], "b"]]}),
        ("tower reduced_chains", {"cells": []}),
        ("space nerve", {"elements": ["x<=y", "z", "x", "y<=z"],
                         "pairs": [["x<=y", "z"], ["x", "y<=z"]]}),
        ("run", {"space": {"a": "point"}}),
    ],
)
def test_malformed_records_exit_two(tmp_path, capsys, command, record):
    # ``command`` is the argv prefix, split on spaces, before the record file
    f = tmp_path / "record.json"
    f.write_text(json.dumps(record))
    assert cli.main([*command.split(), str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_PAIR = "expected a [degeneracy-word, base] pair"


@pytest.mark.parametrize(
    "faces, line",
    [
        ([[[], 5], [[], "a"]], f"face of 'e': {_PAIR}"),
        ([[[], "a", 0], [[], "a"]], f"face of 'e': {_PAIR}"),
        ([[[]], [[], "a"]], f"face of 'e': {_PAIR}"),
        ([[[], "nosuch"], [[], "a"]], "face of 'e' has unknown base"),
        ([[[], "e"], [[], "a"]], "face of 'e' has inconsistent base dim"),
        ([[[], "a"], [["x"], "a"]], "face of 'e': degeneracy word must be a list of integers"),
        ([[[], "a"], [[], 5]], f"face of 'e': {_PAIR}"),
    ],
    ids=["base-int", "three-items", "one-item", "unknown-base", "wrong-dim",
         "valid-then-word", "valid-then-base"],
)
def test_face_entries_near_the_nondegenerate_shape_fail_with_their_line(
    tmp_path, capsys, faces, line
):
    # ``[[], name]`` entries skip the pair check; these must still fail with
    # the messages of the checked reading.
    f = tmp_path / "record.json"
    f.write_text(json.dumps({**_EDGE, "faces": {"e": faces}}))
    assert cli.main(["homology", str(f)]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize(
    "word, message",
    [([-1], "degeneracy word (-1,) has a negative index"),
     ([True], "degeneracy word must be a list of integers")],
    ids=["negative", "bool"],
)
def test_malformed_degeneracy_word_exits_two(tmp_path, capsys, word, message):
    record = {
        "cells": [["v"], [], ["t"]],
        "faces": {"t": [[[0], "v"], [[0], "v"], [word, "v"]]},
    }
    f = tmp_path / "record.json"
    f.write_text(json.dumps(record))
    assert cli.main(["homology", str(f)]) == 2
    assert message in capsys.readouterr().err


def test_manifest_builds_the_parser_once(tmp_path, capsys):
    f = tmp_path / "manifest.json"
    tasks = [["homology", "circle"], ["qcat", "simplex2"], ["space", "point"]]
    f.write_text(json.dumps({"tasks": tasks}))
    cli._parser.cache_clear()
    assert cli.main(["run", str(f)]) == 0
    assert capsys.readouterr().out.count("== task") == 3
    assert cli._parser.cache_info().misses == 1


def test_homology_eliminates_each_boundary_once(monkeypatch, capsys):
    # One table over degrees 0..3 of Δ³ eliminates the boundaries out of
    # degrees 0..4 once each: top + 2 = 5, where one homology call per
    # degree took 8.
    calls = []
    eliminate = chain._rank_torsion_units

    def counting(M, skip=()):
        calls.append((M.rows, M.cols))
        return eliminate(M, skip)

    monkeypatch.setattr(chain, "_rank_torsion_units", counting)
    assert cli.main(["homology", "simplex3"]) == 0
    assert capsys.readouterr().out == "H_0 = Z\nH_1 = 0\nH_2 = 0\nH_3 = 0\n"
    assert len(calls) == 5


def test_paper_claims_run_matches_its_golden(monkeypatch, capsys):
    # ``paper_claims.json`` groups its tasks by the paper claim each checks
    # (see the ``cli`` module docstring); its nerve file is named relative
    # to the manifest, and the run starts from the repository root.
    manifest = json.loads((DATA / "paper_claims.json").read_text())
    grouped = sorted(i for tasks in manifest["claims"].values() for i in tasks)
    assert grouped == list(range(len(manifest["tasks"])))
    monkeypatch.chdir(DATA.parent.parent)
    assert cli.main(["run", "tests/data/paper_claims.json"]) == 0
    assert capsys.readouterr().out == (DATA / "paper_claims_output.txt").read_text()


def test_manifest_reads_its_files_relative_to_itself(tmp_path, monkeypatch, capsys):
    # a file named in the spaces section or in a task is found next to the
    # manifest, whatever the working directory (covers and squares: the
    # "relative" form of the tests below)
    path = pathlib.Path(_boundary2_forms(tmp_path)["path"])
    tasks = [["homology", "B"], ["homology", path.name]]
    want = _run_output(capsys, tasks, [["homology", str(path)]] * 2)
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    got = _manifest_output(tmp_path, capsys, {"spaces": {"B": path.name}, "tasks": tasks})
    assert got == want


def test_manifest_refuses_unknown_keys(tmp_path, capsys):
    f = tmp_path / "manifest.json"
    f.write_text(json.dumps({"tasks": [], "space": {"a": "point"}}))
    assert cli.main(["run", str(f)]) == 2
    assert capsys.readouterr().err == "error: manifest has unknown key 'space'\n"


def test_manifest_cannot_run_a_manifest(tmp_path, capsys):
    f = tmp_path / "manifest.json"
    f.write_text(json.dumps({"tasks": [["homology", "circle"], ["run", str(f)]]}))
    assert cli.main(["run", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # rejected before the first task runs
    assert err.startswith("error: ")


def test_homology_of_projective_plane_has_torsion(tmp_path, capsys):
    rp2 = {
        "cells": [["v"], ["e"], ["t"]],
        "faces": {
            "e": [[[], "v"], [[], "v"]],
            "t": [[[], "e"], [[0], "v"], [[], "e"]],
        },
    }
    f = tmp_path / "rp2.json"
    f.write_text(json.dumps(rp2))
    assert cli.main(["homology", str(f)]) == 0
    assert capsys.readouterr().out == "H_0 = Z\nH_1 = Z/2\nH_2 = 0\n"


@pytest.mark.parametrize("command", [
    "homology", "run", "mv", "excision", "space nerve",
])
def test_deeply_nested_json_exits_two(tmp_path, capsys, command):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000)
    assert cli.main([*command.split(), str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {f} is nested too deeply to read\n"


@pytest.mark.parametrize(
    "tasks, message",
    [
        ([["", "A"], ["homology", "circle"]],
         "error: manifest task 0: argument command: invalid choice: ''"),
        ([["-h"], ["homology", "circle"]], "error: manifest task 0: asks for help"),
        ([["homology", "circle"], ["qcat", "--help"]],
         "error: manifest task 1: asks for help"),
        ([["homology", "circle"], ["qcat", "simplex2", "-d", "x"]],
         "error: manifest task 1: argument -d: invalid int value: 'x'"),
    ],
    ids=["invalid-choice", "help", "subcommand-help", "bad-option"],
)
def test_manifest_tasks_are_parsed_before_any_runs(tmp_path, capsys, tasks, message):
    f = tmp_path / "manifest.json"
    f.write_text(json.dumps({"tasks": tasks}))
    assert cli.main(["run", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # no task ran and no usage or help was printed
    assert err.count("\n") == 1 and err.startswith(message)


def _boundary2_forms(tmp_path) -> dict:
    """∂Δ² named in each form a space field accepts."""
    record = sset_to_record(boundary(2))
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(record))
    return {"name": "B", "token": "boundary2", "words": ["boundary", "2"],
            "record": record, "path": str(path), "relative": path.name}


def _run_output(capsys, tasks, argvs) -> str:
    """What ``run`` prints for ``tasks`` if each prints what ``argvs`` do."""
    out = []
    for i, (task, argv) in enumerate(zip(tasks, argvs)):
        assert cli.main(argv) == 0
        out.append(f"== task {i}: {' '.join(task)}\n{capsys.readouterr().out}")
    return "".join(out)


def _manifest_output(tmp_path, capsys, manifest) -> str:
    f = tmp_path / "manifest.json"
    f.write_text(json.dumps({"spaces": {"B": "boundary2"}, **manifest}))
    assert cli.main(["run", str(f)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("form", ["name", "token", "words", "record", "path", "relative"])
def test_manifest_cover_names_its_space_in_any_form(tmp_path, capsys, form):
    inline = {"space": sset_to_record(boundary(2)), "u": ["01", "12"], "v": ["02"]}
    f = tmp_path / "cover.json"
    f.write_text(json.dumps(inline))
    flags = [[], ["--reduced", "--json"]]
    tasks = [["mv", "c", *fl] for fl in flags]
    want = _run_output(capsys, tasks, [["mv", str(f), *fl] for fl in flags])
    cover = {**inline, "space": _boundary2_forms(tmp_path)[form]}
    got = _manifest_output(tmp_path, capsys, {"covers": {"c": cover}, "tasks": tasks})
    assert got == want


@pytest.mark.parametrize("form", ["name", "token", "words", "record", "path", "relative"])
def test_manifest_square_names_its_corners_in_any_form(tmp_path, capsys, form):
    sq = identity_square(boundary(2))
    inline = {key: sset_to_record(getattr(sq, key)) for key in "wuvx"}
    inline.update({leg: map_to_record(getattr(sq, leg))
                   for leg in ("w_to_u", "w_to_v", "u_to_x", "v_to_x")})
    f = tmp_path / "square.json"
    f.write_text(json.dumps(inline))
    flags = [[], ["--json", "--assert"]]
    tasks = [["excision", "q", *fl] for fl in flags]
    want = _run_output(capsys, tasks, [["excision", str(f), *fl] for fl in flags])
    square = {**inline, **dict.fromkeys("wuvx", _boundary2_forms(tmp_path)[form])}
    got = _manifest_output(tmp_path, capsys, {"squares": {"q": square}, "tasks": tasks})
    assert got == want


@pytest.mark.parametrize(
    "argv",
    [["qcat", "simplex4", "-d", "4"], ["mapspace", "simplex3", "0", "3", "-d", "2"]],
    ids=["qcat", "mapspace"],
)
def test_negative_max_enum_exits_two_naming_the_flag(tmp_path, capsys, argv):
    message = "argument --max-enum: must be nonnegative, got -5"
    assert cli.main([*argv, "--max-enum", "-5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"ssetkit {argv[0]}: error: {message}"
    ]
    f = tmp_path / "manifest.json"
    f.write_text(json.dumps({"tasks": [[*argv, "--max-enum", "-5"]]}))
    assert cli.main(["run", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: manifest task 0: {message}\n"


@pytest.mark.parametrize("command", ["homology", "mv"])
@pytest.mark.parametrize("top", ["-1", "-2"])
def test_negative_top_exits_two_naming_the_flag(tmp_path, capsys, command, top):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"space": "boundary2", "u": ["01", "12"], "v": ["02"]}))
    argv = ["homology", "circle"] if command == "homology" else ["mv", str(cover)]
    message = f"argument --top: must be nonnegative, got {top}"
    assert cli.main([*argv, "--top", top]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"ssetkit {argv[0]}: error: {message}"
    ]
    f = tmp_path / "manifest.json"
    f.write_text(json.dumps({"tasks": [[*argv, "--top", top]]}))
    assert cli.main(["run", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: manifest task 0: {message}\n"


ROOT = pathlib.Path(__file__).parent.parent
GOLDEN = ROOT / "perfbench" / "data" / "expected"


@pytest.mark.parametrize(
    "golden, argv, code",
    [
        ("counterexample", ["counterexample", "--json", "--assert"], 0),
        ("excision-interval", ["excision", "interval-collapse", "--json", "--assert"], 0),
        (
            "excision-torus3",
            ["excision", "identity:perfbench/data/torus3.json", "--json", "--assert"],
            0,
        ),
        ("mapspace-simplex3", ["mapspace", "simplex3", "0", "3", "-d", "2", "--json"], 0),
        ("qcat-boundary3", ["qcat", "boundary3", "-d", "3", "--json", "--assert"], 1),
        ("qcat-simplex4", ["qcat", "simplex4", "-d", "4", "--json", "--assert"], 0),
        ("tower-circle-4", ["tower", "reduced_chains", "circle", "-N", "4", "--json"], 0),
        ("tower-s2-3", ["tower", "reduced_chains", "s2", "-N", "3", "--json"], 0),
        ("tower-l1mock-s2-3", ["tower", "l1_mock", "s2", "-N", "3", "--json", "--assert"], 0),
    ],
)
def test_fixed_benchmark_tasks_match_their_goldens(monkeypatch, capsys, golden, argv, code):
    # The benchmark's fixed command lines (perfbench/workloads.py), each
    # checked against the output recorded under perfbench/data/expected.
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / f"{golden}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, golden",
    [
        ("space product simplex3 simplex3", "space_product_simplex3_simplex3.txt"),
        ("space suspension suspension circle", "space_suspension_suspension_circle.txt"),
        ("space nerve tests/data/claims_poset.json -d 3", "space_nerve_claims_poset_d3.txt"),
        ("mapspace simplex3 0 3 -d 2 --json", "mapspace_simplex3_0_3_d2.json"),
        ("space suspension boundary2", "space_suspension_boundary2.txt"),
        ("space suspension simplex1", "space_suspension_simplex1.txt"),
        ("excision identity:circle --json", "excision_identity_circle.json"),
        ("excision corner-circle --json", "excision_corner_circle.json"),
    ],
    ids=[
        "product33", "suspension2-circle", "nerve-claims-poset", "mapspace-simplex3",
        "unreduced-suspension-boundary2", "unreduced-suspension-simplex1",
        "excision-identity-circle", "excision-corner-circle",
    ],
)
def test_space_outputs_match_the_goldens_recorded_before_face_tables(
    monkeypatch, capsys, argv, golden
):
    # The first four were recorded before a space kept its faces as (word,
    # position) pairs.  The unreduced suspensions (of unpointed spaces) were
    # recorded while the cylinder's ends were still collapsed by quotients,
    # and the excision verdicts while squares of spaces and of chains were
    # two classes.
    monkeypatch.chdir(ROOT)
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")


def test_products_and_suspensions_run_without_face(monkeypatch, capsys):
    # Products and suspensions read faces as (word, position) keys: with
    # ``FiniteSSet.face`` refused, every output keeps its bytes.
    monkeypatch.chdir(ROOT)
    product33 = ["space", "product", "simplex3", "simplex3", "--json"]
    assert cli.main(product33) == 0
    expected = {tuple(product33): capsys.readouterr().out}
    for argv, golden in [
        ("space product simplex1 simplex2", DATA / "product_simplex1_simplex2.json"),
        ("space suspension s2", DATA / "suspension_s2.json"),
        ("tower reduced_chains circle -N 4", GOLDEN / "tower-circle-4.json"),
        ("tower reduced_chains s2 -N 3", GOLDEN / "tower-s2-3.json"),
        ("tower l1_mock s2 -N 3 --assert", GOLDEN / "tower-l1mock-s2-3.json"),
    ]:
        expected[(*argv.split(), "--json")] = golden.read_text(encoding="utf-8")

    def refuse(self, sx, i):
        raise AssertionError("face was called")

    monkeypatch.setattr(FiniteSSet, "face", refuse)
    for argv, out in expected.items():
        assert cli.main(list(argv)) == 0
        assert capsys.readouterr().out == out


def _pipelines(tmp_path) -> list[str]:
    """Command lines over every pipeline: a record, products, suspensions,
    chains, covers, excision, towers, inner horns, mapping spaces and a
    manifest of a nerve."""
    claims = json.loads((DATA / "paper_claims.json").read_text())
    cover = {**claims["covers"]["disk-and-band"], "space": claims["spaces"]["RP2"]}
    f = tmp_path / "cover.json"
    f.write_text(json.dumps(cover))
    manifest = tmp_path / "nerve.json"
    manifest.write_text(json.dumps({
        "spaces": {"N": ["nerve", str(DATA / "claims_poset.json"), "-d", "3"]},
        "tasks": [["homology", "N"], ["qcat", "N", "-d", "3", "--json"]],
    }))
    return [
        "homology tests/data/suspension_s2.json",
        "space product simplex3 simplex3",
        f"mv {f} --json",
        "excision identity:perfbench/data/torus3.json",
        "excision interval-collapse",
        "counterexample",
        "tower reduced_chains s2 -N 3",
        "qcat simplex4 -d 4",
        "mapspace simplex3 0 3 -d 2 --json",
        f"run {manifest}",
    ]


def test_pipelines_read_faces_from_the_table(monkeypatch, tmp_path, capsys):
    # Every pipeline reads faces as positions: with the name-keyed faces of
    # ``FiniteSSet.faces`` and ``face`` refused, every command still exits 0
    # or 1.
    monkeypatch.chdir(ROOT)

    def refuse(self):
        raise AssertionError("the name-keyed faces were built")

    monkeypatch.setattr(FiniteSSet, "_face_simplices", refuse)
    for argv in _pipelines(tmp_path) + ["qcat boundary3 -d 3"]:
        assert cli.main(argv.split()) in (0, 1), argv
    capsys.readouterr()


def test_pipelines_read_maps_as_keys(monkeypatch, tmp_path, capsys):
    # Maps are (word, position) keys: with the name-keyed view of
    # ``SSetMap.images`` refused, every command still exits 0 or 1, a
    # failing inner-horn check included, which prints its witness from the
    # key table.
    monkeypatch.chdir(ROOT)

    def refuse(self):
        raise AssertionError("the name-keyed images were built")

    monkeypatch.setattr(SSetMap, "images", property(refuse))
    for argv in _pipelines(tmp_path) + ["excision corner-circle", "qcat boundary3 -d 3"]:
        assert cli.main(argv.split()) in (0, 1), argv
    capsys.readouterr()


def test_pipelines_build_no_simplex(monkeypatch, tmp_path, capsys):
    # Cells, faces, maps and levels are keys: with ``Simplex`` refused, every
    # command still exits 0 or 1, the map search, the function complexes and
    # the inner-horn check included, and a failing inner-horn check names
    # its witness from the key table.
    monkeypatch.chdir(ROOT)

    def refuse(self, *args):
        raise AssertionError("a Simplex was built")

    monkeypatch.setattr(Simplex, "__init__", refuse)
    for argv in _pipelines(tmp_path) + ["excision corner-circle", "qcat boundary3 -d 3"]:
        assert cli.main(argv.split()) in (0, 1), argv
    capsys.readouterr()


def test_every_subcommand_reads_a_space_of_several_words(tmp_path, capsys):
    # A space argument reads the same grammar as ``space``: the words of a
    # builder give the stdout of a manifest naming that space.
    manifest = tmp_path / "m.json"
    commands = [
        "qcat S -d 3",
        "homology S",
        "tower reduced_chains S -N 1",
        "mapspace S g0_0 g0_0 -d 1",
        "homology S --json",
    ]
    manifest.write_text(json.dumps({
        "spaces": {"S": ["suspension", "circle"]},
        "tasks": [c.split() for c in commands],
    }))
    assert cli.main(["run", str(manifest)]) == 0
    chunks = capsys.readouterr().out.split("== task ")[1:]
    for command, chunk in zip(commands, chunks):
        assert cli.main(command.replace("S", "suspension circle").split()) == 0
        assert capsys.readouterr().out == chunk.partition("\n")[2], command
    # one word stays one word
    assert cli.main(["homology", "circle"]) == 0
    assert capsys.readouterr().out == "H_0 = Z\nH_1 = Z\n"


def test_one_space_builders_nest(capsys):
    # ``suspension`` reads the words after it as one space; a two-space
    # builder still takes one word per space.
    circle = cli._sphere(1)
    assert cli.main(["space", "suspension", "suspension", "circle", "--json"]) == 0
    twice = reduced_suspension(reduced_suspension(circle))
    assert capsys.readouterr().out == canonical_dumps(sset_to_record(twice))
    assert cli.main(["space", "suspension", "suspension", "suspension", "circle"]) == 0
    assert capsys.readouterr().out.startswith("counts: (1, 1, 14, 36, 24)\n")
    assert cli.main(["space", "product", "suspension", "circle", "circle"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot parse space specification "
        "['product', 'suspension', 'circle', 'circle']\n"
    )
