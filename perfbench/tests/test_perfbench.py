"""Tests of the benchmark itself: tracing, generators and failure counting.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import inspect
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import child  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

import ssetkit.cli  # noqa: E402

SMALL_TASKS = [
    ("homology", ["homology", "simplex2", "--json"]),
    ("tower", ["tower", "reduced_chains", "circle", "-N", "2", "--json"]),
    ("qcat", ["qcat", "boundary3", "-d", "3", "--json"]),
    ("mapspace", ["mapspace", "simplex2", "0", "2", "-d", "1", "--json"]),
    ("excision", ["excision", "interval-collapse", "--json"]),
    ("counterexample", ["counterexample", "--json"]),
]


def _bindings():
    """Every module attribute and class attribute of the package."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "ssetkit" or name.startswith("ssetkit."):
            for attr, val in vars(mod).items():
                out[(name, attr)] = val
                if inspect.isclass(val):
                    for cattr, cval in vars(val).items():
                        out[(name, attr, cattr)] = cval
    return out


def _small_workload(tmp_path):
    tasks = tuple(
        workloads.Task(name, tuple(argv), 0, lambda text: []) for name, argv in SMALL_TASKS
    )
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    return workloads.Workload("small", 0, tasks, {}), str(inputs)


def test_restore_puts_every_patched_name_back():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert ssetkit.chain.solve is not before[("ssetkit.chain", "solve")]
        assert ssetkit.groups.solve is not before[("ssetkit.groups", "solve")]
        assert ssetkit.sset.FiniteSSet.face is not before[("ssetkit.sset", "FiniteSSet", "face")]
        child.run_tasks(ssetkit.cli.main, SMALL_TASKS[:2], tracer)
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_stdout_is_byte_identical_to_untraced():
    # Untraced passes run under the speed sampler.
    with child.SpeedSampler() as sampler:
        plain, _, _ = child.run_tasks(ssetkit.cli.main, SMALL_TASKS, sampler=sampler)
    tracer = Tracer()
    tracer.install()
    try:
        traced, wall, _ = child.run_tasks(ssetkit.cli.main, SMALL_TASKS, tracer)
    finally:
        tracer.restore()
    assert all(r["error"] is None and r["exit_code"] == 0 for r in plain + traced)
    assert [r["stdout"] for r in traced] == [r["stdout"] for r in plain]
    layers = tracer.metrics(wall)
    assert set(layers) == {name for name, _ in PER_LAYER} - {"trace.overhead_ratio"}
    assert layers["intmat.snf_calls"] > 0 and layers["chain.homology_calls"] > 0
    assert layers["quasicat.horn_fillers_calls"] > 0 and layers["delta.calls"] > 0
    assert 0 < layers["cli.self_s"] < wall


def test_speed_sampler_samples_and_its_time_is_not_counted():
    def main(argv):
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        return 0

    with child.SpeedSampler() as sampler:
        results, wall, cpu = child.run_tasks(main, [("spin", [])], sampler=sampler)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.walls) >= 3
    # The task spins on wall time, so the samples come out of its share.
    assert abs(wall + sampler.spent_wall - 0.3) < 0.02
    assert results[0]["wall_s"] == wall


def test_untraced_pass_reports_time_in_reference_units(tmp_path):
    wl, inputs = _small_workload(tmp_path)
    passes = tmp_path / "passes"
    passes.mkdir()
    rec = run.run_pass(wl, inputs, str(passes), 1, False, 120)
    assert rec is not None and rec["speed_samples"] >= 1
    assert rec["wall_ref"] > 0 and rec["cpu_ref"] > 0
    assert {m for m, _ in run.PASS_FIGURES} <= set(rec)


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    wl, inputs = _small_workload(tmp_path)
    passes = tmp_path / "passes"
    passes.mkdir()
    first = run.run_pass(wl, inputs, str(passes), 1, True, 120)
    second = run.run_pass(wl, inputs, str(passes), 2, True, 120)
    assert first is not None and second is not None
    assert run.counts_of(first) == run.counts_of(second)
    assert first["sizes"][0]["snf"]  # homology of Δ² runs Smith normal forms
    assert run.output_mismatches(wl, first, second) == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_for_a_seed(tmp_path, name):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        wl = workloads.make_workload(name, seed, str(d))
        return wl, {f: (d / f).read_bytes() for f in sorted(os.listdir(d))}

    wl_a, a = files(7, "a")
    wl_b, b = files(7, "b")
    _, c = files(8, "c")
    assert a == b and wl_a.inputs == wl_b.inputs
    assert [t.argv for t in wl_a.tasks] == [t.argv for t in wl_b.tasks]
    if name != "tower":  # the tower inputs are fixed
        assert a != c


def test_seeded_inputs_keep_their_size_class():
    assert len(oracle.counts(workloads.random_subcomplex(3))) == 7
    for seed in (1, 2):
        tops, u, v = workloads.random_cover(seed)
        assert len(oracle.closure(u) & oracle.closure(v)) == workloads.COVER_OVERLAP_CELLS
        assert sorted(u + v) == sorted(tops)


def test_a_task_that_raises_fails_and_the_pass_goes_on():
    def main(argv):
        if argv[0] == "boom":
            raise TypeError("boom")
        print("ok")
        return 0

    results, _, _ = child.run_tasks(main, [("a", ["boom"]), ("b", ["fine"])])
    assert "TypeError: boom" in results[0]["error"]
    assert results[1]["error"] is None and results[1]["stdout"] == "ok\n"
    wl = workloads.Workload("w", 0, (
        workloads.Task("a", ("boom",), 0, lambda text: []),
        workloads.Task("b", ("fine",), 0, lambda text: [] if text == "ok\n" else ["bad"]),
    ), {})
    failures = run.task_failures(wl, {"tasks": results})
    assert [f["task"] for f in failures] == ["a"]


def test_checks_reject_a_wrong_record():
    triangle = oracle.closure([((0, 0), (0, 1), (1, 1))])
    check = workloads.record_check(
        workloads.homology_problems(triangle, oracle.homology_oracle(triangle))
    )
    good = {"space_counts": [3, 3, 1], "groups": {
        "0": {"rank": 1, "torsion": []}, "1": {"rank": 0, "torsion": []},
        "2": {"rank": 0, "torsion": []}}}
    assert check(workloads.canonical(good)) == []
    bad = json.loads(json.dumps(good))
    bad["groups"]["1"]["torsion"] = [2]
    assert check(workloads.canonical(bad))
    assert check(json.dumps(good))  # not canonical


def test_oracle_homology_of_a_sphere_and_a_contractible_product():
    tetra = ((0, 0), (0, 1), (0, 2), (0, 3))
    sphere = oracle.closure([tetra]) - {tetra}
    assert oracle.betti_mod_p(sphere, oracle.BIG_PRIME) == [1, 0, 1]
    full = oracle.closure(oracle.product_top_cells(3, 3))
    assert oracle.counts(full) == [16, 84, 216, 309, 252, 110, 20]
    assert oracle.betti_mod_p(full, 2) == [1, 0, 0, 0, 0, 0, 0]


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qcat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
