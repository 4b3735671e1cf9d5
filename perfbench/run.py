"""Benchmark of ssetkit: four CLI workloads, timed end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {homology,tower,mv,qcat} \\
        --seed N --seconds S --trace {0,1}

The seed picks the generated inputs, which are written before any pass
starts.  A pass runs every task of the workload, in order, through
``ssetkit.cli.main`` in a fresh child interpreter: users run ssetkit as a
batch CLI, one process per invocation, so no pass may profit from a cache
filled by an earlier one.  Passes run one at a time, until the next one
would end after S seconds (at least one runs).

With ``--trace 0`` the result holds the median over passes of the
end-to-end metrics: set-up seconds (also sampled by children that only
start and import), the pass's wall and CPU time in units of a reference
kernel timed at the same moments (see ``child.py``), and peak memory.
With ``--trace 1`` each round runs one untraced and one traced pass; the result holds the per-layer metrics of the traced
passes and their overhead, and a task whose traced output differs from its
untraced output by one byte counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-pass figures,
quartiles, input sizes and failures go to ``.perfbench/results/``, spans
and size metadata of traced passes to ``.perfbench/traces/``.  If the
package cannot be imported the benchmark prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")

END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("cpu_ref", "ref"), ("peak_rss_mb", "MB"))
# Seconds of the same passes: written with the results but not in them,
# because the machine's own swings move them by up to a quarter.
RAW_TIMES = (("wall_s", "s"), ("cpu_s", "s"))
PASS_FIGURES = END_TO_END + RAW_TIMES

# Children that only start up and import, before the timed passes: the
# first compiles the bytecode and is not counted; the set-up times of the
# others join those of the passes.
SETUP_PROBES = 6

# Every run ends well inside the 180 s a run may take.
TIME_LIMIT_S = 160.0


class SetupError(Exception):
    """The package could not be started: there is nothing to measure."""


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def child_env() -> dict:
    # A fixed hash seed makes set and dict orders, and so the traced counts,
    # repeat exactly from one process to the next.
    return dict(os.environ, PYTHONHASHSEED="0")


def run_pass(wl, inputs_dir: str, pass_dir: str, index: int, trace: bool,
             timeout: float) -> dict | None:
    """Run one pass in a child; return its record, or None if it died."""
    spec_path = os.path.join(pass_dir, f"pass{index}.spec.json")
    result_path = os.path.join(pass_dir, f"pass{index}.result.json")
    spec = {
        "workdir": inputs_dir,
        "inputs": sorted(os.listdir(inputs_dir)),
        "tasks": [[t.name, list(t.argv)] for t in wl.tasks],
        "trace": trace,
        "result": result_path,
    }
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, spec_path, repr(spawned)],
            cwd=inputs_dir, env=child_env(), stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        sys.stderr.write(proc.stderr[-4000:])
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def task_failures(wl, record: dict | None) -> list[dict]:
    """The tasks of a pass that failed, with what was wrong."""
    if record is None:
        return [{"task": t.name, "problems": ["the pass died"]} for t in wl.tasks]
    out = []
    for task, res in zip(wl.tasks, record["tasks"]):
        if res["error"] is not None:
            problems = ["raised " + res["error"].strip().splitlines()[-1]]
        else:
            problems = task.check(res["stdout"])
            if res["exit_code"] != task.exit_code:
                said = res["stderr"].strip().splitlines()[-1:] or [""]
                problems.insert(
                    0, f"exit code {res['exit_code']}, expected {task.exit_code} {said[0]}".rstrip()
                )
        if problems:
            out.append({"task": task.name, "problems": problems[:5]})
    return out


def output_mismatches(wl, plain: dict | None, traced: dict | None) -> list[dict]:
    """Tasks whose traced stdout is not byte-identical to the untraced one."""
    if plain is None or traced is None:
        return []
    return [
        {"task": t.name, "problems": ["traced output differs from untraced output"]}
        for t, a, b in zip(wl.tasks, plain["tasks"], traced["tasks"])
        if a["stdout"] != b["stdout"]
    ]


def counts_of(record: dict) -> dict:
    """The parts of a traced pass that must repeat exactly."""
    units = dict(PER_LAYER)
    layers = {k: v for k, v in record["layers"].items() if units[k] in ("count", "ratio")}
    return {"layers": layers, "sizes": record["sizes"]}


def measure(wl, run_dir: str, seconds: int, trace: bool, started: float) -> dict:
    inputs_dir = os.path.join(run_dir, "inputs")
    pass_dir = os.path.join(run_dir, "passes")
    os.makedirs(pass_dir)

    empty = workloads.Workload(wl.name, wl.seed, (), wl.inputs)
    setups = []
    for index in range(SETUP_PROBES):
        probe = run_pass(empty, inputs_dir, pass_dir, index, False, TIME_LIMIT_S)
        if probe is None:
            raise SetupError("ssetkit could not be imported from src/")
        if index:
            setups.append(probe["setup_s"])

    plain, traced, failures = [], [], []
    begin = time.monotonic()
    longest = 0.0
    index = SETUP_PROBES
    while True:
        round_start = time.monotonic()
        left = started + TIME_LIMIT_S - round_start
        rec = run_pass(wl, inputs_dir, pass_dir, index, False, left)
        plain.append(rec)
        failures.append(task_failures(wl, rec))
        if trace:
            left = started + TIME_LIMIT_S - time.monotonic()
            trec = run_pass(wl, inputs_dir, pass_dir, index + 1, True, left)
            problems = task_failures(wl, trec) + output_mismatches(wl, rec, trec)
            first = next((r for r in traced if r is not None), None)
            if trec is not None and first is not None and counts_of(trec) != counts_of(first):
                problems.append({"task": "*", "problems": ["traced counts differ between passes"]})
            traced.append(trec)
            failures.append(problems)
        index += 2
        now = time.monotonic()
        longest = max(longest, now - round_start)
        if now + longest > min(begin + seconds, started + TIME_LIMIT_S):
            break
    return {"plain": plain, "traced": traced, "failures": failures, "setups": setups}


def summarize(wl, runs: dict, trace: bool) -> tuple[dict, dict]:
    """The result object and the detail record of a run."""
    plain = [r for r in runs["plain"] if r is not None]
    attempted = len(wl.tasks) * len(runs["failures"])
    failed = sum(min(len(f), len(wl.tasks)) for f in runs["failures"])
    detail = {
        "workload": wl.name,
        "seed": wl.seed,
        "inputs": wl.inputs,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": [f for f in runs["failures"] if f],
        "passes": [
            {m: r[m] for m, _ in PASS_FIGURES} for r in plain
        ],
        "probe_setups": runs["setups"],
        "end_to_end": {
            m: quartiles([r[m] for r in plain] + (runs["setups"] if m == "setup_s" else []))
            for m, _ in PASS_FIGURES
        } if plain else {},
    }
    metrics = {}
    if not trace and plain:
        metrics = {
            m: {"value": detail["end_to_end"][m]["median"], "unit": unit}
            for m, unit in END_TO_END
        }
    traced = [r for r in runs["traced"] if r is not None]
    if trace and traced and plain:
        first = counts_of(traced[0])
        for name, unit in PER_LAYER:
            if name == "trace.overhead_ratio":
                value = (
                    statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in plain)
                )
            elif unit == "s":
                value = statistics.median(r["layers"][name] for r in traced)
            else:
                value = first["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
        detail["sizes"] = first["sizes"]
        detail["layers"] = {k: v["value"] for k, v in metrics.items()}
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


def write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ssetkit", "cli.py")):
        print("perfbench: no ssetkit source under src/", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(OUT, "work"))
    try:
        inputs_dir = os.path.join(run_dir, "inputs")
        os.makedirs(inputs_dir)
        wl = workloads.make_workload(args.workload, args.seed, inputs_dir)
        runs = measure(wl, run_dir, args.seconds, bool(args.trace), started)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result, detail = summarize(wl, runs, bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_json(os.path.join(OUT, "results", tag + ".json"), detail)
    if args.trace:
        write_json(os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.json"), {
            "sizes": detail.get("sizes"),
            "spans": [
                [i, *span] for i, r in enumerate(runs["traced"]) if r is not None
                for span in r["spans"]
            ],
        })
    print(f"perfbench {tag}: inputs {json.dumps(wl.inputs, sort_keys=True)}")
    for name, q in detail["end_to_end"].items():
        print(f"  {name}: median {q['median']:.6g} q1 {q['q1']:.6g} q3 {q['q3']:.6g} n {q['n']}")
    print(f"  fail_ratio: {detail['fail_ratio']:.6g} ({result['failed']}/{result['attempted']})")
    for f in detail["failures"][:3]:
        print(f"  failed: {json.dumps(f)[:300]}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
