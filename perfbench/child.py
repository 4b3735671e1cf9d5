"""One pass of a workload, in a fresh interpreter.

Usage: ``python3 child.py SPEC.json SPAWN_TIME``.  SPEC names the work
directory, the input files, the task command lines, whether to trace, and
where to write the result.  SPAWN_TIME is the parent's ``time.monotonic()``
just before it started this process; set-up time runs from there to the
point where ``ssetkit.cli`` is imported and the inputs are read.

Every task runs through ``ssetkit.cli.main`` with its output captured.  A
task that raises is recorded as failed and the pass goes on.

The speed of a shared machine swings by a quarter within minutes, with
other tenants' load.  So an untraced pass also samples the speed: a timer
signal every ``SAMPLE_PERIOD_S`` of wall time runs a fixed pure-Python
reference kernel between two bytecodes of the task and times it.  The
tasks' wall and CPU seconds, less the time of those samples, are
``wall_s`` and ``cpu_s``; divided by the mean sample time they are
``wall_ref`` and ``cpu_ref``, the pass's time in units of the reference
kernel run at the same moments, which the machine's swings move far less.
"""

import io
import json
import os
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SAMPLE_PERIOD_S = 0.05


def reference_kernel() -> tuple:
    """Fixed pure-Python work of the kind ssetkit spends its time on: an
    exact integer matrix product over tuples, as in ``IntMat.__matmul__``.
    It takes a few milliseconds."""
    n = 32
    a = tuple(tuple((3 * i + 5 * j) % 7 - 3 for j in range(n)) for i in range(n))
    cols = tuple(zip(*a))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


class SpeedSampler:
    """While on, times ``reference_kernel`` from a ``SIGALRM`` handler
    every ``SAMPLE_PERIOD_S`` seconds (the first at once), and keeps the
    wall and CPU seconds of each sample and their running totals."""

    def __init__(self):
        self.walls, self.cpus = [], []
        self.spent_wall = self.spent_cpu = 0.0

    def _sample(self, signum, frame):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference_kernel()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.spent_wall += wall
        self.spent_cpu += cpu

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, 0.001, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def run_tasks(main, tasks, tracer=None, sampler=None):
    """Run each ``(name, argv)`` through ``main``; return the per-task
    records and the wall and CPU seconds of all tasks, less the time that
    ``sampler`` (if given, and on) spent in the tasks."""
    results = []
    real_out, real_err = sys.stdout, sys.stderr
    for name, argv in tasks:
        out, err = io.StringIO(), io.StringIO()
        exit_code, error = None, None
        if tracer is not None:
            tracer.begin_task(name)
        spent0 = (sampler.spent_wall, sampler.spent_cpu) if sampler else (0.0, 0.0)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        sys.stdout, sys.stderr = out, err
        try:
            exit_code = main(list(argv))
        except Exception:  # a task that raises fails; the pass carries on
            import traceback

            error = traceback.format_exc()
        finally:
            sys.stdout, sys.stderr = real_out, real_err
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if sampler is not None:
                wall -= sampler.spent_wall - spent0[0]
                cpu -= sampler.spent_cpu - spent0[1]
            if tracer is not None:
                tracer.end_task()
        results.append({
            "name": name,
            "wall_s": wall,
            "cpu_s": cpu,
            "exit_code": exit_code,
            "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:],
            "error": error,
        })
    return (
        results,
        sum(r["wall_s"] for r in results),
        sum(r["cpu_s"] for r in results),
    )


def main() -> int:
    spec_path, spawned = sys.argv[1], float(sys.argv[2])
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(spec["workdir"])
    from ssetkit.cli import main as cli_main

    for name in spec["inputs"]:
        with open(name, "rb") as fh:
            fh.read()
    setup = time.monotonic() - spawned

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            results, wall, cpu = run_tasks(cli_main, spec["tasks"], tracer)
        finally:
            tracer.restore()
    else:
        with SpeedSampler() as sampler:
            results, wall, cpu = run_tasks(cli_main, spec["tasks"], sampler=sampler)

    import resource

    record = {
        "setup_s": setup,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tasks": results,
    }
    if tracer is None and sampler.walls:
        record["wall_ref"] = wall / statistics.mean(sampler.walls)
        record["cpu_ref"] = cpu / statistics.mean(sampler.cpus)
        record["speed_samples"] = len(sampler.walls)
    if tracer is not None:
        record["layers"] = tracer.metrics(wall)
        record["sizes"] = tracer.sizes
        record["spans"] = tracer.spans
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
