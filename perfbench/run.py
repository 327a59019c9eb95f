"""Benchmark entry point.

    python3 perfbench/run.py --workload {solve-large,oracle-small,cli-verify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory, nothing is installed.  The driver starts one process per
workload, so the workload runs in this fresh process after the fresh imports
are timed; at most two processes are busy at any time (this one and one
``lglab`` process in ``cli-verify``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3  # fresh imports per run; setup_s is their median
TRACED_IMPORT_REPEATS = 3

UNITS = {"_s": "s", "_mb": "MB", "_share": "ratio"}


def fresh_import_s(module: str) -> float:
    """Wall time of a fresh interpreter that imports ``module`` and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t = perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env, cwd=ROOT, check=True)
    return perf_counter() - t


def median_import_s(module: str, repeats: int) -> float:
    return statistics.median(fresh_import_s(module) for _ in range(repeats))


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_pass(ops, tracer=None):
    """Time each operation back to back; outputs are checked afterwards."""
    times, outs = [], []
    start = perf_counter()
    for k, op in enumerate(ops):
        t = perf_counter()
        try:
            out = (tracer.run_op(k, op.run) if tracer else op.run()), None
        except Exception:
            out = None, traceback.format_exc(limit=3)
        times.append(perf_counter() - t)
        outs.append(out)
    return perf_counter() - start, times, outs


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.problems = []

    def check(self, ops, outs) -> None:
        from workloads import OpError

        for op, (out, error) in zip(ops, outs):
            self.attempted += 1
            if error is None:
                try:
                    found = op.check(out)
                except OpError as exc:
                    error = str(exc)
                else:
                    if found:
                        self.wrong += 1
                        error = "; ".join(found)
            if error is not None:
                self.failed += 1
                self.problems.append(f"{op.label}: {error.strip()}")


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run the workload; return its metrics and the tally of its checks."""
    import workloads

    if workload == "solve-large":
        ops = workloads.solve_large(seed)
    elif workload == "oracle-small":
        ops = workloads.oracle_small(seed)
    else:
        cli = workloads.InProcessCli() if trace else workloads.SubprocessCli(SRC)
        ops = workloads.cli_verify(seed, workdir, cli)

    tally = Tally()
    if not trace:
        # whole passes while the next one is expected to end within --seconds
        walls, times = [], []
        while not walls or sum(walls) + statistics.median(walls) <= seconds:
            wall, t, outs = run_pass(ops)
            walls.append(wall)
            times.append(t)
            tally.check(ops, outs)
        # cli-verify runs the program in child processes; the largest of them
        # is its peak (the import-timing children are smaller)
        who = resource.RUSAGE_CHILDREN if workload == "cli-verify" else resource.RUSAGE_SELF
        return {
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(x for t in times for x in t),
            "peak_rss_mb": peak_rss_mb(who),
        }, tally

    from tracer import Tracer

    plain, _, outs = run_pass(ops)
    tally.check(ops, outs)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, outs = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    tally.check(ops, outs)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.json")
    m = tracer.metrics()
    layers = sum(v for k, v in m.items() if k.endswith(".self_s") and not k.startswith("bench."))
    m.update({
        "trace.wall_s": traced,
        "trace.untraced_wall_s": plain,
        "trace.overhead_s": traced - plain,
        "trace.layer_share": layers / traced,
    })
    return m, tally


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["solve-large", "oracle-small", "cli-verify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must be non-negative")
    if not (SRC / "lglab" / "__init__.py").is_file():
        print(f"no lglab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if a.trace:
        metrics = {
            "cli.import_s": median_import_s("lglab", TRACED_IMPORT_REPEATS),
            "cli.import_scipy_s": median_import_s("scipy.stats", TRACED_IMPORT_REPEATS),
        }
    else:
        metrics = {"setup_s": median_import_s("lglab", SETUP_REPEATS)}

    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measured, tally = measure(a.workload, a.seed, a.seconds, bool(a.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics.update(measured)
    for line in tally.problems[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
