"""Layer benchmark of the solver: ``solve_binary`` on large inputs, the
exhaustive ``enumerate_optimal`` at its 16-transition cap, the data path
in front of them, and the pointwise labels of a solution.

    python3 scripts/bench_solve.py [--tree LABEL=SRC ...] [--out BENCH_solve.json]

Each ``--tree`` names a source directory holding the ``lglab`` package (by
default ``change=src`` of this checkout); give two, for example a checkout of
the parent commit and this one, to compare them.  Every measurement is one
fresh process that builds one instance, then times one call and reads its
peak RSS, so no run inherits another's memory high-water mark.  Each tree
runs each instance ``REPEATS`` times, and the trees take turns going first,
alternating by repeat.  The ``solve_binary`` instances, all in minimal mode,
are ``gn(8)`` (510 transitions), ``gn(9)`` (1022) and seeded subsets of the
pi/4096 lattice with 200, 1000 and 2000 transitions (``latticeM``).  The
``enumerate_optimal`` instances ``enumMqQ`` take M transitions of the pi/Q
lattice: all 16 points of pi/8, where energies tie, and a seeded subset of
pi/2048.  Two instances time the data path: ``load200`` reads the JSON of
the 200-transition lattice with ``from_json_dict`` and builds its
transition view with ``transitions_of``, and ``oracleMqQ`` runs
``enumerate_optimal`` and both ``solve_binary`` modes on one data object of
M points of pi/Q: ``oracle8q12`` (a seeded subset, the median size of the
``oracle-small`` benchmark workload), ``oracle16q8`` (all 16 points) and
``oracle24q12`` (all 24 points, above ``SCALAR_FILL_MAX``, where the
DP takes its numpy fill and enumeration is refused, so only the two solves
run).  ``evalcut6`` times ``evaluate_points`` of the stage-6 cut
configuration (``analysis.cut_config(6)``, 126 transitions) on 200k
``disk_samples``, the sampled labels that ``l1_distance`` reads (``trace``
computes its averages exactly and reads no samples).  ``buildgn11`` times the construction itself: the call is
``build_gn(11)``, the complement datum of Cantor stage 11 with 4094
breakpoints, and its check value is the ``fsum`` of their radians.  The
call is chosen by the instance name.  Seven more instances time a whole
fresh interpreter instead of one call in it: ``import`` runs
``python -c "import lglab"``, ``solvecaps`` runs ``lglab solve`` on the
opposite caps (written once by the first tree's ``lglab generate
notconverge``), ``tracecaps`` runs ``lglab trace`` on them at the
continuity point ``TRACE_ANGLE`` (about pi/2, inside a cap), and
``verifynonlin``, ``verifynonexist``, ``verifynonloc`` and ``verifymono``
run ``lglab verify`` of the suites ``nonlinearity`` (whose limit traces
read the cut configuration of stage 12), ``nonexistence``, ``nonlocality``
and ``monotone``, so each includes the interpreter's start and the package
import.

The first call in each process is cold: it pays first-use costs such as
numpy's call caches and the matching tables, but not numpy's import, which
the child makes before it (the ``import`` instance times that).  The process then builds the
instance afresh, so no fill kept on the first data object is reused, and
times the same call again, warm.

The output file records, per tree and instance, the median and the
interquartile range of the cold (``solve_s``) and warm (``warm_s``) times
and of the peak RSS, or of the process time (``wall_s``) for the seven
process instances, the raw runs, the host, and each tree's ``src/`` line
count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ("lattice200", "gn8", "gn9", "lattice1000", "lattice2000", "enum16q8", "enum16q2048",
             "load200", "buildgn11", "oracle8q12", "oracle16q8", "oracle24q12", "evalcut6", "import", "solvecaps",
             "tracecaps", "verifynonlin", "verifynonexist", "verifynonloc", "verifymono")
PROCESS_INSTANCES = ("import", "solvecaps", "tracecaps", "verifynonlin", "verifynonexist", "verifynonloc",
                     "verifymono")
VERIFY_SUITES = {"verifynonlin": "nonlinearity", "verifynonexist": "nonexistence", "verifynonloc": "nonlocality",
                 "verifymono": "monotone"}
CLI_SHIM = "import sys; from lglab.cli import main; sys.exit(main())"  # the console script
LATTICE_SEED = 20261018
LATTICE_Q = 4096
EVAL_SAMPLES = 200_000
REPEATS = 10
TRACE_ANGLE = "1.5707963"


def build(name: str):
    """The boundary data of one named instance."""
    import random
    from fractions import Fraction

    from lglab.boundary_data import PiecewiseConstantBoundary, build_gn
    from lglab.circle_geometry import Angle

    m, q = re.fullmatch(r"[a-z]+(\d+)(?:q(\d+))?", name).groups()
    if name.startswith(("gn", "evalcut", "buildgn")):
        return build_gn(int(m))
    m, q = int(m), int(q or LATTICE_Q)
    rng = random.Random(LATTICE_SEED + m)
    ks = sorted(rng.sample(range(2 * q), m))
    return PiecewiseConstantBoundary(
        [Angle(Fraction(k, q)) for k in ks], [float(i % 2) for i in range(m)]
    )


def child(name: str) -> None:
    """Build ``name``, run its call once cold, then once more on a freshly
    built data object, and print both times and the cold call's memory as
    JSON with a check value: the energy of the solution or of the first
    optimum, for a load or a construction the ``fsum`` of the breakpoint
    radians, and for an evaluation the number of points labelled 1."""
    import math

    import numpy  # noqa: F401  loaded first, so the cold call times no import

    from lglab.analysis import _consecutive_config
    from lglab.boundary_data import PiecewiseConstantBoundary, build_gn
    from lglab.chord_solver import ENUMERATION_CAP, enumerate_optimal, solve_binary, transitions_of
    from lglab.level_stack import disk_samples

    load = name.startswith("load")
    evaluate = name.startswith("evalcut")
    construct = name.startswith("buildgn")

    def fresh():
        """A new data object, so no fill kept on an earlier one is reused,
        and for a load its JSON document; for an evaluation a new cut
        configuration (consecutive transitions paired, as ``cut_config``
        pairs them) and the sample points; for a construction only the
        stage, since the data is what the call builds."""
        if construct:
            return int(name[len("buildgn"):]), None
        data = build(name)
        if evaluate:
            return _consecutive_config(data), disk_samples(EVAL_SAMPLES)
        return data, json.loads(json.dumps(data.to_json_dict())) if load else None

    def call(data, arg):
        if evaluate:
            return data.evaluate_points(arg)
        if construct:
            return build_gn(data)
        if load:
            data = PiecewiseConstantBoundary.from_json_dict(arg)
            transitions_of(data)  # for its side effect: the view kept on the data
            return data
        if name.startswith("oracle"):
            # above its cap enumeration is refused, and the minimal solve is checked
            enum = enumerate_optimal(data)[0] if len(data.breakpoints) <= ENUMERATION_CAP else None
            cfg = solve_binary(data, "minimal")
            solve_binary(data, "maximal")
            return enum or cfg
        return enumerate_optimal(data)[0] if name.startswith("enum") else solve_binary(data)

    args = fresh()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t = time.perf_counter()
    out = call(*args)
    solve_s = time.perf_counter() - t
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if evaluate:
        transitions, check = len(args[0].transitions), float(out.sum())
    elif load or construct:
        transitions, check = len(out.breakpoints), math.fsum(out._rad)
    else:
        transitions, check = len(out.transitions), out.energy
    args = fresh()
    t = time.perf_counter()
    call(*args)
    warm_s = time.perf_counter() - t
    print(json.dumps({
        "solve_s": solve_s,
        "warm_s": warm_s,
        "peak_rss_mb": peak / 1024.0,
        "solve_rss_mb": (peak - before) / 1024.0,
        "transitions": transitions,
        "energy": check.hex(),
    }))


def run_child(src: Path, name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", name],
        env=env, cwd=ROOT, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def run_process(src: Path, name: str, caps: Path) -> dict:
    """Time one fresh interpreter that imports ``lglab`` (``import``), runs
    ``lglab solve`` or ``lglab trace`` on the caps file (``solvecaps``,
    ``tracecaps``) or runs one ``lglab verify`` suite (``VERIFY_SUITES``);
    the check value is the reported energy, the trace's limit, or the value
    of the last verdict (for ``verifynonlin`` the worst sector average of
    the limit's traces, for ``verifymono`` the word that classifies the
    caps' dilated limit, kept as it is)."""
    if name in VERIFY_SUITES:
        argv = ["-c", CLI_SHIM, "verify", VERIFY_SUITES[name]]
    else:
        argv = {"import": ["-c", "import lglab"], "solvecaps": ["-c", CLI_SHIM, "solve", str(caps)],
                "tracecaps": ["-c", CLI_SHIM, "trace", str(caps), TRACE_ANGLE]}[name]
    env = dict(os.environ, PYTHONPATH=str(src))
    t = time.perf_counter()
    out = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, check=True, capture_output=True, text=True)
    wall_s = time.perf_counter() - t
    if name == "import":
        return {"wall_s": wall_s, "transitions": 0, "energy": None}
    report = json.loads(out.stdout)
    if name in VERIFY_SUITES:
        value = report["verdicts"][-1]["value"]
        return {"wall_s": wall_s, "transitions": 0, "energy": value if name == "verifymono" else float(value).hex()}
    if name == "tracecaps":
        return {"wall_s": wall_s, "transitions": 0, "energy": float(report["limit"]).hex()}
    return {"wall_s": wall_s, "transitions": len(report["transition_angles"]),
            "energy": float(report["energy"]).hex()}


def summary(xs):
    """Median and interquartile range (exclusive quartiles; 0 below 2 runs)."""
    if len(xs) < 2:
        return {"median": xs[0], "iqr": 0.0}
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "iqr": q3 - q1}


def instance_summary(rs) -> dict:
    """One instance's runs on one tree: summaries of every measurement they
    have, the raw times, and the distinct check values."""
    out = {"transitions": rs[0]["transitions"]}
    keys = [k for k in ("solve_s", "warm_s", "wall_s", "peak_rss_mb", "solve_rss_mb") if k in rs[0]]
    out.update({k: summary([x[k] for x in rs]) for k in keys})
    out.update({f"runs_{k}": [round(x[k], 4) for x in rs] for k in keys if k.endswith("_s")})
    out["energy"] = sorted({x["energy"] for x in rs if x["energy"] is not None})
    return out


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((src / "lglab").glob("*.py")))


def host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", metavar="LABEL=SRC",
                    help="a label and the source directory of one tree (repeatable)")
    ap.add_argument("--out", default=str(ROOT / "BENCH_solve.json"))
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(args.child)
        return 0

    trees = [t.split("=", 1) for t in (args.tree or [f"change={ROOT / 'src'}"])]
    runs = {label: {n: [] for n in INSTANCES} for label, _ in trees}
    with tempfile.TemporaryDirectory() as tmp:
        caps = Path(tmp) / "caps.json"
        subprocess.run([sys.executable, "-c", CLI_SHIM, "generate", "notconverge", "--out", str(caps)],
                       env=dict(os.environ, PYTHONPATH=trees[0][1]), check=True)
        for r in range(REPEATS):
            order = trees if r % 2 == 0 else trees[::-1]
            for n in INSTANCES:
                for label, src in order:
                    if n in PROCESS_INSTANCES:
                        res = run_process(Path(src), n, caps)
                        note = f"process {res['wall_s']:.3f} s"
                    else:
                        res = run_child(Path(src), n)
                        note = f"{res['solve_s']:.3f} s, warm {res['warm_s']:.3f} s, {res['peak_rss_mb']:.1f} MB"
                    runs[label][n].append(res)
                    print(f"repeat {r} {n} {label}: {note}", file=sys.stderr, flush=True)

    report = {
        "benchmark": ("solve_binary (minimal mode), enumerate_optimal, a data path or evaluate_points, one cold and "
                      "one warm call per fresh process; or a whole fresh process importing lglab, solving or "
                      "tracing the opposite caps or running one verify suite"),
        "command": "python3 scripts/bench_solve.py " + " ".join(
            f"--tree {label}=<{label} src>" for label, _ in trees),
        "host": host(),
        "repeats": REPEATS,
        "trees": {},
    }
    for label, src in trees:
        report["trees"][label] = {
            "src_lines": src_lines(Path(src)),
            "instances": {n: instance_summary(rs) for n, rs in runs[label].items()},
        }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
