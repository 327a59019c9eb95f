"""The three workloads: seeded inputs, the operations run on them, and the
check that judges each operation's output.

An operation is one timed call into the program.  Its check runs after the
timed pass and returns a list of problems (empty when the answer holds); it
raises ``OpError`` when the program did not produce an answer at all.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from io import StringIO
from itertools import zip_longest
from pathlib import Path
from typing import Callable, List, Sequence

import checks
from checks import BinaryInstance, LevelInstance


class OpError(Exception):
    """The program refused or failed to run an operation."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]


def _lglab():
    import lglab

    return lglab


# ---------------------------------------------------------------------------
# solve-large: the O(m^3) interval DP on large instances

def _load_and_solve(text: str, mode: str):
    lg = _lglab()
    data = lg.PiecewiseConstantBoundary.from_json_dict(json.loads(text))
    return lg.solve_binary(data, mode)


def _load_and_stack(text: str):
    lg = _lglab()
    data = lg.PiecewiseConstantBoundary.from_json_dict(json.loads(text))
    stack = lg.solve_general(data, "minimal")
    return stack, lg.bv_energy(stack)


def _random_levels(rng: random.Random, m: int, q: int, levels: Sequence[float]) -> LevelInstance:
    ks = sorted(rng.sample(range(2 * q), m))
    vals = [rng.choice(levels)]
    for i in range(1, m):
        banned = {vals[-1], vals[0]} if i == m - 1 else {vals[-1]}
        vals.append(rng.choice([v for v in levels if v not in banned]))
    return LevelInstance(tuple((Fraction(k, q), Fraction(0)) for k in ks), tuple(vals))


BOTH = ("minimal", "maximal")
MIN = ("minimal",)


def solve_large(seed: int, small: bool = False) -> List[Op]:
    """Cantor stages gn(6), fn(6), gn(7), fn(7) and gn(8) (510 transitions);
    four seeded lattice instances of 200 transitions in both modes; one
    multi-level lattice instance of 120 breakpoints and 4 values through
    solve_general.

    The Cantor optimum is unique, so maximal mode would repeat the same DP
    work for the same answer; the stages run minimal mode only, which keeps
    one pass near 35 s on a 2-vCPU box (gn(8) alone takes 17-24 s there).
    Three operations are cheaper and three dearer than the eight lattice
    operations, which cost the same, so op_p50_s is the middle of those
    eight and does not jump between instances of different sizes.  The
    lattice operations come in pairs between the Cantor ones, so op_p50_s
    samples the whole pass as wall_s does."""
    rng = random.Random(seed)
    if small:
        cantor = [("gn", 3, BOTH), ("fn", 3, BOTH)]
        lattices = [(20, 64)]
        levels_m = 24
    else:
        cantor = [("gn", 6, MIN), ("gn", 7, MIN), ("gn", 8, MIN), ("fn", 7, MIN), ("fn", 6, MIN)]
        lattices = [(200, 2048), (200, 4096), (200, 2048), (200, 4096)]
        levels_m = 120
    stages, lattice_ops = [], []
    for family, n, modes in cantor:
        inst = checks.cantor_instance(n, family)
        text = json.dumps(inst.to_json_dict())
        for mode in modes:
            stages.append(Op(f"{family}({n}) {mode}", partial(_load_and_solve, text, mode),
                             partial(checks.cantor_problems, inst, n, family)))
    for k, (m, q) in enumerate(lattices):
        inst = checks.lattice_instance(sorted(rng.sample(range(2 * q), m)), q, rng.random() < 0.5)
        text = json.dumps(inst.to_json_dict())
        for mode in BOTH:
            lattice_ops.append(Op(f"lattice#{k} {m}/pi/{q} {mode}", partial(_load_and_solve, text, mode),
                                  partial(checks.config_problems, inst)))
    pairs = [lattice_ops[i:i + 2] for i in range(0, len(lattice_ops), 2)]
    ops = [op for stage, pair in zip_longest(stages, pairs, fillvalue=[])
           for op in [stage, *pair] if op]
    inst = _random_levels(rng, levels_m, 2048, (0.0, 1.0, 2.5, 4.0))
    ops.append(Op(f"levels {levels_m}", partial(_load_and_stack, json.dumps(inst.to_json_dict())),
                  lambda out, inst=inst: checks.stack_problems(inst, *out)))
    return ops


# ---------------------------------------------------------------------------
# oracle-small: exhaustive enumeration and both DP modes on small instances

# transitions -> instances per pass.  The counts put the median operation in
# the middle of the 8-transition class, so op_p50_s does not jump between
# size classes from run to run.
ORACLE_SIZES = {2: 3, 4: 3, 6: 3, 8: 5, 10: 4, 12: 3, 14: 1, 16: 1}
ORACLE_SIZES_SMALL = {2: 2, 4: 2, 6: 2, 8: 1}
# Coarse regular lattices give many energy ties; pi/2048 gives few.  The
# instances of one size take these in turn (those with at least n points),
# so every seed has the same mix of lattices and only the positions vary.
ORACLE_LATTICES = (4, 6, 8, 12, 2048)


def _enumerate_and_solve(ks: Sequence[int], q: int, first_rising: bool):
    lg = _lglab()
    bps = [lg.Angle(Fraction(k, q)) for k in ks]
    vals = [1.0 if (i % 2 == 0) == first_rising else 0.0 for i in range(len(ks))]
    data = lg.PiecewiseConstantBoundary(bps, vals)
    return lg.enumerate_optimal(data), lg.solve_binary(data, "minimal"), lg.solve_binary(data, "maximal")


def oracle_small(seed: int, small: bool = False) -> List[Op]:
    """The sizes take turns in the pass, and the single 16- and 14-transition
    instances sit at its thirds, so the 8-transition operations that
    op_p50_s falls among are spread over the whole pass."""
    rng = random.Random(seed)
    classes = []
    for n, count in (ORACLE_SIZES_SMALL if small else ORACLE_SIZES).items():
        lattices = [q for q in ORACLE_LATTICES if 2 * q >= n]
        classes.append([])
        for i in range(count):
            q = lattices[i % len(lattices)]
            ks = sorted(rng.sample(range(2 * q), n))
            first_rising = rng.random() < 0.5
            inst = checks.lattice_instance(ks, q, first_rising)
            classes[-1].append(Op(f"{n} on pi/{q} #{i}", partial(_enumerate_and_solve, ks, q, first_rising),
                                  lambda out, inst=inst: checks.enumeration_problems(inst, *out)))
    ops = [op for turn in zip_longest(*[c for c in classes if len(c) > 1]) for op in turn if op]
    alone = [c[0] for c in reversed(classes) if len(c) == 1]
    for j, op in enumerate(alone, 1):
        ops.insert(round(j * len(ops) / (len(alone) + 1)), op)
    return ops


# ---------------------------------------------------------------------------
# cli-verify: the lglab command line, one process per call

@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str


# what the installed ``lglab`` console script runs
CLI_SHIM = "import sys; from lglab.cli import main; sys.exit(main())"


class SubprocessCli:
    def __init__(self, src: Path):
        import os

        self.env = dict(os.environ, PYTHONPATH=str(src))

    def __call__(self, argv: Sequence[str]) -> CliResult:
        p = subprocess.run([sys.executable, "-c", CLI_SHIM, *argv], env=self.env,
                           capture_output=True, text=True, timeout=150)
        return CliResult(p.returncode, p.stdout, p.stderr)


class InProcessCli:
    """``lglab.cli.main`` in this process, for the traced run."""

    def __call__(self, argv: Sequence[str]) -> CliResult:
        import lglab.cli

        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = lglab.cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        return CliResult(rc, out.getvalue(), err.getvalue())


def _report(res: CliResult) -> dict:
    try:
        return json.loads(res.stdout)
    except ValueError:
        raise OpError(f"exit {res.rc}, no report: {res.stderr.strip()[-300:]}") from None


def _rc_problems(res: CliResult) -> List[str]:
    return [] if res.rc == 0 else [f"exit code {res.rc}"]


def generate_problems(inst: BinaryInstance, path: Path, res: CliResult) -> List[str]:
    if res.rc != 0:
        raise OpError(f"exit {res.rc}: {res.stderr.strip()[-300:]}")
    d = json.loads(path.read_text())
    got = [(Fraction(p), Fraction(r)) for p, r in d["breakpoints"]]
    vals = [float(v) for v in d["values"]]
    if got != list(inst.angles) or vals != [1.0 if r else 0.0 for r in inst.rising]:
        return ["generated data differs from the definition"]
    return []


def solve_report_problems(inst: BinaryInstance, mode: str, res: CliResult, closed=None) -> List[str]:
    """The energy recomputed from the reported angles and matching must be
    the assignment optimum; ``closed`` adds closed-form checks."""
    rep = _report(res)
    problems = _rc_problems(res)
    if rep.get("kind") != "binary" or rep.get("mode") != mode:
        problems.append("report is not a binary solve in the requested mode")
    u = [float(x) for x in rep["transition_angles"]]
    if len(u) != inst.n or any(abs(a - b) > 1e-12 for a, b in zip(u, inst.u)):
        return problems + ["reported transition angles differ from the data"]
    matching = [tuple(p) for p in rep["matching"]]
    problems += checks.solution_problems(inst, matching, float(rep["energy"]), u)
    if problems:
        return problems
    if closed is not None:
        problems += closed(u, matching, rep)
    return problems


def _fn_closed(n: int, u, matching, rep) -> List[str]:
    out = []
    if [tuple(p) for p in matching] != [(i, i + 1) for i in range(0, len(u), 2)]:
        out.append("matching is not the consecutive pairing")
    if not checks.energy_close(float(rep["energy"]), checks.cantor_energy(n, "fn")):
        out.append("energy differs from the closed form")
    return out


def _caps_closed(mode: str, inst: BinaryInstance, u, matching, rep) -> List[str]:
    """The opposite caps: energy 2*sqrt(2) in both modes, label area
    pi/2 - 1 (minimal) or pi/2 + 1 (maximal)."""
    out = []
    if not checks.energy_close(float(rep["energy"]), 2.0 * math.sqrt(2.0)):
        out.append("energy differs from 2*sqrt(2)")
    want = math.pi / 2 + (1.0 if mode == "maximal" else -1.0)
    area = checks.label_area(u, inst.rising, matching)
    if abs(area - want) > 1e-12 or abs(float(rep["label_area"]) - want) > 1e-12:
        out.append(f"label area {rep['label_area']} differs from {want!r}")
    return out


def trace_problems(value: float, res: CliResult) -> List[str]:
    """Trace theorem: at a continuity point the limit is the data value."""
    rep = _report(res)
    problems = _rc_problems(res)
    if float(rep["limit"]) != value:
        problems.append(f"trace limit {rep['limit']} differs from the data value {value}")
    if rep["starved"]:
        problems.append("trace starved")
    return problems


VERIFY_SCENARIO = {
    "nonexistence": "cantor-nonexistence",
    "nonlinearity": "nonlinearity",
    "nonlocality": "nonlocality",
    "monotone": "monotone",
    "inequalities": "inequalities",
}


def verify_problems(suite: str, seed: int, res: CliResult) -> List[str]:
    rep = _report(res)
    problems = _rc_problems(res)
    if rep.get("scenario") != VERIFY_SCENARIO[suite] or rep.get("seed") != seed:
        problems.append("report names another scenario or seed")
    if not rep.get("verdicts"):
        problems.append("report has no verdicts")
    problems += [f"verdict failed: {v['name']}" for v in rep.get("verdicts", []) if not v["pass"]]
    return problems


# A half-ball of radius r0 = 1e-3 (the CLI default) around a boundary point
# that lies at least DELTA inside its data arc stays on the arc's side of
# every chord, since cos(DELTA) < 1 - r0.  Its trace is exactly the value.
TRACE_DELTA = 0.06


def _continuity_point(rng: random.Random, inst: BinaryInstance, value: bool) -> float:
    u = inst.u
    arcs = [(u[i], (u[(i + 1) % inst.n] - u[i]) % math.tau)
            for i in range(inst.n) if inst.rising[i] == value]
    arcs = [(a, m) for a, m in arcs if m > 2 * TRACE_DELTA]
    a, m = rng.choice(arcs)
    return (a + TRACE_DELTA + rng.random() * (m - 2 * TRACE_DELTA)) % math.tau


CAPS = BinaryInstance(tuple((Fraction(2 * k + 1, 4), Fraction(0)) for k in range(4)),
                      (True, False, True, False))


def cli_verify(seed: int, workdir: Path, cli, small: bool = False) -> List[Op]:
    """generate + solve on Cantor fn(2) and the opposite caps, trace at
    seeded continuity points of both, then five verify suites."""
    rng = random.Random(seed)
    f2 = checks.cantor_instance(2, "fn")
    f2_path, caps_path = workdir / "cantor-fn-2.json", workdir / "caps.json"
    ops = []

    def add(label, argv, check):
        ops.append(Op(label, partial(cli, argv), check))

    if not small:
        add("generate cantor-fn 2", ["generate", "cantor-fn", "2", "--out", str(f2_path)],
            partial(generate_problems, f2, f2_path))
        add("solve cantor-fn 2", ["solve", str(f2_path)],
            partial(solve_report_problems, f2, "minimal", closed=partial(_fn_closed, 2)))
    add("generate notconverge", ["generate", "notconverge", "--out", str(caps_path)],
        partial(generate_problems, CAPS, caps_path))
    for mode in (("maximal",) if small else BOTH):
        add(f"solve caps {mode}", ["solve", str(caps_path), "--mode", mode],
            partial(solve_report_problems, CAPS, mode, closed=partial(_caps_closed, mode, CAPS)))
    traces = [(CAPS, caps_path, True)] if small else [
        (f2, f2_path, True), (f2, f2_path, False), (CAPS, caps_path, True), (CAPS, caps_path, False)]
    for inst, path, value in traces:
        x = _continuity_point(rng, inst, value)
        add(f"trace {path.stem} {x:.4f}", ["trace", str(path), repr(x), "--seed", str(seed)],
            partial(trace_problems, 1.0 if value else 0.0))
    for suite in (("inequalities",) if small else VERIFY_SCENARIO):
        add(f"verify {suite}", ["verify", suite, "--seed", str(seed)],
            partial(verify_problems, suite, seed))
    return ops
