"""Command-line surface: generate boundary data, solve, verify, trace.

Reports are JSON with sorted keys and compact separators, doubles rendered
as 17-significant-digit strings and exact rationals as "p/q", so identical
inputs (including seeds) produce byte-identical output.  SVG renderings are
documentation, never a source of truth.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from numbers import Integral
from typing import TYPE_CHECKING, List, Optional

from . import DEFAULT_SEED, __version__
from .circle_geometry import Angle, Arc, DomainError, NestednessError
from .boundary_data import PiecewiseConstantBoundary, build_fn, build_gn, opposite_caps
from .chord_solver import ChordConfiguration, solve_binary

if TYPE_CHECKING:  # imported by the commands that need them
    from . import analysis


def _fmt(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):  # data near the float range can overflow a result
        raise DomainError(f"a reported number is not finite: {x}")
    return format(x, ".17g")


def _json_value(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, Integral):
        return int(v)
    if isinstance(v, float):
        return _fmt(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _json_value(x) for k, x in v.items()}
    return str(v)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _loads(text: str):
    """``json.loads``, with JSON nested too deeply for the parser as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _error(exc: Exception) -> int:
    """Print the JSON diagnostic for a rejected input; the exit code is 1."""
    sys.stderr.write(_dump({"error": type(exc).__name__, "message": str(exc)}))
    return 1


def _report_dict(rep: analysis.ScenarioReport, seed: int) -> dict:
    return {
        "scenario": rep.scenario,
        "seed": seed,
        "version": __version__,
        "details": _json_value(rep.details),
        "verdicts": [
            {
                "name": v.name,
                "value": _json_value(v.value),
                "tolerance": None if v.tolerance is None else _fmt(v.tolerance),
                "pass": bool(v.passed),
            }
            for v in rep.verdicts
        ],
    }


def _merge_reports(name: str, parts: List[analysis.ScenarioReport]) -> analysis.ScenarioReport:
    from . import analysis

    merged = analysis.ScenarioReport(name)
    for part in parts:
        for v in part.verdicts:
            merged.add(f"{part.scenario}: {v.name}", v.value, v.tolerance, v.passed)
        merged.details[part.scenario] = part.details
    return merged


# ---------------------------------------------------------------------------
# generate

def cmd_generate(args) -> int:
    kind = args.spec[0]
    if kind in ("cantor-fn", "cantor-gn"):
        if len(args.spec) != 2 or not args.spec[1].isdecimal():
            print(f"usage: generate {kind} <stage>", file=sys.stderr)
            return 2
        n = int(args.spec[1])
        try:
            data = build_fn(n) if kind == "cantor-fn" else build_gn(n)
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif kind == "notconverge":
        data = opposite_caps()
    elif kind == "arcs":
        if len(args.spec) != 2:
            print("usage: generate arcs '<json list of [start, end]>'", file=sys.stderr)
            return 2
        try:
            raw = _loads(args.spec[1])
            if not isinstance(raw, list):
                raise ValueError("expected a JSON list")
            arcs = [Arc(Angle.of_radians(float(s)), Angle.of_radians(float(e))) for s, e in raw]
            data = PiecewiseConstantBoundary.from_arcs(arcs, 1.0, 0.0)
        except (ValueError, TypeError, OverflowError) as exc:
            print(f"error: malformed arcs spec: {exc}", file=sys.stderr)
            return 2
    else:
        print(f"error: unknown generator {kind!r}", file=sys.stderr)
        return 2
    _write(_dump(data.to_json_dict()), args.out)
    return 0


# ---------------------------------------------------------------------------
# solve

def _load_data(path: str) -> PiecewiseConstantBoundary:
    with open(path) as fh:
        return PiecewiseConstantBoundary.from_json_dict(_loads(fh.read()))


def _config_dict(cfg: ChordConfiguration) -> dict:
    return {
        "energy": _fmt(cfg.energy),
        "label_area": _fmt(cfg.label_area),
        "matching": [[int(i), int(j)] for i, j in cfg.matching],
        "base_value": cfg.base_value,
        "transition_angles": [_fmt(bp.radians) for bp in cfg.data.breakpoints],
    }


def cmd_solve(args) -> int:
    data = _load_data(args.input)
    if data.is_binary:
        solution = solve_binary(data, args.mode)
        report = {"mode": args.mode, "kind": "binary", **_config_dict(solution)}
    else:
        from .level_stack import bv_energy, solve_general

        solution = solve_general(data, args.mode)
        report = {
            "mode": args.mode,
            "kind": "stack",
            "bv_energy": _fmt(bv_energy(solution)),
            "values": [_fmt(v) for v in solution.values],
            "levels": [
                {"threshold": _fmt(sl.threshold), "gap": _fmt(sl.gap), **_config_dict(sl.config)}
                for sl in solution.slices
            ],
        }
    if args.render:
        _write(render_svg(data, solution), args.render)
    _write(_dump(report), args.out)
    return 0


# ---------------------------------------------------------------------------
# SVG rendering

_SIZE = 1000
_CX = _CY = 500
_R = 450
_ARC_PALETTE = ["#7570b3", "#d95f02", "#1b9e77", "#e7298a", "#66a61e", "#e6ab02"]
_CHORD_COLOR = "#333333"
_FILL = "#d95f02"


def _xy(angle_rad: float):
    return _CX + _R * math.cos(angle_rad), _CY - _R * math.sin(angle_rad)


def _arc_path_to(a: float, b: float) -> str:
    """SVG arc continuation from the point at angle a ccw to angle b."""
    meas = (b - a) % math.tau
    large = 1 if meas > math.pi else 0
    x, y = _xy(b)
    return f"A {_R} {_R} 0 {large} 0 {x:.3f} {y:.3f}"


def _render_config(cfg: ChordConfiguration, opacity: float = 0.35) -> List[str]:
    """The label-1 region as one even-odd path, then the chords.  The path
    has the segment on the arc side of every chord and, when the base value
    is 1, the disk as two half-disks.  Segments of non-crossing chords nest,
    so a point is filled when the base value plus the number of segments
    holding it is odd: the label ``evaluate_points`` gives it."""
    u = [bp.radians for bp in cfg.data.breakpoints]
    spans = [(u[i], u[j]) for i, j in cfg.matching] + [(0.0, math.pi), (math.pi, 0.0)] * cfg.base_value
    d = []
    for a, b in spans:
        x, y = _xy(a)
        d.append(f"M {x:.3f} {y:.3f} {_arc_path_to(a, b)} Z")
    parts = [
        f'<path d="{" ".join(d)}" fill="{_FILL}" fill-opacity="{opacity:.3f}" fill-rule="evenodd" stroke="none"/>'
    ]
    for i, j in cfg.matching:
        xa, ya = _xy(u[i])
        xb, yb = _xy(u[j])
        parts.append(
            f'<line x1="{xa:.3f}" y1="{ya:.3f}" x2="{xb:.3f}" y2="{yb:.3f}" '
            f'stroke="{_CHORD_COLOR}" stroke-width="3"/>'
        )
    return parts


def render_svg(data: PiecewiseConstantBoundary, solution) -> str:
    """Unit circle, data arcs colored by value, chords, shaded level regions."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    if not isinstance(solution, ChordConfiguration):  # a LevelSetStack
        n = max(len(solution.slices), 1)
        for sl in solution.slices:
            parts.extend(_render_config(sl.config, opacity=0.7 / n))
    else:
        parts.extend(_render_config(solution))
    parts.append(
        f'<circle cx="{_CX}" cy="{_CY}" r="{_R}" fill="none" stroke="black" stroke-width="2"/>'
    )
    values = sorted(set(data.values))
    color_of = {v: _ARC_PALETTE[i % len(_ARC_PALETTE)] for i, v in enumerate(values)}
    if not data.is_constant:
        bps = [bp.normalized().radians for bp in data.breakpoints]
        for i, v in enumerate(data.values):
            a = bps[i]
            b = bps[(i + 1) % len(bps)]
            xa, ya = _xy(a)
            parts.append(
                f'<path d="M {xa:.3f} {ya:.3f} {_arc_path_to(a, b)}" fill="none" '
                f'stroke="{color_of[v]}" stroke-width="8"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# verify

def _suite_monotone() -> analysis.ScenarioReport:
    from . import analysis

    fixed = PiecewiseConstantBoundary(
        [
            Angle(Fraction(1, 4), 0),
            Angle(Fraction(3, 4), 0),
            Angle(Fraction(9, 8), 0),
            Angle(Fraction(7, 4), 0),
        ],
        [1.0, 0.0, 1.0, 0.0],
    )
    rep_a = analysis.monotone_pipeline(fixed, 5)
    rep_a.scenario = "fixed-arcs"
    rep_b = analysis.monotone_pipeline(opposite_caps(), 5)
    rep_b.scenario = "opposite-caps"
    return _merge_reports("monotone", [rep_a, rep_b])


def cmd_verify(args) -> int:
    from . import analysis

    suites = {
        "nonexistence": lambda: analysis.cantor_nonexistence_demo(8),
        "nonlinearity": lambda: analysis.nonlin_demo(8),
        "nonlocality": lambda: analysis.nonlocality_demo(1, 1),
        "monotone": _suite_monotone,
        "inequalities": lambda: _merge_reports(
            "inequalities",
            [analysis.trapezoid_check(10), analysis.sin_meanval_check(range(6, 21), Fraction(1, 4))],
        ),
        "oracle": lambda: analysis.oracle_check(200, seed=args.seed),
    }
    rep = suites[args.suite]()
    _write(_dump(_report_dict(rep, args.seed)), args.out)
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# trace

def cmd_trace(args) -> int:
    from .level_stack import solve_general, trace

    est = trace(solve_general(_load_data(args.input)), args.angle, r0=args.r0, levels=args.levels)
    report = {
        "point": _fmt(est.point),
        "radii": [_fmt(r) for r in est.radii],
        "averages": [_fmt(a) for a in est.averages],
        # the averages are exact: no standard error, no starved radius; both
        # keys stay so that readers of the report find every key
        "stderrs": [_fmt(0.0)] * len(est.radii),
        "limit": _fmt(est.limit),
        "residual": _fmt(est.residual),
        "starved": False,
        "seed": args.seed,
        "version": __version__,
    }
    _write(_dump(report), args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    # a token float() reads, such as -1e-3 or -inf, is a value: argparse alone
    # reads only -N and -N.N as negative numbers, and the rest as options
    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="lglab", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"lglab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write boundary data JSON")
    g.add_argument("spec", nargs="+", help="cantor-fn N | cantor-gn N | arcs JSON | notconverge")
    g.add_argument("--out", default=None)
    g.set_defaults(fn=cmd_generate)

    s = sub.add_parser("solve", help="solve boundary data from JSON")
    s.add_argument("input")
    s.add_argument("--mode", choices=["minimal", "maximal"], default="minimal")
    s.add_argument("--render", default=None, metavar="FILE.svg")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_solve)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument(
        "suite",
        choices=["nonexistence", "nonlinearity", "nonlocality", "monotone", "inequalities", "oracle"],
    )
    v.add_argument("--out", default=None)
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.set_defaults(fn=cmd_verify)

    t = sub.add_parser("trace", help="boundary trace of the solved data at an angle")
    t.add_argument("input")
    t.add_argument("angle", type=float)
    t.add_argument("--r0", type=float, default=1e-3)
    t.add_argument("--levels", type=int, default=4)
    t.add_argument("--seed", type=int, default=DEFAULT_SEED)
    t.add_argument("--out", default=None)
    t.set_defaults(fn=cmd_trace)
    return p


def main(argv=None) -> int:
    """Run one command; every rejected input ends here, as the exit-1 JSON diagnostic."""
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise DomainError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.fn(args)
    except (ValueError, NestednessError, OSError) as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
