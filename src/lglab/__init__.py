"""Exact geometric solver for least gradient functions on the unit disk.

Boundary data are piecewise constant functions on the circle; solutions are
built from non-crossing chord systems whose level sets can be reasoned about
exactly.  The package provides the boundary-data model, the binary and
multi-level solvers, verification scenarios, and a small CLI.
"""

from importlib import import_module

from .circle_geometry import (
    Angle,
    Arc,
    DomainError,
    NestednessError,
    chord_length,
    segment_area,
)
from .boundary_data import (
    CantorStage,
    DiscreteConvolution,
    PiecewiseConstantBoundary,
    build_fn,
    build_gn,
    cantor_measure_limit,
    cantor_stage,
    eta_minus,
    eta_plus,
    quantize,
)
from .chord_solver import (
    ChordConfiguration,
    Transition,
    enumerate_optimal,
    region_subset,
    solve_binary,
    transitions_of,
)

# The scenario drivers (analysis) and the multi-level solutions and traces
# (level_stack) load on first use of one of their names (PEP 562): `import
# lglab` loads neither, nor numpy or dataclasses, and generating, solving or
# tracing small data loads no numpy.  The CLI's seed and exception types live
# here and in circle_geometry.  With PYTHONDONTWRITEBYTECODE=1 a fresh process
# compiles each module from source: about 5 ms (analysis) and 4 ms
# (level_stack) of self time against 18 ms for all of `import lglab`
# (-X importtime, medians of 8 runs, Python 3.11, 2 vCPUs).
_LAZY = {
    "level_stack": (
        "L1Estimate", "LevelSetStack", "LevelSlice", "TraceEstimate", "bv_energy", "disk_samples",
        "l1_distance", "solve_general", "trace",
    ),
    "analysis": (
        "ScenarioReport", "Verdict", "cantor_nonexistence_demo", "collect_trace_points",
        "minmax_check", "monotone_pipeline", "nonlin_demo", "nonlocality_demo", "oracle_check",
        "sin_meanval_check", "trapezoid_check",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


__version__ = "0.1.0"
DEFAULT_SEED = 0xC0FFEE  # the CLI's --seed and the seeded samplers' default

__all__ = [
    "Angle",
    "Arc",
    "CantorStage",
    "ChordConfiguration",
    "DEFAULT_SEED",
    "DiscreteConvolution",
    "DomainError",
    "L1Estimate",
    "LevelSetStack",
    "LevelSlice",
    "NestednessError",
    "PiecewiseConstantBoundary",
    "ScenarioReport",
    "TraceEstimate",
    "Transition",
    "Verdict",
    "build_fn",
    "build_gn",
    "bv_energy",
    "cantor_measure_limit",
    "cantor_nonexistence_demo",
    "cantor_stage",
    "chord_length",
    "collect_trace_points",
    "disk_samples",
    "enumerate_optimal",
    "eta_minus",
    "eta_plus",
    "l1_distance",
    "minmax_check",
    "monotone_pipeline",
    "nonlin_demo",
    "nonlocality_demo",
    "oracle_check",
    "quantize",
    "region_subset",
    "segment_area",
    "sin_meanval_check",
    "solve_binary",
    "solve_general",
    "trace",
    "transitions_of",
    "trapezoid_check",
    "__version__",
]
