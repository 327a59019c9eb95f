"""Operations that only the tests use, kept out of the ``lglab`` package."""

import math

import numpy as np

from lglab.boundary_data import CantorStage, DiscreteConvolution, PiecewiseConstantBoundary
from lglab.circle_geometry import Angle, Arc, ccw_measure


def arc_contains(arc: Arc, angle: Angle) -> bool:
    """Whether the half-open arc [start, end) holds ``angle``."""
    if arc.start == arc.end:
        return False
    pos = ccw_measure(arc.start, angle)
    return (pos - arc.measure).sign() < 0


def shifted(data: PiecewiseConstantBoundary, c: float) -> PiecewiseConstantBoundary:
    return PiecewiseConstantBoundary(data.breakpoints, [v + c for v in data.values])


def arc_measures(data: PiecewiseConstantBoundary) -> np.ndarray:
    """Float measure of each arc, aligned with ``values``."""
    if data.is_constant:
        return np.array([math.tau])
    r = np.array([b.radians for b in data.breakpoints])
    return np.diff(np.append(r, r[0] + math.tau))


def integral(data: PiecewiseConstantBoundary) -> float:
    return float(np.dot(arc_measures(data), np.asarray(data.values)))


def abs_integral(data: PiecewiseConstantBoundary) -> float:
    return float(np.dot(arc_measures(data), np.abs(data.values)))


def kept_total(stage: CantorStage):
    return stage.kept_arc_measure * 2**stage.n


def partition_sum(conv: DiscreteConvolution, theta: np.ndarray) -> np.ndarray:
    """Sum of the normalized partition of unity (identically 1)."""
    psi, _ = conv._hat_weights(theta)
    s = psi.sum(axis=-1)
    return (psi / s[..., None]).sum(axis=-1)


def convolution_abs_integral(conv: DiscreteConvolution, grid: int = 200_001) -> float:
    th = np.linspace(0.0, math.tau, grid)
    vals = np.abs(conv(th))
    return float(np.trapezoid(vals, th))
