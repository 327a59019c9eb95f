"""Operations that only the tests use, kept out of the ``lglab`` package."""

import math
import random
from fractions import Fraction
from typing import Optional

import numpy as np

from lglab.boundary_data import CantorStage, DiscreteConvolution, PiecewiseConstantBoundary
from lglab.chord_solver import ENERGY_REL_TOL, ChordConfiguration, _all_matchings, transitions_of
from lglab.circle_geometry import (
    Angle,
    Arc,
    ArcEdge,
    Cell,
    ChordEdge,
    DomainError,
    ccw_measure,
    chord_length,
    segment_area,
)


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


def random_arc_union(
    rng: random.Random,
    n_arcs: Optional[int] = None,
    min_len: float = 0.15,
    min_gap: float = 0.12,
    max_tries: int = 1000,
) -> PiecewiseConstantBoundary:
    """Random union-of-arcs indicator with separated, non-degenerate arcs."""
    for _ in range(max_tries):
        n = n_arcs if n_arcs is not None else rng.randint(2, 4)
        ks = sorted(rng.sample(range(4096), 2 * n))
        angles = [Angle(Fraction(k, 2048), 0) for k in ks]
        arcs = [Arc(angles[2 * i], angles[2 * i + 1]) for i in range(n)]
        lens = [a.measure_radians for a in arcs]
        gaps = [
            (b.start.normalized() - a.end.normalized()).normalized().radians
            for a, b in zip(arcs, arcs[1:] + [arcs[0]])
        ]
        if min(lens) >= min_len and min(gaps) >= min_gap:
            return PiecewiseConstantBoundary.from_arcs(arcs, 1.0, 0.0)
    raise RuntimeError("could not draw a well-separated arc union")


# ---------------------------------------------------------------------------
# cell areas: an independent oracle for ``ChordConfiguration.label_area``

def _seg_intersect_proper(p1, p2, q1, q2) -> bool:
    """Do open segments (p1,p2) and (q1,q2) cross properly?"""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != d2 and d3 != d4


def _check_simple(cell: Cell) -> None:
    chords = [e for e in cell.edges if isinstance(e, ChordEdge)]
    for i in range(len(chords)):
        a = chords[i]
        pa = (a.start.point(), a.end.point())
        for b in chords[i + 1:]:
            pb = (b.start.point(), b.end.point())
            if _seg_intersect_proper(pa[0], pa[1], pb[0], pb[1]):
                raise DomainError("self-intersecting cell: crossing chords")
    arcs = [e for e in cell.edges if isinstance(e, ArcEdge)]
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            a, b = arcs[i], arcs[j]
            ma, mb = ccw_measure(a.start, a.end), ccw_measure(b.start, b.end)
            # open angular intervals must not overlap
            for probe_base, probe_m, other_start, other_m in (
                (a.start, ma, b.start, mb),
                (b.start, mb, a.start, ma),
            ):
                pos = ccw_measure(other_start, probe_base)
                mid = (probe_base + probe_m * Fraction(1, 2)).normalized()
                posm = ccw_measure(other_start, mid)
                if (pos - other_m).sign() < 0 and pos.sign() > 0:
                    raise DomainError("self-intersecting cell: overlapping arcs")
                if (posm - other_m).sign() < 0 and posm.sign() > 0:
                    raise DomainError("self-intersecting cell: overlapping arcs")


def cell_area(cell: Cell) -> float:
    """Area enclosed by the cell: vertex shoelace plus a circular segment
    correction for every arc edge.  Raises DomainError for self-intersecting
    edge cycles."""
    _check_simple(cell)
    verts = [e.start.point() for e in cell.edges]
    shoelace = 0.0
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        shoelace += x0 * y1 - y0 * x1
    area = 0.5 * shoelace
    for e in cell.edges:
        if isinstance(e, ArcEdge):
            area += segment_area(ccw_measure(e.start, e.end))
    return area


# ---------------------------------------------------------------------------
# exhaustive enumeration with every matching summed by ``math.fsum``: the
# reference for the prefilter of ``chord_solver._near_optimal``

def fsum_scan(rows) -> list:
    """Indices of the rows (sequences of chord lengths) whose ``math.fsum``
    is within the energy tolerance of the smallest, in row order."""
    energies = [math.fsum(r) for r in rows]
    emin = min(energies)
    bound = emin + ENERGY_REL_TOL * max(1.0, emin)
    return [k for k, e in enumerate(energies) if e <= bound]


def fsum_enumeration(data) -> tuple:
    """``enumerate_optimal`` scoring every row of the matching table with
    ``math.fsum`` over ``chord_length`` terms."""
    trans = transitions_of(data)[0]
    n = len(trans)
    u, lengths = trans.u.tolist(), np.zeros((n, n))
    for i, x in enumerate(u):
        lengths[i, i + 1 :: 2] = [chord_length(y - x) for y in u[i + 1 :: 2]]
    table = _all_matchings(n)
    best = [ChordConfiguration._of(trans, tuple(map(tuple, table[k].tolist())))
            for k in fsum_scan(lengths[table[..., 0], table[..., 1]].tolist())]
    best.sort(key=lambda c: (c.energy, c.label_area, c.matching))
    return tuple(best)
