"""Operations that only the tests use, kept out of the ``lglab`` package."""

import math
import random
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from lglab.analysis import cut_config
from lglab.boundary_data import CantorStage, DiscreteConvolution, PiecewiseConstantBoundary
from lglab.chord_solver import ENERGY_REL_TOL, ChordConfiguration, _all_matchings, interior_radius, transitions_of
from lglab.circle_geometry import (
    Angle,
    Arc,
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


def point(angle: Angle) -> Tuple[float, float]:
    """The boundary point (cos, sin) of an angle."""
    r = angle.radians
    return (math.cos(r), math.sin(r))


def midpoint(arc: Arc) -> Angle:
    """The exact angle halfway along an arc, in normal form."""
    return (arc.start + arc.measure * Fraction(1, 2)).normalized()


def shifted(data: PiecewiseConstantBoundary, c: float) -> PiecewiseConstantBoundary:
    return PiecewiseConstantBoundary(data.breakpoints, [v + c for v in data.values])


def scaled(data: PiecewiseConstantBoundary, s: float) -> PiecewiseConstantBoundary:
    return PiecewiseConstantBoundary(data.breakpoints, [s * v for v in data.values])


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


def kept_total(stage: CantorStage) -> Fraction:
    """Exact total measure of the arcs the stage holds, summed arc by arc."""
    measures = [arc.measure for arc in stage.kept]
    assert all(m.pi_mult == 0 for m in measures)
    return sum((m.offset for m in measures), Fraction(0))


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
# chord side tests: the reference for ``ChordConfiguration.evaluate_points``

def cross_product_labels(cfg: ChordConfiguration, pts: np.ndarray) -> np.ndarray:
    """Labels (0/1) at planar points by one cross-product test per chord:
    the base value flipped once per chord that has the point strictly on
    its arc side, the side of the arc midpoint, with the chord's endpoints
    from ``point``."""
    pts = np.asarray(pts, dtype=float)
    flip = np.zeros(len(pts), dtype=np.int64)
    u, bps = cfg.data._rad, cfg.data.breakpoints
    for i, j in cfg.matching:
        p = np.array(point(bps[i]))
        q = np.array(point(bps[j]))
        mid = 0.5 * (u[i] + u[j])
        r = np.array([math.cos(mid), math.sin(mid)])
        d = q - p
        ref = 1.0 if d[0] * (r[1] - p[1]) - d[1] * (r[0] - p[0]) > 0 else -1.0
        cross = d[0] * (pts[:, 1] - p[1]) - d[1] * (pts[:, 0] - p[0])
        flip += (cross * ref > 0)
    return (cfg.base_value + flip) % 2


# ---------------------------------------------------------------------------
# segment parity: an independent oracle for ``ChordConfiguration.label_area``

def segment_parity_area(cfg: ChordConfiguration) -> float:
    """Area of the label-1 region from the segments on the arc sides of the
    chords.  Segments of non-crossing chords nest like their index
    intervals, and a point's label is the base value flipped once per
    segment that holds it, so the points of odd depth have the alternating
    sum of segment areas by nesting depth."""
    u = cfg.data._rad
    terms, open_ends = [], []
    for i, j in cfg.matching:  # in index order, so a chord comes after those holding it
        while open_ends and open_ends[-1] < i:
            open_ends.pop()
        terms.append((-1) ** len(open_ends) * segment_area(u[j] - u[i]))
        open_ends.append(j)
    odd = math.fsum(terms)
    return math.pi - odd if cfg.base_value else odd


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
    n = len(transitions_of(data))
    u, lengths = data._rad, np.zeros((n, n))
    for i, x in enumerate(u):
        lengths[i, i + 1 :: 2] = [chord_length(y - x) for y in u[i + 1 :: 2]]
    table = _all_matchings(n)
    best = [ChordConfiguration._of(data, tuple(map(tuple, table[k].tolist())))
            for k in fsum_scan(lengths[table[..., 0], table[..., 1]].tolist())]
    best.sort(key=lambda c: (c.energy, c.label_area, c.matching))
    return tuple(best)


# ---------------------------------------------------------------------------
# sampled references for ``level_stack.trace``, which computes its averages exactly

def v_limit(pts: np.ndarray) -> np.ndarray:
    """Pointwise limit of the complement solutions at points strictly inside
    the disk: 0 inside any removed-arc segment, 1 elsewhere.  A stage-ell
    segment reaches inward only to radius cos(4^-ell / 2), a cosine that
    rounds to 1.0 from stage 13 on, so ``cut_config`` of the deepest stage
    that reaches the points has the limit's labels there.  The points are
    checked once, by ``interior_radius``."""
    pts = np.asarray(pts, dtype=float)
    rmax = interior_radius(pts)
    n = 0
    while math.cos(4.0 ** (-(n + 1)) / 2.0) <= rmax:
        n += 1
    return cut_config(n)._labels(pts)


def sampled_average(u, x: float, r: float, samples: int = 4096, seed: int = 0) -> Tuple[float, float]:
    """Monte Carlo mean of the disk function u over the half-ball B(x, r)
    cap Omega, and its standard error: points uniform in the ball, kept
    while strictly inside the disk, the first ``samples`` of them."""
    rng = np.random.default_rng(seed)
    center = np.array([math.cos(x), math.sin(x)])
    kept, count = [], 0
    while count < samples:
        rho = r * np.sqrt(rng.random(samples))
        phi = 2.0 * math.pi * rng.random(samples)
        pts = center + rho[:, None] * np.column_stack([np.cos(phi), np.sin(phi)])
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < 1.0]
        kept.append(np.asarray(u(pts), dtype=float))
        count += len(pts)
    vals = np.concatenate(kept)[:samples]
    return float(vals.mean()), float(vals.std()) / math.sqrt(samples)
