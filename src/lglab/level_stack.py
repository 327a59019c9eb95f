"""Multi-level solutions assembled from binary slices.

General piecewise constant data is solved one superlevel set at a time:
for consecutive distinct data values lo < hi the slice is ``{data > lo}``,
which is exactly ``{data >= hi}``, labelled by the midpoint threshold
``lo / 2 + hi / 2``; each binary slice gets the chord solver, and the
solution evaluates a point by counting how many slices contain it.  The
coarea formula turns the slice energies into the total variation of the
stack.

A disk function is any callable that takes an ``(n, 2)`` float array of
points strictly inside the disk and returns ``n`` values: ``LevelSetStack``
itself, a configuration's ``evaluate_points``, or a plain function;
``l1_distance`` accepts exactly that.  ``LevelSetStack`` and
``evaluate_points`` reject any other point, NaN included, with the one guard
``chord_solver.interior_radius``, run once per call: a stack's slices label
the points it has checked without checking them again.  The seeded
quasirandom points of ``disk_samples`` serve ``l1_distance``, which the
tests use as an independent check of exact areas; ``trace`` computes its
half-ball averages exactly and samples nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Sequence, Tuple

from . import DEFAULT_SEED
from .circle_geometry import Angle, DomainError, NestednessError
from .chord_solver import ChordConfiguration, interior_radius, region_subset, solve_binary

if TYPE_CHECKING:  # numpy is imported where array code runs, not with the module
    import numpy as np


def _scrambled_radical_inverse(n: int, base: int, rng: np.random.Generator) -> np.ndarray:
    """Owen-scrambled radical inverse of 0..n-1, bit for bit as scipy sums it.

    Each row's permutation is an ``rng.shuffle`` of ``arange(base)``, drawn in
    row order.  Row j adds ``perm[digit j] * b2r`` to a sum that starts at
    0.0, b2r being 1/base divided j times by base.  The first ``k`` rows fill
    a table over the residues mod ``base**k``; rows past every index's last
    nonzero digit add one scalar.
    """
    import numpy as np

    perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
    for perm in perms:
        rng.shuffle(perm)
    k = math.ceil(12 / math.log2(base))
    m = min(n, base**k)
    out, q, top = np.zeros(m), np.arange(m), m - 1
    b2r = 1.0 / base
    for j, perm in enumerate(perms):
        if j == k:
            idx = np.arange(n)
            out, q, top = out[idx % m], idx // m, (n - 1) // m
        if top:
            out += perm[q % base] * b2r
            q //= base
            top //= base
        else:
            out += perm[0] * b2r
        b2r /= base
    return out


@lru_cache(maxsize=2)
def disk_samples(n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """n quasirandom points equidistributed in the open unit disk: the polar
    map of scipy's ``qmc.Halton(d=2, scramble=True, seed=seed).random(n)``,
    bit for bit (``tests/test_level_stack.py`` pins them), without scipy.
    Memoized on ``(n, seed)``, so the array is read-only."""
    if n < 1:
        raise DomainError("need at least one sample")
    import numpy as np

    rng = np.random.default_rng(seed)
    r = np.sqrt(_scrambled_radical_inverse(n, 2, rng))
    th = 2.0 * math.pi * _scrambled_radical_inverse(n, 3, rng)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    pts.flags.writeable = False
    return pts


class LevelSlice(NamedTuple):
    """One binary slice of a stack: the solution of ``{data > lo}`` for
    consecutive data values lo < hi, carrying ``gap = hi - lo`` of the
    solution's value.  ``threshold`` is the midpoint label ``lo / 2 + hi / 2``,
    halved before the sum so that it stays finite."""

    threshold: float
    gap: float
    config: ChordConfiguration


class LevelSetStack:
    """A solved multi-level problem: nested binary slices over sorted values."""

    def __init__(self, values: Sequence[float], slices: Sequence[LevelSlice]):
        values = tuple(float(v) for v in values)
        if len(values) != len(slices) + 1:
            raise DomainError("a stack over k+1 values needs exactly k slices")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise DomainError("stack values must be strictly increasing")
        self.values = values
        self.slices = tuple(slices)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """Solution values at interior points, shape (n, 2); every result is
        a data value."""
        import numpy as np

        pts = np.asarray(pts, dtype=float)
        interior_radius(pts)
        count = np.zeros(len(pts), dtype=np.int64)
        for sl in self.slices:
            count += sl.config._labels(pts)
        return np.asarray(self.values)[count]

    def __repr__(self):
        return f"LevelSetStack({len(self.values)} values, {len(self.slices)} slices)"


def solve_general(data, mode: str = "minimal") -> LevelSetStack:
    """Solve piecewise constant data by stacking binary superlevel slices.

    Each slice ``{data > lo}`` between consecutive distinct data values is
    solved independently; nestedness of the resulting regions is a
    consequence of optimality, not an input constraint, so every pair of
    consecutive slices is then checked exactly with ``region_subset``.
    """
    values = sorted(set(float(v) for v in data.values))
    if len(values) == 1:
        return LevelSetStack(values, ())
    slices: List[LevelSlice] = []
    for lo, hi in zip(values, values[1:]):
        # the slice is cut at lo itself: a midpoint can round to hi or overflow
        cfg = solve_binary(data.superlevel(lo), mode)
        slices.append(LevelSlice(lo / 2 + hi / 2, hi - lo, cfg))
    check_nestedness(slices)
    return LevelSetStack(values, slices)


def check_nestedness(slices: Sequence[LevelSlice]) -> None:
    """Raise NestednessError if a higher slice escapes the one below it."""
    for low, high in zip(slices, slices[1:]):
        if not region_subset(high.config, low.config):
            raise NestednessError(low.threshold, high.threshold)


def bv_energy(stack: LevelSetStack) -> float:
    """Total variation of the stack via the coarea formula."""
    try:
        return math.fsum(sl.gap * sl.config.energy for sl in stack.slices)
    except OverflowError:  # finite terms whose sum leaves the float range
        raise DomainError("BV energy overflows the float range") from None


class L1Estimate(NamedTuple):
    value: float
    stderr: float
    n_samples: int


def l1_distance(
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    samples: int = 200_000,
    seed: int = DEFAULT_SEED,
) -> L1Estimate:
    """Monte Carlo L1 distance between two disk functions.

    The sample average of |f-g| over quasirandom disk points, scaled by the
    disk area; the reported standard error uses the iid formula, which is
    conservative for a low-discrepancy sequence.
    """
    if samples < 1000:
        raise DomainError("l1_distance needs at least 1000 samples")
    import numpy as np

    pts = disk_samples(samples, seed)
    d = np.abs(np.asarray(f(pts), dtype=float) - np.asarray(g(pts), dtype=float))
    value = math.pi * float(np.mean(d))
    stderr = math.pi * float(np.std(d)) / math.sqrt(samples)
    return L1Estimate(value, stderr, samples)


# ---------------------------------------------------------------------------
# boundary traces

TRACE_MIN_RADIUS = 1e-9  # the smallest radius trace accepts (see trace)


class TraceEstimate(NamedTuple):
    point: float
    radii: Tuple[float, ...]
    averages: Tuple[float, ...]
    limit: float
    residual: float


class _NearChord(NamedTuple):
    """A chord (i, j) whose segment can meet the half-ball about p = (cos x,
    sin x) without holding all of it.  ``phi_i``, ``phi_j``: its endpoints'
    angles from x in [-pi, pi]; ``dist``: the distance from p to the chord;
    ``g``: p . normal - cos(theta / 2), positive when p is on the segment's
    side; ``mu``: the normal's angle from x; ``spans``: whether the chord's
    arc holds the points just ccw of x, the index test i < k <= j."""

    i: int
    j: int
    phi_i: float
    phi_j: float
    dist: float
    g: float
    mu: float
    spans: bool


def _lune(t: float) -> float:
    """(t - sin t) / 2, the area between a unit-circle arc of measure t and its
    chord, by its Taylor series below t = 0.01, where the difference cancels."""
    if t < 0.01:
        t2 = t * t
        return t * t2 * (1.0 / 12.0 - t2 * (1.0 / 240.0 - t2 / 10080.0))
    return 0.5 * (t - math.sin(t))


def _arc_pieces(lo: float, hi: float, start: float, length: float) -> List[Tuple[float, float]]:
    """The parts of [lo, hi] (hi - lo < 2 pi) that the ccw arc of the given
    length from ``start`` covers modulo 2 pi, in increasing order."""
    s = lo + (start - lo) % math.tau
    pieces = []
    if s + length - math.tau > lo:
        pieces.append((lo, min(hi, s + length - math.tau)))
    if s < hi:
        pieces.append((s, min(hi, s + length)))
    return pieces


def _near_chords(cfg: ChordConfiguration, x: float, r: float) -> Tuple[float, List[_NearChord]]:
    """The data value on the arc of ``cfg.data`` that holds x (in [0, 2 pi)),
    and the chords whose distance from p = (cos x, sin x) is below r, in
    index order.  A chord with an endpoint at chord distance d_i from p is
    at distance d_i d_j / 2 when its endpoints lie on both sides of x, else
    min(d_i, d_j); either is at least r once both d's are at least
    sqrt(2 r), so only chords with an endpoint in that window are read,
    found by bisecting the sorted float angles."""
    u = cfg.data._rad
    k = bisect_right(u, x)
    w = 2.0 * math.asin(math.sqrt(0.5 * r)) * (1.0 + 1e-9)  # below pi/2, as r < 1
    lo, hi = x - w, x + w
    window = chain(
        range(bisect_left(u, lo), bisect_right(u, hi)),
        range(bisect_left(u, lo + math.tau), len(u)) if lo < 0.0 else (),
        range(bisect_right(u, hi - math.tau)) if hi > math.tau else (),
    )
    partner = cfg._partner
    near = []
    for i in sorted({min(t, partner[t]) for t in window}):
        j = partner[i]
        # u - x is exact for a nearby endpoint, and an IEEE remainder rounds nothing
        phi_i, phi_j = math.remainder(u[i] - x, math.tau), math.remainder(u[j] - x, math.tau)
        s_i, s_j = math.sin(0.5 * phi_i), math.sin(0.5 * phi_j)
        line = 2.0 * abs(s_i * s_j)
        dist = line if (phi_i < 0.0) != (phi_j < 0.0) else 2.0 * min(abs(s_i), abs(s_j))
        if dist < r:
            spans = i < k <= j
            mu = phi_i + 0.5 * (u[j] - u[i])
            near.append(_NearChord(i, j, phi_i, phi_j, dist, line if spans else -line, mu, spans))
    return cfg.data.values[k - 1], near


def _segment_in_ball(c: _NearChord, r: float, delta: float) -> float:
    """Area of B(p, r) cap Omega cap S_c, in coordinates about p.

    The half-ball's boundary, ccw, is the arc of radius r about p from its
    corner at angle +delta on the unit circle to the one at -delta (angles
    pi/2 + delta/2 to 3 pi/2 - delta/2 about p), then the unit circle from
    -delta back to +delta.  The parts of it inside the half-plane of the
    segment are arcs; joined in that order by straight lines (along the
    chord, or of length 0 at a corner) they bound the intersection, whose
    area is the triangles they make with p plus, per arc of radius R and
    measure t, the lune R^2 (t - sin t) / 2 between it and its chord.  Every
    vertex is within r of p, so no O(1) terms cancel."""
    lo, hi = 0.5 * (math.pi + delta), 0.5 * (3.0 * math.pi - delta)
    k = -c.g / r  # the ball's arc is inside where cos(psi - mu) > k
    if k >= 1.0:
        inner = []
    elif k <= -1.0:
        inner = [(lo, hi)]
    else:
        b = math.acos(k)
        inner = _arc_pieces(lo, hi, c.mu - b, 2.0 * b)
    # the unit circle is inside just ccw of x when the arc spans x, and
    # flips at each endpoint on the way to either corner
    cuts = sorted(e for e in (c.phi_i, c.phi_j) if -delta < e < delta)
    inside = c.spans != (sum(e <= 0.0 for e in cuts) % 2 == 1)
    bounds = [-delta, *cuts, delta]
    outer = [(a, b) for n, (a, b) in enumerate(zip(bounds, bounds[1:])) if inside != (n % 2 == 1)]
    vertices, lunes = [], []
    for a, b in inner:
        vertices += [(r * math.cos(a), r * math.sin(a)), (r * math.cos(b), r * math.sin(b))]
        lunes.append(r * r * _lune(b - a))
    for a, b in outer:
        vertices += [(-2.0 * math.sin(0.5 * a) ** 2, math.sin(a)), (-2.0 * math.sin(0.5 * b) ** 2, math.sin(b))]
        lunes.append(_lune(b - a))
    triangles = [
        0.5 * (px * qy - py * qx) for (px, py), (qx, qy) in zip(vertices, vertices[1:] + vertices[:1])
    ]
    return math.fsum(triangles + lunes)


def _slice_average(value: float, near: List[_NearChord], r: float, delta: float, ball: float):
    """Average of one binary solution over the half-ball of radius r, as the
    int label when no chord crosses it.  Off the crossing chords the label
    is the data value on x's arc, flipped once per crossing chord that spans
    x (each spanning chord holds the points just ccw of x); on top of it the
    crossing segments nest like their index intervals, so their indicators
    add with signs alternating by depth."""
    crossing = [c for c in near if c.dist < r]
    label = int(value) ^ (sum(c.spans for c in crossing) & 1)
    if not crossing:
        return label
    terms, open_ends = [], []
    for c in crossing:  # in index order, so a chord comes after those holding it
        while open_ends and open_ends[-1] < c.i:
            open_ends.pop()
        terms.append((-1) ** len(open_ends) * _segment_in_ball(c, r, delta))
        open_ends.append(c.j)
    return label + (1 - 2 * label) * (math.fsum(terms) / ball)


def trace(solution, x, r0: float = 1e-3, levels: int = 4) -> TraceEstimate:
    """Boundary trace at angle x of a solution, a ``ChordConfiguration`` or a
    ``LevelSetStack``, from its averages over shrinking half-balls.

    Averages the solution over B(x, r_k) cap Omega for r_k = r0 * 2^-k; the
    limit is the finest-level average and the residual is the gap to the
    level above it.  Each average is exact up to rounding, in plain floats:
    a solution is a sum of circular segments (``_segment_in_ball``), and
    only chords within r_k of the boundary point are read.  Where no chord
    of any slice crosses a half-ball the average is the data value of the
    region holding it, ``values[count]`` for a stack, bit for bit.  A stack
    averages its slices' averages a_1 >= ... >= a_K as sum_k values[k]
    (a_k - a_{k+1}), with a_0 = 1 and a_{K+1} = 0, which stays finite for
    data near the float range.

    Every radius must be at least ``TRACE_MIN_RADIUS`` (1e-9): the float
    angles of the breakpoints and of x, reduced modulo 2 pi exactly, are off
    by up to about 1e-15, which moves an average by up to about that over
    the radius, 1e-6 at the floor.  A smaller radius, a non-finite x and an
    average past the float range raise DomainError.
    """
    if not (0.0 < r0 < 1.0):
        raise DomainError("r0 must lie in (0, 1)")
    if levels < 4:
        raise DomainError("need at least 4 radii to judge stabilization")
    xrad = x.radians if isinstance(x, Angle) else float(x)
    if not math.isfinite(xrad):
        raise DomainError(f"trace angle must be finite, got {xrad}")
    if not r0 * 2.0 ** (1 - levels) >= TRACE_MIN_RADIUS:
        raise DomainError(f"the smallest radius, r0 * 2**-(levels - 1), is below {TRACE_MIN_RADIUS:g}")
    if isinstance(solution, ChordConfiguration):
        values, configs = (0.0, 1.0), (solution,)
    elif isinstance(solution, LevelSetStack):
        values, configs = solution.values, [sl.config for sl in solution.slices]
    else:
        raise TypeError("trace takes a ChordConfiguration or a LevelSetStack")
    # x modulo 2 pi exactly, rounded once; within 2.4e-16 of 2 pi it rounds to
    # math.tau, where the float circle of the breakpoint angles closes: read 0
    xr = (x if isinstance(x, Angle) else Angle.of_radians(xrad)).normalized().radians
    if xr == math.tau:
        xr = 0.0
    near = [_near_chords(cfg, xr, r0) for cfg in configs]
    radii, averages = [r0 * 2.0 ** (-k) for k in range(levels)], []
    for r in radii:
        delta = 2.0 * math.asin(0.5 * r)  # the half-ball meets the circle at x +- delta
        ball = 0.5 * r * r * (math.pi - delta - math.sin(delta)) + _lune(2.0 * delta)
        fractions = [_slice_average(value, chords, r, delta, ball) for value, chords in near]
        if all(type(a) is int for a in fractions):
            avg = values[sum(fractions)]
        else:
            avg = sum(v * (a - b) for v, a, b in zip(values, [1, *fractions], [*fractions, 0]))
        averages.append(avg)
    residual = abs(averages[-1] - averages[-2])
    if not all(map(math.isfinite, (*averages, residual))):
        raise DomainError("trace estimates overflow the float range")
    return TraceEstimate(xrad, tuple(radii), tuple(averages), averages[-1], residual)
