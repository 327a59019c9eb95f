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
tests use as an independent check of exact areas; ``analysis.trace``
computes its half-ball averages exactly and samples nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, List, Sequence

from . import DEFAULT_SEED
from .circle_geometry import DomainError, NestednessError
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


@dataclass(frozen=True)
class LevelSlice:
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


@dataclass(frozen=True)
class L1Estimate:
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
