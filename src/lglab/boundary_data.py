"""Boundary data on the unit circle.

A boundary function is any callable from an array of angles in radians to an
array of values, as a disk function is a callable on an ``(n, 2)`` point
array.  Piecewise-constant data with exact rational breakpoints is one such
callable; the linear ramp approximants and the discrete convolution smoother
(a piecewise-linear partition of unity) are others.  The module also holds
the fat Cantor construction driving the verification scenarios, and
quantization back to piecewise-constant form.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .circle_geometry import (
    Angle,
    Arc,
    DomainError,
    ccw_measure,
    index_of_angle,
    strictly_increasing,
)

if TYPE_CHECKING:  # numpy is imported where array code runs, not with the module
    import numpy as np

TAU = math.tau
BISECT_TOL = 1e-12  # angular tolerance of quantize's crossing bisection


class PiecewiseConstantBoundary:
    """Right-continuous piecewise-constant function on the circle.

    ``values[i]`` holds on the half-open arc ``[breakpoints[i],
    breakpoints[i+1])`` (cyclically); a constant function has no breakpoints
    and a single value.  Construction normalizes: breakpoints are sorted,
    zero-length arcs are rejected, adjacent arcs with equal values merge.
    """

    __slots__ = ("breakpoints", "values", "_rad", "_transitions", "_fill")

    def __init__(self, breakpoints: Sequence[Angle], values: Sequence[float]):
        bps = [b.normalized() for b in breakpoints]
        vals = [float(v) for v in values]
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("boundary values must be finite")
        rad = [b.radians for b in bps]
        if len(bps) == 0:
            if len(vals) != 1:
                raise DomainError("constant data needs exactly one value")
        elif len(bps) != len(vals):
            raise DomainError("need one value per breakpoint")
        else:
            # the float order is the exact one when every neighbour pair is
            # proven strictly increasing; otherwise sort exactly
            order = sorted(range(len(bps)), key=rad.__getitem__)
            if not strictly_increasing([bps[i] for i in order], [rad[i] for i in order]):
                order = sorted(range(len(bps)), key=bps.__getitem__)
                if any(bps[i] == bps[j] for i, j in zip(order, order[1:])):
                    raise DomainError("duplicate breakpoints")
            # merge adjacent equal values (cyclically): a breakpoint between
            # equal values goes, and dropping one leaves the others' test as is
            keep = [i for i in range(len(order)) if vals[order[i]] != vals[order[i - 1]]]
            order = [order[i] for i in keep]
            vals = [vals[i] for i in order] if keep else vals[:1]
            bps = [bps[i] for i in order]
            rad = [rad[i] for i in order]
        self.breakpoints: Tuple[Angle, ...] = tuple(bps)
        self.values: Tuple[float, ...] = tuple(vals)
        self._rad: Tuple[float, ...] = tuple(rad)
        self._transitions = None  # the chord solver's Transition view
        self._fill = None  # and its untied matching, which serves both modes

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, c: float) -> "PiecewiseConstantBoundary":
        return cls((), (float(c),))

    @classmethod
    def from_arcs(
        cls,
        arcs: Iterable[Arc],
        inside: float = 1.0,
        outside: float = 0.0,
    ) -> "PiecewiseConstantBoundary":
        """Indicator-style data: ``inside`` on the given disjoint arcs."""
        arcs = _sorted_disjoint(arcs, "from_arcs")
        if not arcs:
            return cls.constant(outside)
        bps: List[Angle] = []
        vals: List[float] = []
        for a in arcs:
            bps.extend((a.start, a.end))
            vals.extend((inside, outside))
        return cls(bps, vals)

    # -- structure ------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return not self.breakpoints

    @property
    def is_binary(self) -> bool:
        return set(self.values) <= {0.0, 1.0}

    def support_arcs(self, level: float = 1.0) -> Tuple[Arc, ...]:
        """Maximal arcs on which the data equals ``level`` (empty for constants)."""
        if self.is_constant:
            if self.values[0] == level:
                raise DomainError("support is the full circle")
            return ()
        out = []
        n = len(self.breakpoints)
        for i, v in enumerate(self.values):
            if v == level:
                out.append(Arc(self.breakpoints[i], self.breakpoints[(i + 1) % n]))
        return tuple(out)

    def complement(self) -> "PiecewiseConstantBoundary":
        if not self.is_binary:
            raise DomainError("complement needs binary data")
        return PiecewiseConstantBoundary(self.breakpoints, [1.0 - v for v in self.values])

    # -- evaluation -----------------------------------------------------
    def value_at(self, angle: Union[Angle, float]) -> float:
        if self.is_constant:
            return self.values[0]
        if isinstance(angle, Angle):
            return self.values[index_of_angle(self.breakpoints, angle.normalized())]
        return float(self([angle])[0])

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        import numpy as np

        th = np.asarray(theta, dtype=float) % TAU
        idx = np.searchsorted(self._rad, th, side="right") - 1
        return np.asarray(self.values)[idx]  # idx == -1 wraps to the last arc

    def superlevel(self, t: float) -> "PiecewiseConstantBoundary":
        """Indicator of {data > t}."""
        if self.is_constant:
            return PiecewiseConstantBoundary.constant(1.0 if self.values[0] > t else 0.0)
        return PiecewiseConstantBoundary(
            self.breakpoints, [1.0 if v > t else 0.0 for v in self.values]
        )

    # -- integrals --------------------------------------------------------
    def integral_over(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Integral over ccw windows [lo, hi] with hi - lo in [0, 2*pi]."""
        import numpy as np

        if self.is_constant:
            knots = np.array([0.0, TAU])
            segvals = np.array([self.values[0]])
        else:
            knots = np.concatenate(([0.0], self._rad, [TAU]))
            segvals = np.concatenate(([self.values[-1]], self.values))
        prefix = np.concatenate(([0.0], np.cumsum(segvals * np.diff(knots))))

        def upto(x):  # integral over [0, x] for x in [0, 2*pi]
            idx = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, len(segvals) - 1)
            return prefix[idx] + segvals[idx] * (x - knots[idx])

        lo = np.asarray(lo, dtype=float)
        lo_m = lo % TAU
        hi_m = lo_m + (np.asarray(hi, dtype=float) - lo)
        return np.where(
            hi_m > TAU,
            prefix[-1] - upto(lo_m) + upto(np.minimum(hi_m - TAU, TAU)),
            upto(np.minimum(hi_m, TAU)) - upto(lo_m),
        )

    # -- exact comparisons ------------------------------------------------
    def is_leq(self, other: "PiecewiseConstantBoundary") -> bool:
        """Pointwise <= decided exactly on the merged breakpoint set."""
        probes = list(self.breakpoints) + list(other.breakpoints)
        if not probes:
            return self.values[0] <= other.values[0]
        return all(self.value_at(p) <= other.value_at(p) for p in probes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseConstantBoundary):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.breakpoints, self.values))

    def __repr__(self) -> str:
        if self.is_constant:
            return f"PiecewiseConstantBoundary(constant {self.values[0]})"
        return f"PiecewiseConstantBoundary({len(self.breakpoints)} breakpoints)"

    # -- serialization ------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [
                [str(b.pi_mult), str(b.offset)] for b in self.breakpoints
            ],
            "values": [format(v, ".17g") for v in self.values],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PiecewiseConstantBoundary":
        """Inverse of ``to_json_dict``; malformed input raises ``DomainError``."""
        if not isinstance(d, dict):
            raise DomainError("boundary data must be a JSON object")
        bps, vals = d.get("breakpoints"), d.get("values")
        # a string would iterate as characters, so the lists are checked first
        if not (
            isinstance(bps, list)
            and isinstance(vals, list)
            and all(isinstance(b, list) and len(b) == 2 for b in bps)
        ):
            raise DomainError("need 'breakpoints' as [pi_mult, offset] pairs and 'values' as a list")
        try:
            angles = [Angle(Fraction(p), Fraction(r)) for p, r in bps]
            floats = [float(v) for v in vals]
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"malformed boundary data: {exc}") from None
        data = cls(angles, floats)
        try:  # normalizing can leave a part too long to write back as a string
            data.to_json_dict()
        except ValueError as exc:
            raise DomainError(f"breakpoint cannot be written back: {exc}") from None
        return data


# ---------------------------------------------------------------------------
# fat Cantor construction

REMOVAL = Fraction(1, 4)  # stage j cuts arcs of measure REMOVAL**j


def kept_arc_measure(n: int) -> Fraction:
    """Exact measure of a stage-n kept arc, without building the 2**n arcs."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("kept_arc_measure: n must be a nonnegative integer")
    length = Fraction(1)
    for j in range(1, n + 1):
        length = (length - REMOVAL**j) / 2
    return length


class CantorStage(NamedTuple):
    """Stage ``n`` of the fat Cantor construction on the base arc of measure 1
    centered at pi/2.  Stage j removes the centered open arc of measure
    ``REMOVAL**j`` from each of the 2**(j-1) arcs kept so far; ``kept`` holds
    the 2**n arcs left, in ccw order."""

    n: int
    kept: Tuple[Arc, ...]

    @property
    def removed(self) -> Tuple[Arc, ...]:
        """The 2**n - 1 arcs removed through stage n, in ccw order: the gaps
        between consecutive kept arcs."""
        return tuple(Arc(a.end, b.start) for a, b in zip(self.kept, self.kept[1:]))

    @property
    def kept_arc_measure(self) -> Fraction:
        """Exact radian measure of each kept arc (all are equal)."""
        return kept_arc_measure(self.n)


def cantor_stage(n: int) -> CantorStage:
    """Construct stage ``n`` (0 <= n <= 24) of the fat Cantor set.

    The base arc is [pi/2 - 1/2, pi/2 + 1/2].  All endpoints are exact
    rational offsets from pi/2; note the arc count grows as 2**n.
    """
    ends = _kept_endpoints(n)
    return CantorStage(n, tuple(Arc(a, b) for a, b in zip(ends[::2], ends[1::2])))


def cantor_measure_limit(removal: Union[int, Fraction] = REMOVAL) -> Fraction:
    """Exact limit of the kept measure: 1 - sum_j 2**(j-1) * removal**j."""
    r = Fraction(removal)
    if not 0 < r < Fraction(1, 2):
        raise DomainError("removal ratio must lie in (0, 1/2)")
    return 1 - r / (1 - 2 * r)


def _kept_endpoints(n: int) -> List[Angle]:
    """The endpoints of the stage-n kept arcs in ccw order, start and end of
    each, without building the arcs (``build_fn`` and ``build_gn`` read them)."""
    if not isinstance(n, int) or n < 0 or n > 24:
        raise DomainError("cantor_stage: n must be an integer in [0, 24]")
    den = 2 ** (2 * n + 1)  # every offset from pi/2 is an integer over den
    kept = [-den // 2, den // 2]
    for j in range(1, n + 1):
        length = (2**j + 1) * 4 ** (n - j)  # kept_arc_measure(j) * den, left at each end
        kept = [x for a, b in zip(kept[::2], kept[1::2]) for x in (a, a + length, b - length, b)]
    half = Fraction(1, 2)
    return [Angle(half, Fraction(x, den)) for x in kept]


def build_fn(n: int) -> PiecewiseConstantBoundary:
    """Indicator of the stage-n kept arcs."""
    return PiecewiseConstantBoundary(_kept_endpoints(n), [1.0, 0.0] * 2**n)


def build_gn(n: int) -> PiecewiseConstantBoundary:
    """0 exactly on the arcs removed through stage n, 1 elsewhere (constant at n = 0)."""
    return PiecewiseConstantBoundary(_kept_endpoints(n)[1:-1], [0.0, 1.0] * (2**n - 1) or [1.0])


def opposite_caps() -> PiecewiseConstantBoundary:
    """1 on the caps around pi/2 and 3*pi/2 (breakpoints at odd multiples of
    pi/4), 0 on the two between: the square whose two chord matchings tie."""
    return PiecewiseConstantBoundary(
        [Angle.of_pi(Fraction(2 * k + 1, 4)) for k in range(4)], [1.0, 0.0, 1.0, 0.0]
    )


# ---------------------------------------------------------------------------
# linear ramps toward an arc union

def _coerce_arcs(F, caller: str) -> Tuple[Optional[bool], Tuple[Arc, ...]]:
    """Returns (constant_truth, arcs): constant_truth is True/False when the
    set is the full circle / empty, else None with the arcs as
    ``_sorted_disjoint`` returns them."""
    if isinstance(F, PiecewiseConstantBoundary):
        if not F.is_binary:
            raise DomainError("indicator data must be binary")
        if F.is_constant:
            return (F.values[0] == 1.0), ()
        F = F.support_arcs(1.0)
    arcs = _sorted_disjoint(F, caller)
    return (None if arcs else False), arcs


def _sorted_disjoint(arcs: Iterable[Arc], caller: str) -> Tuple[Arc, ...]:
    """The arcs sorted by start; DomainError names ``caller`` if one is empty
    or two overlap or touch (measured from starts, so a wrap is seen)."""
    arcs = tuple(sorted(arcs, key=lambda a: a.start))
    if any(a.measure.sign() <= 0 for a in arcs):
        raise DomainError(f"{caller}: empty arc")
    for a, b in zip(arcs, arcs[1:] + arcs[:1]):
        # each arc must end strictly before the next one starts
        if len(arcs) > 1 and (ccw_measure(a.start, b.start) - a.measure).sign() <= 0:
            raise DomainError(f"{caller}: arcs must be pairwise disjoint")
    return arcs


def _dist_to_arcs_fn(arcs: Sequence[Arc]) -> Callable[[np.ndarray], np.ndarray]:
    import numpy as np

    starts = np.array([a.start.radians for a in arcs])
    meas = np.array([a.measure_radians for a in arcs])

    def dist(theta: np.ndarray) -> np.ndarray:
        th = np.asarray(theta, dtype=float) % TAU
        pos = (th[..., None] - starts) % TAU
        beyond = pos - meas
        d = np.where(beyond <= 0.0, 0.0, np.minimum(beyond, TAU - pos))
        return d.min(axis=-1)

    return dist


def eta_plus(F, eps: float) -> Callable[[np.ndarray], np.ndarray]:
    """Outer ramp max(1 - dist(x, F)/eps, 0); dist is intrinsic arc length."""
    if eps <= 0:
        raise DomainError("eta_plus: eps must be positive")
    import numpy as np

    const, arcs = _coerce_arcs(F, "eta_plus")
    if const is not None:
        return lambda th: np.full(np.shape(th), 1.0 if const else 0.0)
    dist = _dist_to_arcs_fn(arcs)
    return lambda th: np.maximum(1.0 - dist(th) / eps, 0.0)


def eta_minus(F, eps: float) -> Callable[[np.ndarray], np.ndarray]:
    """Inner ramp min(dist(x, complement of F on the circle)/eps, 1)."""
    if eps <= 0:
        raise DomainError("eta_minus: eps must be positive")
    import numpy as np

    const, arcs = _coerce_arcs(F, "eta_minus")
    if const is not None:
        return lambda th: np.full(np.shape(th), 1.0 if const else 0.0)
    gaps = [Arc(a.end, b.start) for a, b in zip(arcs, arcs[1:] + arcs[:1])]
    dist = _dist_to_arcs_fn(gaps)
    return lambda th: np.minimum(dist(th) / eps, 1.0)


# ---------------------------------------------------------------------------
# discrete convolution

class DiscreteConvolution:
    """Smoothing of piecewise-constant data by locally averaged hat functions.

    Centers are ``n_centers`` evenly spaced angles with spacing at most
    ``2*eps/5``; each carries the exact average of the data over the arc of
    angular half-width ``eps`` about it, blended by a piecewise-linear
    partition of unity whose hats are supported on arcs of half-width ``2*eps``.
    """

    def __init__(self, data: PiecewiseConstantBoundary, eps: float):
        if not (0.0 < eps < math.pi / 4):
            raise DomainError("discrete_convolution: eps must lie in (0, pi/4)")
        if not isinstance(data, PiecewiseConstantBoundary):
            raise DomainError("discrete_convolution: data must be piecewise constant")
        import numpy as np

        self.eps = float(eps)
        self.n_centers = math.ceil(TAU / (2 * eps / 5))
        self.spacing = TAU / self.n_centers
        self.centers = np.arange(self.n_centers) * self.spacing
        self.averages = data.integral_over(self.centers - eps, self.centers + eps) / (2 * eps)
        self._window = int(math.ceil(2 * eps / self.spacing)) + 1

    def _hat_weights(self, theta: np.ndarray):
        import numpy as np

        th = np.asarray(theta, dtype=float) % TAU
        i0 = np.rint(th / self.spacing).astype(np.int64)
        offs = np.arange(-self._window, self._window + 1)
        idx = i0[..., None] + offs
        d = np.abs(th[..., None] - idx * self.spacing)
        psi = np.maximum(1.0 - d / (2 * self.eps), 0.0)
        return psi, idx % self.n_centers

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        psi, idx = self._hat_weights(theta)
        s = psi.sum(axis=-1)
        return (psi * self.averages[idx]).sum(axis=-1) / s


# ---------------------------------------------------------------------------
# quantization

def _project_indices(vals: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Nearest-level index, ties resolved to the upper level."""
    import numpy as np

    if len(levels) == 1:
        return np.zeros(np.shape(vals), dtype=np.int64)
    mids = (levels[:-1] + levels[1:]) / 2.0
    return np.searchsorted(mids, vals, side="right")


def quantize(
    f: Callable[[np.ndarray], np.ndarray],
    levels: Sequence[float],
    resolution: int = 8192,
) -> PiecewiseConstantBoundary:
    """Pointwise projection of ``f`` onto the given levels.

    Piecewise-constant inputs are projected exactly.  Other boundary functions
    are sampled on a uniform grid of ``resolution`` points and every level
    crossing is located by bisection to angular tolerance 1e-12; an
    offset-grid probe verifies the result and triggers one retry on a grid
    four times finer (with a warning) if a feature was missed.
    """
    import numpy as np

    lv = np.asarray(sorted(levels), dtype=float)
    if lv.size == 0:
        raise DomainError("quantize: need at least one level")
    if np.any(np.diff(lv) <= 0):
        raise DomainError("quantize: levels must be strictly increasing")
    if not isinstance(resolution, int) or resolution <= 0:
        raise DomainError(f"quantize: resolution must be a positive integer, got {resolution!r}")

    if isinstance(f, PiecewiseConstantBoundary):
        return PiecewiseConstantBoundary(f.breakpoints, lv[_project_indices(np.asarray(f.values), lv)])

    for refined in (False, True):
        h = TAU / resolution
        grid = np.arange(resolution) * h
        gidx = _project_indices(f(grid), lv)

        # locate crossings between adjacent grid points (cyclically): a step
        # from level index a crosses the midpoint threshold between t and
        # t + step for t = a, a + step, ..., in that order
        nxt = np.roll(gidx, -1)
        js = np.flatnonzero(gidx != nxt)
        count = np.abs(nxt[js] - gidx[js])
        jj = np.repeat(js, count)
        steps = np.sign(nxt[jj] - gidx[jj])
        t = gidx[jj] + steps * (np.arange(jj.size) - np.repeat(np.cumsum(count) - count, count))
        if not jj.size:
            result = PiecewiseConstantBoundary.constant(lv[gidx[0]])
        else:
            lo = grid[jj]
            hi = grid[jj] + h
            thr = (lv[:-1] + lv[1:])[np.where(steps == 1, t, t - 1)] / 2.0
            s_lo = f(lo) < thr
            while float(np.max(hi - lo)) > BISECT_TOL:
                mid = 0.5 * (lo + hi)
                below = f(mid) < thr
                take_lo = below == s_lo
                lo = np.where(take_lo, mid, lo)
                hi = np.where(take_lo, hi, mid)
            cross = 0.5 * (lo + hi)

            # assemble: sort crossings, track the level index after each; the
            # crossings of one jump over several thresholds bisect to one angle,
            # which becomes one breakpoint carrying the last value
            order = np.argsort(cross, kind="stable")
            bps: List[Angle] = []
            vals: List[float] = []
            current = int(gidx[0])
            for pos, step in zip(cross[order], steps[order].tolist()):
                current += step
                bp = Angle.of_radians(Fraction(float(pos)))
                if bps and bps[-1] == bp:
                    del bps[-1], vals[-1]
                bps.append(bp)
                vals.append(float(lv[current]))
            result = PiecewiseConstantBoundary(bps, vals)

        probe = grid + 0.5 * h
        if np.array_equal(lv[_project_indices(f(probe), lv)], result(probe)):
            break
        if refined:
            warnings.warn("quantize: unresolved feature after refinement", RuntimeWarning)
        else:
            warnings.warn("quantize: grid resolution missed a feature; retrying refined", RuntimeWarning)
            resolution *= 4
    return result
