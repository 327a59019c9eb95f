"""Scenario drivers: traces, inequality checks, and reproducible demos.

Everything here reduces to three ingredients: closed-form energies of the
Cantor-type boundary families, boundary traces from exact half-ball
averages, ``level_stack.trace``, and exact containment of solution regions,
``chord_solver.region_subset``, read off the circular order of the chord
endpoints.  Each driver returns a
ScenarioReport whose verdicts carry the tolerance they were judged against,
so a report is a self-contained pass/fail record.  Only ``oracle_check``
draws random numbers, from its own seeded generator; a report carries no
seed, and the CLI writes the seed of the run into every report it prints.
numpy is imported by the two grid checks that use it, not with the module.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from .circle_geometry import Angle, Arc, DomainError, segment_area
from .boundary_data import (
    BISECT_TOL,
    PiecewiseConstantBoundary,
    _kept_endpoints,
    build_fn,
    build_gn,
    cantor_measure_limit,
    eta_minus,
    eta_plus,
    kept_arc_measure,
    opposite_caps,
    quantize,
)
from .chord_solver import (
    ChordConfiguration,
    enumerate_optimal,
    region_subset,
    select_optimal,
    solve_binary,
)
from .level_stack import trace

ENERGY_THRESHOLD = 2.0 * math.sin(5.0 / 16.0)  # decisive bound for the Cantor family


# ---------------------------------------------------------------------------
# report plumbing

Scalar = Union[float, int, bool, str]


class Verdict(NamedTuple):
    name: str
    value: Scalar
    tolerance: Optional[float]
    passed: bool


class ScenarioReport:
    def __init__(self, scenario: str):
        self.scenario = scenario
        self.verdicts: List[Verdict] = []
        self.details: Dict[str, object] = {}

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def add(self, name: str, value: Scalar, tolerance: Optional[float], passed: bool) -> None:
        self.verdicts.append(Verdict(name, value, tolerance, bool(passed)))


def collect_trace_points(
    data: PiecewiseConstantBoundary, count: int = 20, min_measure: float = 0.2
) -> List[Tuple[float, float]]:
    """(angle, data value) pairs spread over the data arcs wide enough that
    a half-ball of radius 1e-3 resolves the adjacent chord geometry."""
    arcs = []
    bps = data.breakpoints
    for i, v in enumerate(data.values):
        if data.is_constant:
            a, meas = 0.0, math.tau
        else:
            arc = Arc(bps[i], bps[(i + 1) % len(bps)])
            a, meas = arc.start.radians, arc.measure_radians
        if meas >= min_measure:
            arcs.append((a, meas, float(v)))
    if not arcs:
        raise DomainError("no data arc is wide enough for trace sampling")
    out: List[Tuple[float, float]] = []
    k = 0
    while len(out) < count:
        k += 1  # f runs over the base-2 van der Corput points of 1, 2, 3, ...
        f = 0.1 + 0.8 * (int(bin(k)[:1:-1], 2) / 2 ** k.bit_length())
        for a, meas, v in arcs:
            if len(out) >= count:
                break
            out.append(((a + f * meas) % math.tau, v))
    return out


# ---------------------------------------------------------------------------
# closed forms for the Cantor families

def u_energy(n: int) -> float:
    """Energy of the stage-n minimal solution: one chord per kept arc."""
    a = kept_arc_measure(n)
    return 2 ** (n + 1) * math.sin(float(a) / 2.0)


def v_energy(n: int) -> float:
    """Energy of the stage-n complement solution: one chord per removed arc.

    Summed as the exact multiset of chord lengths so it is bit-identical to
    the configuration energy.
    """
    terms = []
    for ell in range(1, n + 1):
        terms.extend([2.0 * math.sin(4.0 ** (-ell) / 2.0)] * 2 ** (ell - 1))
    return math.fsum(terms)


def _consecutive_config(data: PiecewiseConstantBoundary) -> ChordConfiguration:
    """The matching that pairs each transition of binary data with its ccw
    neighbor: perfect, non-crossing and of opposite types by construction,
    since binary transitions alternate, so it is kept without validation."""
    return ChordConfiguration._of(data, tuple((i, i + 1) for i in range(0, len(data.breakpoints), 2)))


@lru_cache(maxsize=None)
def cap_config(n: int) -> ChordConfiguration:
    """Stage-n minimal solution built directly (no DP), memoized: chords span kept arcs."""
    return _consecutive_config(build_fn(n))


@lru_cache(maxsize=None)
def cut_config(n: int) -> ChordConfiguration:
    """Stage-n complement solution built directly, memoized: chords span removed arcs."""
    return _consecutive_config(build_gn(n))


# ---------------------------------------------------------------------------
# inequality verifiers

def trapezoid_check(k_max: int) -> ScenarioReport:
    """Chord-exchange inequality behind the non-existence example.

    For each stage k the surplus h_lambda(theta) of spanning one long chord
    against cutting the removed arc is positive on the admissible parameter
    square, and strictly decreasing in theta.
    """
    if not (1 <= k_max <= 20):
        raise DomainError("k_max must lie in [1, 20]")
    import numpy as np

    rep = ScenarioReport("trapezoid")
    for k in range(1, k_max + 1):
        c = 4.0 ** (-k)
        top = float(kept_arc_measure(k))

        def h(lam, th):
            return 2.0 * (
                np.sin(c / 2.0)
                + np.sin((lam + c + th) / 2.0)
                - np.sin(lam / 2.0)
                - np.sin(th / 2.0)
            )

        lam, th = np.meshgrid(
            np.linspace(0.0, top, 200), np.linspace(0.0, top, 200), indexing="ij"
        )
        hv = h(lam, th)
        dh = np.cos((lam + c + th) / 2.0) - np.cos(th / 2.0)
        # the formula is smooth on all of R, so a symmetric difference is
        # valid right down to theta = 0
        eps = 1e-5
        fd = (h(lam, th + eps) - h(lam, th - eps)) / (2.0 * eps)
        hmin = float(hv.min())
        dmax = float(dh.max())
        fd_worst = float(np.max(np.abs(fd - dh)))
        h_top = float(h(np.float64(top), np.float64(top)))
        rep.add(f"k={k} grid min of h", hmin, 0.0, hmin > 0.0)
        rep.add(f"k={k} h at symmetric top", h_top, 0.0, h_top > 0.0)
        rep.add(f"k={k} max of dh/dtheta", dmax, 0.0, dmax < 0.0)
        rep.add(f"k={k} dh vs central difference", fd_worst, 1e-6, fd_worst <= 1e-6)
    return rep


def sin_meanval_check(k_range: Iterable[int] = range(6, 21), c_max=Fraction(1, 4)) -> ScenarioReport:
    """Mean-value gain of a sine increment against the removed-arc budget."""
    ks = sorted(set(int(k) for k in k_range))
    if not ks or ks[0] < 6:
        raise DomainError("the inequality regime starts at k = 6")
    cm = float(Fraction(c_max))
    if cm not in (0.25, 0.75):
        raise DomainError("c_max must be 1/4 or 3/4")
    import numpy as np

    rep = ScenarioReport("sin-meanval")
    xs = np.linspace(0.0, cm / 2.0, 1000)
    for k in ks:
        delta = 2.0 ** (-(k + 2))
        budget = 4.0 ** (-k)
        lhs = np.sin(xs + delta) - np.sin(xs)
        margin = float(np.min(lhs - budget))
        rep.add(f"k={k} grid margin over 4^-k", margin, 0.0, margin > 0.0)
        rep.add(
            f"k={k} margin at least half the budget",
            margin / budget,
            0.5,
            margin >= 0.5 * budget,
        )
        analytic = float(np.min(np.cos(xs + delta) * delta))
        floor = 2.0 ** (-(k + 3))
        rep.add(f"k={k} analytic bound vs 2^-(k+3)", analytic - floor, 0.0, analytic >= floor)
        rep.add(f"k={k} floor beats budget", floor - budget, 0.0, floor > budget)
    return rep


# ---------------------------------------------------------------------------
# scenario demos

def cantor_nonexistence_demo(n_max: int) -> ScenarioReport:
    """The vanishing-energy battery: stage solutions beat the decisive
    threshold and collapse to zero in L1, while the data is 1 on a set of
    positive measure, so the zero limit misses it there."""
    if not (3 <= n_max <= 14):
        raise DomainError("n_max must lie in [3, 14]")
    rep = ScenarioReport("cantor-nonexistence")
    energies = [u_energy(n) for n in range(0, n_max + 1)]
    rep.details["energies"] = energies
    decreasing = all(b < a for a, b in zip(energies, energies[1:]))
    rep.add("stage energies strictly decreasing", decreasing, None, decreasing)
    above_half = all(e > 0.5 for e in energies)
    rep.add("stage energies stay above 1/2", min(energies), 0.5, above_half)
    first = next((n for n, e in enumerate(energies) if e < ENERGY_THRESHOLD), None)
    rep.add(
        "first stage below 2*sin(5/16)",
        -1 if first is None else first,
        None,
        first == 3,
    )
    for n in range(0, min(n_max, 6) + 1):
        want = cap_config(n)
        got = solve_binary(want.data)
        ok = got.matching == want.matching and got.energy == want.energy
        rep.add(f"solver reproduces stage {n} configuration", ok, None, ok)
    counts = {}
    for n in range(0, min(n_max, 2) + 1):
        want = cap_config(n)
        opts = enumerate_optimal(want.data)
        counts[n] = len(opts)
        ok = any(c.matching == want.matching for c in opts)
        rep.add(f"stage {n} in exhaustive optimal set", ok, None, ok)
    rep.details["optimal_counts_small_n"] = counts  # recorded, not asserted
    areas = [2 ** n * segment_area(float(kept_arc_measure(n))) for n in range(0, n_max + 1)]
    rep.details["label_areas"] = areas
    shrink = all(b < a for a, b in zip(areas, areas[1:])) and areas[-1] < 2.0 ** (-n_max)
    rep.add("L1 distance to zero vanishes", areas[-1], 2.0 ** (-n_max), shrink)
    # the zero limit has trace 0 everywhere, and the data is 1 on the Cantor set
    measure = cantor_measure_limit()
    rep.add("trace mismatch on positive measure", float(measure), None, measure > 0)
    return rep


def nonlin_demo(n_max: int) -> ScenarioReport:
    """Existence for the complement family: energies rise but stay summable,
    iterates converge in L1, and the limit's traces behave sectorially.

    The limit v is 1 off the disjoint segments of every removed arc; its
    traces are taken exactly on ``cut_config(12)``, which has them through
    stage 12.  Stage l >= 13 adds 2^(l-1) segments of area below
    (4^-l)^3 / 12, below 1.2e-21 in all, while the half-balls traced here
    have radius at least 1e-4 and area above 1.5e-8: the later stages move
    no average by more than 1e-13."""
    # the fixed 1e-6 tolerance on the last L1 gap needs at least four stages
    if not (4 <= n_max <= 14):
        raise DomainError("n_max must lie in [4, 14]")
    rep = ScenarioReport("nonlinearity")
    energies = [v_energy(n) for n in range(1, n_max + 1)]
    rep.details["energies"] = energies
    increasing = all(b > a for a, b in zip(energies, energies[1:]))
    rep.add("stage energies strictly increasing", increasing, None, increasing)
    rep.add("stage energies stay below 1/2", max(energies), 0.5, max(energies) < 0.5)
    for n in range(1, min(n_max, 6) + 1):
        want = cut_config(n)
        got = solve_binary(want.data)
        ok = got.matching == want.matching and got.energy == want.energy
        rep.add(f"solver cuts every removed arc at stage {n}", ok, None, ok)
    gaps = [
        2 ** n * segment_area(4.0 ** (-(n + 1)))
        for n in range(1, n_max)
    ]
    rep.details["l1_consecutive"] = gaps
    ok = all(b < a for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 1e-6
    rep.add("consecutive L1 gaps vanish", gaps[-1], 1e-6, ok)
    # each gap is the area between nested regions only if the stages nest
    nested = all(region_subset(cut_config(n + 1), cut_config(n)) for n in range(1, n_max))
    rep.add("consecutive stage solutions nest", nested, None, nested)
    limit = cut_config(12)
    est = trace(limit, math.pi / 2.0)
    rep.add("limit trace at removed-arc center", est.limit, 1e-12, est.limit == 0.0)
    est = trace(limit, 3.0 * math.pi / 2.0)
    rep.add("limit trace far from the data interval", est.limit, 1e-12, est.limit == 1.0)
    sector_ok = True
    worst = 1.0
    for ang in _kept_endpoints(6)[:8]:
        est = trace(limit, ang, r0=8e-4)
        nondec = all(b >= a - 0.02 for a, b in zip(est.averages, est.averages[1:]))
        sector_ok = sector_ok and nondec and est.averages[-1] >= 0.9
        worst = min(worst, est.averages[-1])
    rep.add("sector averages at Cantor endpoints", worst, 0.9, sector_ok)
    return rep


def _restricted_data(k: int, m: int, n: int) -> PiecewiseConstantBoundary:
    """Stage-n kept arcs inside the m-th stage-k window, as binary data: each
    stage-k arc splits into the next 2^(n-k) stage-n arcs in ccw order."""
    block = 2 ** (n - k)
    return PiecewiseConstantBoundary(
        _kept_endpoints(n)[2 * (m - 1) * block : 2 * m * block], [1.0, 0.0] * block
    )


def nonlocality_demo(k: int, m: int) -> ScenarioReport:
    """Restricting the data to one window reproduces the whole non-existence
    pattern at scale 2^-k: solutions are local but solvability is not."""
    if not (1 <= k <= 4):
        raise DomainError("window stage k must lie in [1, 4]")
    if not (1 <= m <= 2 ** k):
        raise DomainError(f"window index m must lie in [1, {2 ** k}]")
    rep = ScenarioReport("nonlocality")
    limit_measure = Fraction(1, 2 ** (k + 1))
    n_top = min(k + 8, 14)
    energies, measures = [], []
    for n in range(k, n_top + 1):
        energies.append(u_energy(n) / 2 ** k)
        measures.append(2 ** (n - k) * kept_arc_measure(n))
    rep.details["energies"] = energies
    rep.details["restricted_measures"] = [float(x) for x in measures]
    dec = all(b < a for a, b in zip(energies, energies[1:]))
    rep.add("restricted energies strictly decreasing", dec, None, dec)
    exact = all(
        meas - limit_measure == Fraction(1, 2 ** (n + k + 1))
        for n, meas in zip(range(k, n_top + 1), measures)
    )
    rep.add("measure excess identity 2^-(n+k+1)", exact, None, exact)
    rep.add(
        "restricted Cantor measure",
        float(limit_measure),
        0.0,
        limit_measure == cantor_measure_limit() / 2 ** k,
    )
    above = all(e > float(limit_measure) for e in energies)
    rep.add("energies stay above the restricted measure", min(energies), float(limit_measure), above)
    for n in range(k, min(k + 5, n_top) + 1):
        data = _restricted_data(k, m, n)
        got = solve_binary(data)
        want = _consecutive_config(data)
        ok = got.matching == want.matching
        rep.add(f"solver spans each kept arc at stage {n}", ok, None, ok)
    rep.add(
        "trace mismatch on positive measure",
        float(limit_measure),
        None,
        limit_measure > 0,
    )
    return rep


# ---------------------------------------------------------------------------
# monotone approximation pipeline

def _arc_gaps_and_lengths(data: PiecewiseConstantBoundary) -> Tuple[float, float]:
    arcs = data.support_arcs(1.0)
    lens = [a.measure_radians for a in arcs]
    gaps = []
    for cur, nxt in zip(arcs, arcs[1:] + (arcs[0],)):
        gaps.append((nxt.start.normalized() - cur.end.normalized()).normalized().radians)
    return min(gaps), min(lens)


def monotone_pipeline(
    data: PiecewiseConstantBoundary,
    k_max: int,
    eps0: Optional[float] = None,
) -> ScenarioReport:
    """Sandwich the target solution between eroded and dilated regularizations.

    For shrinking widths eps_k the eroded data g_k and dilated data h_k are
    quantized back to binary, solved, and the containment chain
    u_k <= u_{k+1} <= v_{k+1} <= v_k and the sandwich
    u_k <= u_min <= u_max <= v_k are certified region by region.  Every
    distance reported is between two regions the sandwich proves nested, so
    it is the exact difference of their label areas.  The eroded solutions
    converge to the minimal solution; whether the dilated ones join them or
    stall on a distinct maximal solution is reported, not assumed.
    """
    if not data.is_binary:
        raise DomainError("pipeline input must be binary data")
    if k_max < 1:
        raise DomainError("need at least two widths to test monotonicity")
    rep = ScenarioReport("monotone-pipeline")
    if data.is_constant:
        rep.add("constant data solves trivially", True, None, True)
        return rep
    min_gap, min_len = _arc_gaps_and_lengths(data)
    if eps0 is None:
        eps0 = min(0.45 * min_gap, 0.45 * min_len, 2e-3)
    rep.details["eps0"] = eps0
    if not (0.0 < eps0 < min(min_gap, min_len) / 2.0):
        raise DomainError("eps0 must keep arcs and gaps from degenerating")
    if eps0 * 2.0 ** -k_max < 100 * BISECT_TOL:  # quantize's crossings stop halving the distances
        raise DomainError(f"eps0 * 2**-k_max is below {100 * BISECT_TOL:g}, too narrow for quantize to resolve")
    us, vs = [], []
    for k in range(k_max + 1):
        eps = eps0 * 2.0 ** (-k)
        gk = quantize(eta_minus(data, eps), (0.0, 1.0))
        hk = quantize(eta_plus(data, eps), (0.0, 1.0))
        us.append(solve_binary(gk))
        vs.append(solve_binary(hk))
    chain_ok = True
    for k in range(k_max):
        chain_ok = (
            chain_ok
            and region_subset(us[k], us[k + 1])
            and region_subset(us[k + 1], vs[k + 1])
            and region_subset(vs[k + 1], vs[k])
        )
    rep.add("containment chain holds at every stage", chain_ok, None, chain_ok)
    u_min = solve_binary(data, "minimal")
    u_max = solve_binary(data, "maximal")
    sandwich_ok = region_subset(u_min, u_max) and all(
        region_subset(u, u_min) and region_subset(u_max, v) for u, v in zip(us, vs)
    )
    rep.add("sandwich u_k <= u_min <= u_max <= v_k at every stage", sandwich_ok, None, sandwich_ok)
    dists = [u_min.label_area - u.label_area for u in us]
    rep.details["l1_to_minimal"] = dists
    rep.details["halving_ratios"] = [b / a for a, b in zip(dists, dists[1:])]
    rep.add("eroded solutions approach the minimal one", dists[-1], 1e-2, dists[-1] < 1e-2)
    strict = all(b < a for a, b in zip(dists, dists[1:]))
    rep.add("approach is strictly monotone", strict, None, strict)
    d_min = vs[-1].label_area - u_min.label_area
    d_max = vs[-1].label_area - u_max.label_area
    if d_min < 1e-2:
        kind = "minimal"
    elif d_max < 1e-2:
        kind = "maximal"
    else:
        kind = "other"
    rep.details["dilated_limit_l1"] = {"to_minimal": d_min, "to_maximal": d_max}
    rep.add("dilated limit classified", kind, 1e-2, kind in ("minimal", "maximal"))
    return rep


# ---------------------------------------------------------------------------
# comparison principle

def minmax_check(f: PiecewiseConstantBoundary, g: PiecewiseConstantBoundary) -> ScenarioReport:
    """Comparison principle for ordered binary data: if f <= g, then
    u_min(f) lies inside u_min(g) and u_max(f) inside u_max(g).

    Each verdict is one exact ``region_subset`` test of the two solutions.
    """
    if not (f.is_binary and g.is_binary):
        raise DomainError("min/max check needs binary data")
    if not f.is_leq(g):
        raise DomainError("pointwise order f <= g violated")
    rep = ScenarioReport("minmax")
    for mode in ("minimal", "maximal"):
        ok = region_subset(solve_binary(f, mode), solve_binary(g, mode))
        rep.add(f"{mode} solution of f inside that of g", ok, None, ok)
    return rep


# ---------------------------------------------------------------------------
# solver oracle

def random_binary_data(rng: random.Random, max_pairs: int = 6) -> PiecewiseConstantBoundary:
    """Binary data with breakpoints on the pi/2048 lattice (exact angles)."""
    m = rng.randint(1, max_pairs)
    ks = sorted(rng.sample(range(4096), 2 * m))
    bps = [Angle(Fraction(k, 2048), 0) for k in ks]
    v0 = rng.choice([0.0, 1.0])
    vals = [v0 if i % 2 == 0 else 1.0 - v0 for i in range(2 * m)]
    return PiecewiseConstantBoundary(bps, vals)


def oracle_check(
    n_random: int = 500, seed: int = 20260815, max_pairs: int = 6
) -> ScenarioReport:
    """Dynamic program versus exhaustive enumeration, both tie-break modes.

    Agreement is demanded at the level of the chosen matching, which makes
    the canonical energies literally identical floats.
    """
    rng = random.Random(seed)
    rep = ScenarioReport("oracle")
    mismatches = 0
    energy_exact = True
    ties_seen = 0
    for _ in range(n_random):
        data = random_binary_data(rng, max_pairs)
        opts = enumerate_optimal(data)
        if len(opts) > 1:
            ties_seen += 1
        for mode in ("minimal", "maximal"):
            dp = solve_binary(data, mode)
            ref = select_optimal(opts, mode)
            if dp.matching != ref.matching:
                mismatches += 1
            elif dp.energy != ref.energy:
                energy_exact = False
    named = [opposite_caps(), build_fn(1), build_fn(2), build_gn(1), build_gn(2)]
    for data in named:
        for mode in ("minimal", "maximal"):
            dp = solve_binary(data, mode)
            ref = select_optimal(enumerate_optimal(data), mode)
            if dp.matching != ref.matching:
                mismatches += 1
    rep.details["tie_instances"] = ties_seen
    rep.add("instances checked", n_random + len(named), None, True)
    rep.add("matching mismatches", mismatches, None, mismatches == 0)
    rep.add("canonical energies identical on agreement", energy_exact, None, energy_exact)
    return rep
