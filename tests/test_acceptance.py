"""Acceptance battery: ten scripted checks against closed forms and oracles.

Each test prints a single machine-greppable PASS/FAIL line and pins its
tolerances inline.  All ten run comfortably inside a one-minute budget each.
"""

import functools
import math
import random
from fractions import Fraction

import numpy as np

from lglab.circle_geometry import Angle, ccw_measure, segment_area
from lglab.boundary_data import (
    DiscreteConvolution,
    PiecewiseConstantBoundary,
    build_fn,
    build_gn,
    cantor_measure_limit,
    cantor_stage,
)
from lglab.chord_solver import (
    enumerate_optimal,
    region_subset,
    solve_binary,
)
from lglab.level_stack import disk_samples, trace
from lglab.analysis import (
    cantor_nonexistence_demo,
    cap_config,
    collect_trace_points,
    cut_config,
    kept_arc_measure,
    monotone_pipeline,
    nonlin_demo,
    random_binary_data,
    sin_meanval_check,
    trapezoid_check,
    u_energy,
    v_energy,
)
from helpers import (
    abs_integral,
    convolution_abs_integral,
    kept_total,
    partition_sum,
    random_arc_union,
)

PCB = PiecewiseConstantBoundary


def _caps():
    bps = [Angle.of_pi(Fraction(2 * k + 1, 4)) for k in range(4)]
    return PCB(bps, [1.0, 0.0, 1.0, 0.0])


def criterion(n):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n} FAIL")
                raise
            print(f"ACCEPTANCE {n} PASS")

        return wrapper

    return deco


@criterion(1)
def test_criterion_01_cantor_arithmetic_exact():
    for n in range(13):
        expected = Fraction(2**n + 1, 2 ** (2 * n + 1))
        assert kept_arc_measure(n) == expected
        st = cantor_stage(n)
        assert st.kept_arc_measure == expected
        assert kept_total(st) == Fraction(2**n + 1, 2 ** (n + 1))
    totals = [kept_total(cantor_stage(n)) for n in range(13)]
    assert all(b < a for a, b in zip(totals, totals[1:]))
    # the stagewise excess over the limit is exactly 2^-(n+1)
    assert totals[12] - Fraction(1, 2) == Fraction(1, 2**13)
    assert cantor_measure_limit(Fraction(1, 4)) == Fraction(1, 2)


@criterion(2)
def test_criterion_02_energy_limit():
    margin = 1e-12
    energies = [u_energy(n) for n in range(2, 15)]
    for n, e in zip(range(2, 15), energies):
        assert e - 0.5 > margin
        assert 2.0 ** (-n) - (e - 0.5) > margin
    assert all(b < a for a, b in zip(energies, energies[1:]))


@criterion(3)
def test_criterion_03_threshold_constant():
    threshold = 2.0 * math.sin(5.0 / 16.0)  # one-line independent recomputation
    assert threshold == 0.6148770291607617
    assert threshold > 0.5
    first = next(n for n in range(0, 15) if u_energy(n) < threshold)
    assert first == 3
    assert u_energy(2) > threshold


@criterion(4)
def test_criterion_04_solver_oracle_equivalence():
    rng = random.Random(20260815)
    instances = [random_binary_data(rng, max_pairs=6) for _ in range(500)]
    instances += [build_fn(n) for n in range(3)]
    instances += [build_gn(n) for n in range(3)]
    pts = disk_samples(100_000, seed=424242)
    for data in instances:
        opts = enumerate_optimal(data)
        emin = min(c.energy for c in opts)
        lo = solve_binary(data, "minimal")
        hi = solve_binary(data, "maximal")
        assert lo.energy == emin  # exact float equality, no tolerance
        assert hi.energy == emin
        inside_min = lo.evaluate_points(pts) == 1
        for cfg in opts:
            assert region_subset(lo, cfg) and region_subset(cfg, hi)
            excess = math.pi * float(np.mean(inside_min & (cfg.evaluate_points(pts) == 0)))
            assert excess < 1e-3


@criterion(5)
def test_criterion_05_structure_reproduction():
    for n in range(7):
        got = solve_binary(build_fn(n))
        assert got.matching == cap_config(n).matching
        assert got.energy == cap_config(n).energy
        got = solve_binary(build_gn(n))
        assert got.matching == cut_config(n).matching
        assert got.energy == cut_config(n).energy
    for n in range(1, 13):
        assert v_energy(n) < 0.5


@criterion(6)
def test_criterion_06_nonuniqueness():
    caps = _caps()
    opts = enumerate_optimal(caps)
    assert len(opts) == 2
    for cfg in opts:
        assert abs(cfg.energy - 2.0 * math.sqrt(2.0)) <= 1e-12
    area_min = solve_binary(caps, "minimal").label_area
    area_max = solve_binary(caps, "maximal").label_area
    assert abs(area_min - (math.pi / 2 - 1.0)) <= 1e-6
    assert abs(area_max - (math.pi / 2 + 1.0)) <= 1e-6
    assert abs(area_min - 0.5707963) <= 1e-6
    assert abs(area_max - 2.5707963) <= 1e-6


@criterion(7)
def test_criterion_07_inequality_suites():
    rep = trapezoid_check(10)
    assert rep.passed
    for v in rep.verdicts:
        if "grid min" in v.name:
            assert v.value > 0.0
        if "finite difference" in v.name:
            assert v.value <= 1e-6
    rep = sin_meanval_check(range(6, 21))
    assert rep.passed


@criterion(8)
def test_criterion_08_trace_suite():
    caps = _caps()
    solved = [(build_fn(n), "minimal") for n in range(7)]
    solved += [(build_gn(n), "minimal") for n in range(1, 7)]
    solved += [(caps, "minimal"), (caps, "maximal")]
    for data, mode in solved:
        u = solve_binary(data, mode)
        for ang, val in collect_trace_points(data, count=20):
            est = trace(u, ang, r0=1e-3)
            assert est.limit == val
            assert est.residual <= 0.05
    # limit function of the complement family attains the data on the set
    rep = nonlin_demo(8)
    sector = [v for v in rep.verdicts if "sector" in v.name or "trace" in v.name]
    assert sector and all(v.passed for v in sector)
    # the zero limit of the Cantor family misses the data on the set
    rep = cantor_nonexistence_demo(8)
    zero = [v for v in rep.verdicts if "trace" in v.name]
    assert zero and all(v.passed for v in zero)


@criterion(9)
def test_criterion_09_monotone_pipeline():
    rng = random.Random(90210)
    for _ in range(20):
        F = random_arc_union(rng)
        gaps = [a.measure_radians for a in F.support_arcs(0.0)]
        rep = monotone_pipeline(F, 3)
        chain = next(v for v in rep.verdicts if "chain" in v.name)
        assert chain.passed
        assert rep.details["eps0"] < min(gaps) / 2.0
        assert all(d < 1e-2 for d in rep.details["l1_to_minimal"])


def _random_multilevel(rng):
    m = rng.randint(2, 6)
    ks = sorted(rng.sample(range(4096), 2 * m))
    bps = [Angle(Fraction(k, 2048), 0) for k in ks]
    vals, prev = [], None
    for _ in bps:
        v = round(rng.uniform(-2.0, 2.0), 3)
        while v == prev or v == 0.0:
            v = round(rng.uniform(-2.0, 2.0), 3)
        vals.append(v)
        prev = v
    if vals[0] == vals[-1]:
        vals[-1] = vals[-1] + 0.75
    return PCB(bps, vals)


def _continuity_points(data, eps, count):
    """Angles at distance > 3*eps from every breakpoint."""
    pts = []
    n = len(data.breakpoints)
    arcs = sorted(
        (
            (ccw_measure(data.breakpoints[i], data.breakpoints[(i + 1) % n]).radians, i)
            for i in range(n)
        ),
        reverse=True,
    )
    offsets = [0.5, 0.25, 0.75, 0.375, 0.625]
    for meas, i in arcs:
        if meas <= 8.0 * eps:
            continue
        start = data.breakpoints[i].normalized().radians
        for f in offsets:
            x = (start + 3.5 * eps + f * (meas - 7.0 * eps)) % math.tau
            pts.append(x)
            if len(pts) == count:
                return pts
    return pts


@criterion(10)
def test_criterion_10_discrete_convolution():
    rng = random.Random(8675309)
    eps = 2e-3
    th = np.linspace(0.0, math.tau, 10_000, endpoint=False)
    for _ in range(50):
        data = _random_multilevel(rng)
        conv = DiscreteConvolution(data, eps)
        assert float(np.max(np.abs(partition_sum(conv, th) - 1.0))) <= 1e-12
        ratio = convolution_abs_integral(conv, 20_001) / abs_integral(data)
        assert ratio <= 10.0
        pts = _continuity_points(data, eps, 10)
        assert len(pts) == 10
        for x in pts:
            want = data.value_at(x)
            got = conv([x])[0]
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
