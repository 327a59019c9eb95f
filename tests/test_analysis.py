import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lglab.circle_geometry import Angle, DomainError, ccw_measure
from lglab import boundary_data
from lglab.boundary_data import (
    PiecewiseConstantBoundary,
    build_fn,
    build_gn,
    cantor_stage,
    eta_minus,
    opposite_caps,
    quantize,
)
from lglab.chord_solver import ChordConfiguration, enumerate_optimal, solve_binary
from lglab.level_stack import TRACE_MIN_RADIUS, l1_distance, solve_general, trace
from lglab import analysis
from lglab.analysis import (
    ENERGY_THRESHOLD,
    cantor_nonexistence_demo,
    cap_config,
    collect_trace_points,
    cut_config,
    kept_arc_measure,
    minmax_check,
    monotone_pipeline,
    nonlin_demo,
    nonlocality_demo,
    oracle_check,
    random_binary_data,
    sin_meanval_check,
    trapezoid_check,
    u_energy,
    v_energy,
)
from helpers import random_arc_union, sampled_average, shifted, v_limit

PCB = PiecewiseConstantBoundary

# closed-form values recomputed independently of the implementation
U_ORACLE = {
    0: 0.958851077208406,
    1: 0.7456131870490795,
    2: 0.6243644111197385,
    3: 0.5623841357309796,
    4: 0.5312255972013057,
}
V_ORACLE = {
    1: 0.24934946677045539,
    2: 0.3743291227117597,
    3: 0.4368284869308224,
    6: 0.491515966422327,
    12: 0.4992063961092011,
}


class TestClosedForms:
    def test_kept_arc_measure(self):
        for n in range(10):
            assert kept_arc_measure(n) == Fraction(2**n + 1, 2 ** (2 * n + 1))

    @pytest.mark.parametrize("n,expected", sorted(U_ORACLE.items()))
    def test_u_energy(self, n, expected):
        assert u_energy(n) == expected

    @pytest.mark.parametrize("n,expected", sorted(V_ORACLE.items()))
    def test_v_energy(self, n, expected):
        assert v_energy(n) == expected

    def test_threshold_constant(self):
        assert ENERGY_THRESHOLD == 2.0 * math.sin(5.0 / 16.0)
        assert ENERGY_THRESHOLD == 0.6148770291607617
        assert ENERGY_THRESHOLD > 0.5

    def test_named_configs_match_solver(self):
        for n in range(4):
            assert cap_config(n) == solve_binary(build_fn(n))
            assert cap_config(n).energy == u_energy(n)
        for n in range(1, 4):
            assert cut_config(n) == solve_binary(build_gn(n))
            assert cut_config(n).energy == v_energy(n)


class TestTrace:
    def test_constant_function(self):
        est = trace(solve_general(PCB.constant(3.75)), 1.0)
        assert est.averages == (3.75,) * 4
        assert est.limit == 3.75 and est.residual == 0.0
        assert len(est.radii) == 4

    def test_binary_solution_is_exact_on_arc_interior(self, caps):
        u = solve_binary(caps)
        assert trace(u, math.pi / 2).limit == 1.0
        assert trace(u, math.pi).limit == 0.0

    def test_deterministic(self, caps):
        # nothing is sampled, so there is no seed to fix
        u = solve_binary(caps)
        assert trace(u, 2.0) == trace(u, 2.0)
        assert trace(u, math.pi / 4) == trace(u, math.pi / 4)
        with pytest.raises(TypeError):
            trace(u, 2.0, seed=9)

    def test_no_radius_above_the_floor_starves(self, caps):
        # the sampled averages starved on radii too small to keep samples;
        # the exact ones reach the floor, inclusive, at a chord endpoint too
        u = solve_binary(caps)
        floor = TRACE_MIN_RADIUS
        assert trace(u, math.pi / 2, r0=8 * floor).averages == (1.0,) * 4
        assert trace(u, 0.0, r0=8 * floor).averages == (0.0,) * 4
        assert trace(u, 3 * math.pi / 4, r0=8 * floor).radii[-1] == floor
        with pytest.raises(DomainError):
            trace(u, 3 * math.pi / 4, r0=8 * floor, levels=5)
        with pytest.raises(DomainError):
            trace(u, 0.0, r0=math.nextafter(8 * floor, 0.0))

    def test_validation(self, caps):
        u = solve_binary(caps)
        with pytest.raises(DomainError):
            trace(u, 1.0, r0=2.0)
        with pytest.raises(DomainError):
            trace(u, 1.0, levels=2)
        with pytest.raises(TypeError, match="ChordConfiguration or a LevelSetStack"):
            trace(u.evaluate_points, 1.0)

    @pytest.mark.parametrize("samples", [0, 1, 15])
    def test_too_few_samples_rejected(self, caps, samples):
        # trace samples nothing and takes no sample count
        with pytest.raises(TypeError):
            trace(solve_binary(caps), 1.0, samples=samples)

    def test_too_many_samples_rejected(self, caps):
        with pytest.raises(TypeError):
            trace(solve_binary(caps), 1.5, samples=10**11)

    @pytest.mark.parametrize("r0, levels", [(1e-3, 1100), (1e-300, 4)])
    def test_radius_below_double_resolution_rejected(self, caps, r0, levels):
        # below the floor whether or not a chord meets the ball: angle 0 is
        # pi/4 from the caps' nearest chord endpoint, 3 pi/4 is one
        u = solve_binary(caps)
        for x in (0.0, 3 * math.pi / 4):
            with pytest.raises(DomainError, match="below 1e-09"):
                trace(u, x, r0=r0, levels=levels)

    @pytest.mark.parametrize("name", ["caps", "fn2", "one"])
    def test_stack_traces_like_the_binary_solution(self, caps, name):
        # ``lglab trace`` traces solve_general(data) for binary data as well
        data = {"caps": caps, "fn2": build_fn(2), "one": PCB.constant(1.0)}[name]
        ends = [x for x in data._rad] + [x + 1e-4 for x in data._rad]
        for x in (math.pi / 4, math.pi / 2, 1.0, 5.5, *ends):
            assert trace(solve_general(data), x) == trace(solve_binary(data), x)

    def test_levels_halve_radius(self, caps):
        u = solve_binary(caps)
        est = trace(u, 0.5, r0=1e-2, levels=5)
        assert est.radii == tuple(1e-2 * 2.0**-k for k in range(5))

    def test_continuity_points_give_the_data_value(self):
        # 0.1 and 0.7 are not small dyadics: a sampled mean of equal values
        # rounded off them
        data = PCB([Angle(0, 0), Angle(1, 0)], [0.1, 0.7])
        u = solve_general(data)
        assert trace(u, 0.3).limit == 0.1
        assert trace(u, 0.3).averages == (0.1,) * 4
        assert trace(u, 4.0).limit == 0.7
        assert trace(u, 4.0).averages == (0.7,) * 4

    @pytest.mark.parametrize("x", [-1e-300, -3e-190, -1e-17, 0.0])
    def test_angle_just_below_zero(self, x):
        # x % (2 pi) rounds such an x up to 2 pi, past every breakpoint,
        # while the diameter's endpoint at 0 splits its half-balls in two
        data = PCB([Angle(0, 0), Angle(1, 0)], [1.0, 0.0])
        for u in (solve_binary(data), solve_general(data)):
            assert all(abs(a - 0.5) <= 1e-12 for a in trace(u, x).averages)

    def test_large_angle_reduced_exactly(self):
        # 1e6 rad is 159155 turns: reduced modulo the float 2 pi it would be
        # 4e-11 off the breakpoint at exactly 1e6 rad, 40 radii at the floor
        data = PCB([Angle(0, Fraction(10**6)), Angle(0, Fraction(10**6) + 1)], [1.0, 0.0])
        u = solve_binary(data)
        far, near = trace(u, 1e6, r0=8e-9), trace(u, Angle(0, 10**6).normalized().radians, r0=8e-9)
        assert far.averages == near.averages
        assert all(abs(a - 1 / (2 * math.pi)) < 1e-8 for a in far.averages)

    def test_multilevel_average_at_a_breakpoint(self):
        # at a diameter's endpoint each side holds half the half-ball, up to
        # the O(r) bulge of the circle, which is the same on both sides
        data = PCB([Angle(0, 0), Angle(1, 0)], [-2.0, 6.0])
        est = trace(solve_general(data), math.pi, r0=1e-4)
        assert all(abs(a - 2.0) <= 1e-12 for a in est.averages)

    @pytest.mark.parametrize("theta", [0.01, 0.05, 0.25, 0.5, 1.0, 3.0, 4.0, 6.0])
    def test_chord_endpoint_limit(self, theta):
        """At an endpoint of the chord of a 1-arc of measure theta, the
        segment takes the angle theta / 2 of the half-ball's pi at p, so the
        average tends to theta / (2 pi); the circle's curvature moves it by
        (r / (3 pi)) (theta / pi - 1) to first order, within 0.03 r / theta
        for theta up to 0.25."""
        data = PCB([Angle(0, Fraction(1, 3)), Angle(0, Fraction(1, 3) + Fraction(theta))], [1.0, 0.0])
        u = solve_binary(data)
        for x in data._rad:
            for r0 in (8e-3, 8e-4, 8e-5, 8e-6):
                est = trace(u, x, r0=r0)
                for r, a in zip(est.radii, est.averages):
                    dev = a - theta / (2 * math.pi)
                    first = r / (3 * math.pi) * (theta / math.pi - 1)
                    assert abs(dev - first) <= 0.05 * abs(first) + 1e-14
                    assert theta > 0.25 or abs(dev) <= 0.03 * r / theta

    @pytest.mark.parametrize("eps", [2e-4, 5e-4, 1e-3])
    def test_nested_chords_crossing_one_ball(self, eps):
        # chord (0, 3) holds chord (1, 2), and both cross the half-balls
        # about transition 1: the inner segment counts with the opposite sign
        x = 1.0
        bps = [Angle(0, Fraction(t)) for t in (x - eps, x, x + 0.5, x + 1.0)]
        u = ChordConfiguration(PCB(bps, [1.0, 0.0, 1.0, 0.0]), [(0, 3), (1, 2)])
        est = trace(u, x, r0=2e-3)
        assert all(0.05 < a < 0.95 for a in est.averages)
        for k, (r, exact) in enumerate(zip(est.radii, est.averages)):
            mean, se = sampled_average(u.evaluate_points, x, r, samples=100_000, seed=k)
            assert abs(exact - mean) <= 5 * se, (r, exact, mean, se)

    def test_limit_trace_matches_sampled_v_limit(self):
        # nonlin_demo's balls: the exact averages of cut_config(12) against
        # Monte Carlo of the limit function itself
        limit = cut_config(12)
        balls = [(math.pi / 2, 1e-3), (3 * math.pi / 2, 1e-3)]
        balls += [(a.radians, 8e-4) for a in boundary_data._kept_endpoints(6)[:8]]
        for k, (x, r0) in enumerate(balls):
            est = trace(limit, x, r0=r0)
            for j, (r, exact) in enumerate(zip(est.radii, est.averages)):
                mean, se = sampled_average(v_limit, x, r, samples=20_000, seed=100 * k + j)
                assert abs(exact - mean) <= 5 * se + 5e-4, (x, r, exact, mean, se)


def _binary_solutions():
    return st.builds(lambda seed, mode: solve_binary(random_binary_data(random.Random(seed), 6), mode),
                     st.integers(0, 10**6), st.sampled_from(["minimal", "maximal"]))


def _stacks():
    def build(seed):
        rng = random.Random(seed)
        m = rng.randint(1, 5)
        bps = [Angle(Fraction(k, 64)) for k in sorted(rng.sample(range(128), 2 * m))]
        return solve_general(PCB(bps, [rng.choice([-1.5, 0.0, 0.25, 2.0]) for _ in bps]))
    return st.builds(build, st.integers(0, 10**6))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_binary_solutions(), _stacks()), st.integers(0, 10**6), st.floats(-6.0, 0.0),
       st.floats(-2.0, 2.0))
def test_exact_averages_agree_with_monte_carlo(solution, pick, log_r, shift):
    """Half-ball averages against a test-side Monte Carlo of the solution
    itself, at balls centred on or near a transition, so that chords cross
    them, or anywhere when the solution is constant."""
    if isinstance(solution, ChordConfiguration):
        configs, values, u = [solution], (0.0, 1.0), solution.evaluate_points
    else:
        configs, values, u = [sl.config for sl in solution.slices], solution.values, solution
    ends = [x for cfg in configs for x in cfg.data._rad]
    r = 10.0**log_r * 0.5
    x = (ends[pick % len(ends)] if ends else 0.0) + shift * r
    est = trace(solution, x, r0=r)
    mean, se = sampled_average(u, x, r, samples=20_000, seed=pick)
    spread = values[-1] - values[0]
    assert abs(est.averages[0] - mean) <= 5 * se + 5e-4 * spread


class TestCollectTracePoints:
    def test_count_and_values(self, caps):
        pts = collect_trace_points(caps, count=20)
        assert len(pts) == 20
        assert {v for _, v in pts} == {0.0, 1.0}
        for ang, v in pts:
            assert caps.value_at(ang) == v

    def test_narrow_arcs_are_skipped(self):
        f4 = build_fn(4)
        pts = collect_trace_points(f4, count=10)
        # kept arcs at stage 4 are narrower than the 0.2 radian floor
        assert all(v == 0.0 for _, v in pts)

    def test_no_wide_arc_raises(self):
        skinny = PCB.from_arcs(
            [a for a in __import__("lglab").cantor_stage(4).kept][:1], 1.0, 0.0
        )
        # the complement arc is wide; restrict the floor instead
        with pytest.raises(DomainError):
            collect_trace_points(skinny, count=5, min_measure=7.0)

    def test_sub_ulp_arc_is_not_a_full_turn(self):
        # the 1-arc is narrower than one ulp of its float endpoints
        data = PCB([Angle.of_pi(Fraction(1, 2)), Angle(Fraction(1, 2), Fraction(1, 10**20))], [1.0, 0.0])
        pts = collect_trace_points(data, count=10)
        assert len(pts) == 10
        for ang, v in pts:
            assert data.value_at(ang) == v

    def test_constant_data_is_one_full_arc(self):
        data = PCB.constant(1.0)
        pts = collect_trace_points(data, count=5)
        assert len(pts) == 5
        for ang, v in pts:
            assert data.value_at(ang) == v == 1.0


class TestVLimit:
    def test_center_and_cap_values(self):
        pts = np.array([[0.0, 0.0], [0.0, -0.999], [0.0, 0.999]])
        out = v_limit(pts)
        assert out[0] == 1.0  # far from every removed segment
        assert out[1] == 1.0  # opposite the Cantor window
        assert out[2] == 0.0  # inside the first removed segment

    def test_agrees_with_deep_cut_solution(self):
        u8 = solve_binary(build_gn(8)).evaluate_points
        pts = np.array(
            [[math.cos(t) * r, math.sin(t) * r] for t in np.linspace(0, 6.2, 40) for r in (0.3, 0.9)]
        )
        assert np.array_equal(v_limit(pts), u8(pts))

    @pytest.mark.parametrize("r", [1.0 - 1e-6, 1.0 - 1e-9, np.nextafter(1.0, 0.0)])
    def test_agrees_with_stage_12_near_the_circle(self, r):
        """Near the circle the limit needs deep stages: at these radii the
        stage-12 solution has the limit's labels, some of them 0 (inside
        removed segments) and some 1."""
        th = np.linspace(math.pi / 2 - 0.5, math.pi / 2 + 0.5, 4001)
        pts = r * np.column_stack([np.cos(th), np.sin(th)])
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < 1.0]
        assert len(pts) > 1000
        want = cut_config(12).evaluate_points(pts)
        assert np.array_equal(v_limit(pts), want)
        assert 0 < np.count_nonzero(want == 0) < len(pts)

    @pytest.mark.parametrize("point", [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [math.nan, 0.0]])
    def test_rejects_points_not_strictly_inside(self, point):
        with pytest.raises(DomainError, match="strictly inside the disk"):
            v_limit(np.array([[0.0, 0.0], point]))


class TestInequalities:
    def test_trapezoid_report(self):
        rep = trapezoid_check(3)
        assert rep.passed
        names = [v.name for v in rep.verdicts]
        assert any("min" in n for n in names)
        assert all(v.tolerance is not None for v in rep.verdicts)

    def test_trapezoid_validation(self):
        with pytest.raises(DomainError):
            trapezoid_check(0)
        with pytest.raises(DomainError):
            trapezoid_check(25)

    def test_sin_meanval_report(self):
        rep = sin_meanval_check(range(6, 9))
        assert rep.passed

    def test_sin_meanval_needs_deep_k(self):
        with pytest.raises(DomainError):
            sin_meanval_check(range(4, 8))


class TestScenarios:
    def test_nonexistence(self):
        rep = cantor_nonexistence_demo(4)
        assert rep.passed
        first = next(v for v in rep.verdicts if v.name.startswith("first stage"))
        assert first.value == 3

    def test_nonlinearity(self):
        rep = nonlin_demo(4)
        assert rep.passed
        with pytest.raises(DomainError):
            nonlin_demo(3)

    def test_nonlinearity_fails_when_stages_do_not_nest(self, monkeypatch):
        from lglab import analysis

        cut = analysis.cut_config
        # stage 4 replaced by stage 1, whose region is larger than stage 3's
        monkeypatch.setattr(analysis, "cut_config", lambda n: cut(1) if n == 4 else cut(n))
        rep = nonlin_demo(4)
        nest = next(v for v in rep.verdicts if v.name == "consecutive stage solutions nest")
        assert nest.value is False and not nest.passed
        assert not rep.passed

    def test_nonlocality(self):
        rep = nonlocality_demo(1, 1)
        assert rep.passed
        rep2 = nonlocality_demo(2, 2)
        assert rep2.passed

    def test_cantor_scenarios_trace_nothing(self, monkeypatch):
        # the zero limit's trace is 0 by definition: no scenario samples it
        def refuse(*args, **kwargs):
            raise AssertionError("the zero function must not be traced")

        monkeypatch.setattr(analysis, "trace", refuse)
        assert cantor_nonexistence_demo(8).passed
        assert nonlocality_demo(1, 1).passed
        assert nonlocality_demo(2, 2).passed

    def test_cantor_stage_data_built_once(self, monkeypatch):
        built = Counter()
        real = boundary_data._kept_endpoints

        def counted(n):
            built[n] += 1
            return real(n)

        monkeypatch.setattr(boundary_data, "_kept_endpoints", counted)
        monkeypatch.setattr(analysis, "_kept_endpoints", counted)
        analysis.cap_config.cache_clear()
        cantor_nonexistence_demo(8)
        assert built == Counter(range(7))  # stages 0..6, each once
        built.clear()
        nonlocality_demo(2, 3)
        assert built == Counter(range(2, 8))  # stages k..k+5, each once

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_restricted_data_lies_in_its_window(self, k):
        for m in range(1, 2 ** k + 1):
            window = cantor_stage(k).kept[m - 1]
            for n in range(k, k + 6):
                block = 2 ** (n - k)
                data = analysis._restricted_data(k, m, n)
                arcs = data.support_arcs(1.0)
                assert len(arcs) == block
                for arc in arcs:  # closed-interval coverage, in exact angle arithmetic
                    off = ccw_measure(window.start, arc.start)
                    assert ((off + arc.measure) - window.measure).sign() <= 0
                kept = cantor_stage(n).kept[(m - 1) * block : m * block]
                assert data == PiecewiseConstantBoundary.from_arcs(kept, 1.0, 0.0)

    def test_nonlocality_validation(self):
        with pytest.raises(DomainError):
            nonlocality_demo(1, 3)
        with pytest.raises(DomainError):
            nonlocality_demo(0, 1)

    def test_oracle_small(self):
        rep = oracle_check(n_random=40, seed=99)
        assert rep.passed
        mm = next(v for v in rep.verdicts if "mismatches" in v.name)
        assert mm.value == 0


class TestMonotonePipeline:
    def test_fixed_instance(self, caps):
        rep = monotone_pipeline(caps, 3)
        assert rep.passed
        kind = next(v for v in rep.verdicts if "classified" in v.name)
        assert kind.value == "maximal"

    def test_generic_instance(self):
        rng = random.Random(2)
        F = random_arc_union(rng, n_arcs=3)
        rep = monotone_pipeline(F, 3)
        assert rep.passed
        kind = next(v for v in rep.verdicts if "classified" in v.name)
        assert kind.value == "minimal"
        dists = rep.details["l1_to_minimal"]
        assert dists[-1] < 1e-2

    @pytest.mark.parametrize("name", ["fixed-arcs", "opposite-caps"])
    def test_exact_distances_match_monte_carlo(self, name):
        # the two inputs of ``lglab verify monotone``
        if name == "fixed-arcs":
            bps = [Angle(Fraction(x), 0) for x in ("1/4", "3/4", "9/8", "7/4")]
            data = PCB(bps, [1.0, 0.0, 1.0, 0.0])
        else:
            data = opposite_caps()
        rep = monotone_pipeline(data, 5)
        u_min = solve_binary(data, "minimal").evaluate_points
        for k, exact in enumerate(rep.details["l1_to_minimal"]):
            eps = rep.details["eps0"] * 2.0 ** (-k)
            u_k = solve_binary(quantize(eta_minus(data, eps), (0.0, 1.0))).evaluate_points
            est = l1_distance(u_k, u_min, samples=200_000)
            assert abs(est.value - exact) <= 4.0 * est.stderr

    def test_requires_binary(self):
        with pytest.raises(DomainError):
            monotone_pipeline(shifted(PCB.constant(0.5), 0.1), 2)

    def test_eps_validation(self, caps):
        with pytest.raises(DomainError):
            monotone_pipeline(caps, 2, eps0=2.0)

    def test_unresolvable_eps_raises(self, caps):
        # below quantize's resolution every eroded stage solves alike, and the
        # report would fail its monotone verdict for the wrong reason
        for eps0 in (1e-12, 1e-300):
            with pytest.raises(DomainError, match="too narrow for quantize"):
                monotone_pipeline(caps, 2, eps0=eps0)
        assert monotone_pipeline(caps, 2).passed


def _lattice_pair(rng: random.Random, q: int):
    """Ordered binary data on the pi/q lattice: g takes a random bit per
    lattice arc, and f is g with random bits cleared."""
    bps = [Angle(Fraction(k, q)) for k in range(2 * q)]
    g_bits = [rng.getrandbits(1) for _ in bps]
    f_bits = [b & rng.getrandbits(1) for b in g_bits]
    return PiecewiseConstantBoundary(bps, f_bits), PiecewiseConstantBoundary(bps, g_bits)


class TestMinMax:
    def test_nested_cantor_pair(self):
        rep = minmax_check(build_fn(1), build_gn(1))
        assert rep.passed

    def test_identical_data(self, caps):
        rep = minmax_check(caps, caps)
        assert rep.passed

    def test_order_violation(self, caps):
        with pytest.raises(DomainError):
            minmax_check(caps, caps.complement())

    def test_non_binary_data(self, caps):
        half = PiecewiseConstantBoundary(caps.breakpoints, [0.5, 0.0, 0.5, 0.0])
        with pytest.raises(DomainError):
            minmax_check(half, caps)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cantor_stages_nest(self, n):
        rep = minmax_check(build_fn(n), build_gn(n))
        assert [v.passed for v in rep.verdicts] == [True, True]

    def test_seeded_lattice_corpus(self):
        # a failing pair is a counterexample to the per-cell area rule
        # giving the extremal solution, not an instance to skip
        rng = random.Random(20261019)
        most = 0
        for q in (4, 8, 16, 32, 64):
            for _ in range(30):
                f, g = _lattice_pair(rng, q)
                rep = minmax_check(f, g)
                assert [v.passed for v in rep.verdicts] == [True, True], (q, f, g)
                most = max(most, len(f.breakpoints) + len(g.breakpoints))
        assert most > 100

    def test_swapped_solutions_fail_both_verdicts(self, monkeypatch):
        f, g = build_fn(2), build_gn(2)
        swap = {f: g, g: f}
        real = analysis.solve_binary
        monkeypatch.setattr(analysis, "solve_binary", lambda data, mode: real(swap[data], mode))
        rep = minmax_check(f, g)
        assert len(rep.verdicts) == 2
        assert not any(v.passed for v in rep.verdicts)

    def test_exact_on_a_tie(self, monkeypatch, caps):
        # caps has two optimal matchings; g adds the 1-arc [7pi/8, 9pi/8]
        g = PiecewiseConstantBoundary(
            [Angle.of_pi(Fraction(k, 8)) for k in (2, 6, 7, 9, 10, 14)],
            [1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
        )

        def refuse(*args, **kwargs):
            raise AssertionError("minmax_check must use no float predicate and no sampling")

        monkeypatch.setattr(ChordConfiguration, "evaluate_points", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert len(enumerate_optimal(caps)) == 2
        rep = minmax_check(caps, g)
        assert [v.passed for v in rep.verdicts] == [True, True]


class TestRandomGenerators:
    def test_random_binary_data(self):
        rng = random.Random(7)
        for _ in range(50):
            data = random_binary_data(rng, max_pairs=6)
            assert data.is_binary
            assert 2 <= len(data.breakpoints) <= 12

    def test_random_arc_union_respects_floors(self):
        rng = random.Random(8)
        for _ in range(20):
            F = random_arc_union(rng, min_len=0.15, min_gap=0.12)
            arcs = F.support_arcs()
            assert all(a.measure_radians >= 0.15 - 1e-12 for a in arcs)
            gaps = F.support_arcs(0.0)
            assert all(g.measure_radians >= 0.12 - 1e-12 for g in gaps)


def test_report_structure():
    rep = trapezoid_check(2)
    d = {"scenario": rep.scenario, "n": len(rep.verdicts)}
    assert d["scenario"] == "trapezoid"
    assert "seed" not in vars(rep)  # the CLI writes the seed of the run
    for v in rep.verdicts:
        assert isinstance(v.passed, bool)
