import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

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
from lglab.level_stack import l1_distance, solve_general
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
    trace,
    trapezoid_check,
    u_energy,
    v_energy,
    v_limit,
)
from helpers import random_arc_union, shifted

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
        est = trace(lambda p: np.full(len(p), 3.75), 1.0)
        assert abs(est.limit - 3.75) < 1e-12
        assert est.residual < 1e-12
        assert not est.starved
        assert len(est.radii) == 4

    def test_binary_solution_is_exact_on_arc_interior(self, caps):
        u = solve_binary(caps).evaluate_points
        assert trace(u, math.pi / 2).limit == 1.0
        assert trace(u, math.pi).limit == 0.0

    def test_deterministic(self, caps):
        u = solve_binary(caps).evaluate_points
        assert trace(u, 2.0, seed=9) == trace(u, 2.0, seed=9)

    def test_starvation_flag(self, caps):
        u = solve_binary(caps).evaluate_points
        est = trace(u, math.pi / 2, samples=16)
        assert est.starved

    def test_validation(self, caps):
        u = solve_binary(caps).evaluate_points
        with pytest.raises(DomainError):
            trace(u, 1.0, r0=2.0)
        with pytest.raises(DomainError):
            trace(u, 1.0, levels=2)

    @pytest.mark.parametrize("samples", [0, 1, 15])
    def test_too_few_samples_rejected(self, caps, samples):
        # so few samples can leave a radius with no point: a nan average
        u = solve_binary(caps).evaluate_points
        with pytest.raises(DomainError):
            trace(u, 1.0, samples=samples)

    def test_too_many_samples_rejected(self, caps):
        # refused before an array of that size is drawn
        u = solve_binary(caps).evaluate_points
        with pytest.raises(DomainError, match="samples"):
            trace(u, 1.5, samples=10**11)

    @pytest.mark.parametrize("r0, levels", [(1e-3, 1100), (1e-300, 4)])
    def test_radius_below_double_resolution_rejected(self, caps, r0, levels):
        # at angle 0 every point that close to (1, 0) rounds onto the circle
        u = solve_binary(caps).evaluate_points
        with pytest.raises(DomainError):
            trace(u, 0.0, r0=r0, levels=levels)

    @pytest.mark.parametrize("name", ["caps", "fn2", "one"])
    def test_stack_traces_like_the_binary_solution(self, caps, name):
        # ``lglab trace`` traces solve_general(data) for binary data as well
        data = {"caps": caps, "fn2": build_fn(2), "one": PCB.constant(1.0)}[name]
        for x, s in ((math.pi / 4, 0), (math.pi / 2, 3), (1.0, 9), (5.5, 11)):
            stack = trace(solve_general(data), x, seed=s)
            assert stack == trace(solve_binary(data).evaluate_points, x, seed=s)

    def test_levels_halve_radius(self, caps):
        u = solve_binary(caps).evaluate_points
        est = trace(u, 0.5, r0=1e-2, levels=5)
        assert est.radii == tuple(1e-2 * 2.0**-k for k in range(5))


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
