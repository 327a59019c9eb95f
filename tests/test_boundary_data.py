import json
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from lglab.circle_geometry import Angle, Arc, DomainError
from lglab.boundary_data import (
    DiscreteConvolution,
    PiecewiseConstantBoundary,
    build_fn,
    build_gn,
    cantor_measure_limit,
    cantor_stage,
    eta_minus,
    eta_plus,
    opposite_caps,
    quantize,
)
from helpers import abs_integral, convolution_abs_integral, integral, kept_total, midpoint, partition_sum, shifted

PCB = PiecewiseConstantBoundary


def _pi(q):
    return Angle.of_pi(Fraction(q))


class TestConstruction:
    def test_sorting_and_rotation_invariance(self):
        bps = [_pi("1/2"), _pi("3/2")]
        a = PCB(bps, [1.0, 0.0])
        b = PCB(list(reversed(bps)), [0.0, 1.0])
        assert a == b

    def test_adjacent_equal_values_merge(self):
        data = PCB([_pi(0), _pi("1/2"), _pi(1)], [1.0, 1.0, 0.0])
        assert len(data.breakpoints) == 2
        assert data.values == (1.0, 0.0)

    def test_cyclic_merge_across_the_seam(self):
        data = PCB([_pi("1/4"), _pi(1), _pi("7/4")], [1.0, 0.0, 1.0])
        assert len(data.breakpoints) == 2
        assert data.value_at(_pi(0)) == 1.0

    def test_all_equal_collapses_to_constant(self):
        data = PCB([_pi(0), _pi(1)], [2.5, 2.5])
        assert data.is_constant
        assert data.values == (2.5,)

    def test_duplicate_breakpoints_rejected(self):
        with pytest.raises(DomainError):
            PCB([_pi("1/3"), _pi("1/3")], [0.0, 1.0])

    def test_value_count_mismatch(self):
        with pytest.raises(DomainError):
            PCB([_pi(0)], [0.0, 1.0])
        with pytest.raises(DomainError):
            PCB([], [0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(DomainError):
            PCB([_pi(0), _pi(1)], [0.0, bad])
        with pytest.raises(DomainError):
            PCB.constant(bad)

    @pytest.mark.parametrize(
        "blob",
        [
            [],
            {"values": ["1"]},
            {"breakpoints": 5, "values": ["1"]},
            {"breakpoints": [["1/4"]], "values": ["1"]},
            {"breakpoints": ["12", "34"], "values": ["0", "1"]},
            {"breakpoints": [[None, "0"]], "values": ["1"]},
            {"breakpoints": [["1/4", "0"], ["1", "0"]], "values": "01"},
            {"breakpoints": [["1/0", "0"], ["1", "0"]], "values": ["0", "1"]},
            {"breakpoints": [["x", "0"], ["1", "0"]], "values": ["0", "1"]},
            {"breakpoints": [["0", "0"], ["1", "0"]], "values": ["0", "one"]},
        ],
    )
    def test_from_json_dict_rejects_malformed(self, blob):
        with pytest.raises(DomainError):
            PCB.from_json_dict(blob)

    def test_from_arcs(self):
        data = PCB.from_arcs([Arc(_pi("1/4"), _pi("3/4"))])
        assert data.value_at(_pi("1/2")) == 1.0
        assert data.value_at(_pi("3/2")) == 0.0
        with pytest.raises(DomainError):
            PCB.from_arcs([Arc(_pi(0), _pi(1)), Arc(_pi("1/2"), _pi("3/2"))])

    def test_from_arcs_empty(self):
        assert PCB.from_arcs([]) == PCB.constant(0.0)


class TestEvaluation:
    def test_right_continuity(self, caps):
        # value at a breakpoint belongs to the arc that starts there
        assert caps.value_at(_pi("1/4")) == 1.0
        assert caps.value_at(_pi("3/4")) == 0.0

    def test_call_matches_value_at(self, caps):
        th = np.linspace(0.0, math.tau, 37)
        many = caps(th)
        one = [caps.value_at(float(t)) for t in th]
        assert np.array_equal(many, one)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("data", [opposite_caps(), PCB.constant(1.0)], ids=["caps", "constant"])
    def test_value_at_rejects_non_finite(self, data, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must be finite"):
                data.value_at(x)

    def test_superlevel(self):
        data = PCB([_pi(0), _pi("1/2"), _pi(1)], [0.0, 0.5, 1.0])
        up = data.superlevel(0.75)
        assert up.values == (0.0, 1.0)
        assert up.value_at(_pi("3/2")) == 1.0
        assert data.superlevel(-1.0).is_constant

    def test_is_leq(self, caps):
        assert caps.is_leq(PCB.constant(1.0))
        assert not caps.is_leq(caps.complement())
        assert caps.is_leq(caps)

    def test_integral(self, caps):
        assert integral(caps) == pytest.approx(math.pi, abs=1e-12)
        assert abs_integral(shifted(caps, -0.5)) == pytest.approx(math.pi, abs=1e-12)

    def test_integral_over(self, caps):
        lo = np.array([0.0, math.pi / 4])
        hi = np.array([math.tau, math.pi / 2])
        out = caps.integral_over(lo, hi)
        assert out[0] == pytest.approx(math.pi, abs=1e-12)
        assert out[1] == pytest.approx(math.pi / 4, abs=1e-12)


def test_json_roundtrip_is_exact(caps):
    f2 = build_fn(2)
    for data in (caps, f2, PCB.constant(0.25)):
        blob = json.dumps(data.to_json_dict())
        back = PCB.from_json_dict(json.loads(blob))
        assert back == data
        assert all(p == q for p, q in zip(back.breakpoints, data.breakpoints))


class TestCantorStages:
    def test_stage0_is_base_arc(self):
        st = cantor_stage(0)
        assert len(st.kept) == 1
        assert st.kept[0].measure == Angle(0, 1)
        assert midpoint(st.kept[0]) == _pi("1/2")

    def test_exact_kept_measure(self):
        for n in range(13):
            st = cantor_stage(n)
            assert st.kept_arc_measure == Fraction(2**n + 1, 2 ** (2 * n + 1))
            assert kept_total(st) == Fraction(2**n + 1, 2 ** (n + 1))

    def test_removed_counts(self):
        measures = [arc.measure for arc in cantor_stage(4).removed]
        assert all(m.pi_mult == 0 for m in measures)
        assert Counter(m.offset for m in measures) == {Fraction(1, 4**ell): 2 ** (ell - 1) for ell in range(1, 5)}

    def test_data_equal_the_arcs_checked_by_from_arcs(self):
        def exact(data):
            return [(b.pi_mult, b.offset) for b in data.breakpoints], data.values

        for n in range(11):
            st = cantor_stage(n)
            assert exact(build_fn(n)) == exact(PCB.from_arcs(st.kept, 1.0, 0.0))
            assert exact(build_gn(n)) == exact(PCB.from_arcs(st.removed, 0.0, 1.0))
            measures = Counter(arc.measure for arc in st.removed)
            assert measures == {Angle(0, Fraction(1, 4**ell)): 2 ** (ell - 1) for ell in range(1, n + 1)}

    def test_limit_measure(self):
        assert cantor_measure_limit(Fraction(1, 4)) == Fraction(1, 2)
        assert cantor_measure_limit(Fraction(1, 3)) == Fraction(0)

    def test_validation(self):
        with pytest.raises(DomainError):
            cantor_stage(-1)


class TestCantorData:
    def test_fn_structure(self):
        for n in range(5):
            fn = build_fn(n)
            assert fn.is_binary
            assert len(fn.breakpoints) == 2 ** (n + 1)
            st = cantor_stage(n)
            for arc in st.kept:
                assert fn.value_at(midpoint(arc)) == 1.0
            assert fn.value_at(_pi("3/2")) == 0.0

    def test_gn_structure(self):
        # g_n is 1 outside the removed arcs, so its base value is 1
        for n in range(1, 5):
            gn = build_gn(n)
            assert gn.is_binary
            assert len(gn.breakpoints) == 2 * (2**n - 1)
            st = cantor_stage(n)
            for arc in st.removed:
                assert gn.value_at(midpoint(arc)) == 0.0
            assert gn.value_at(_pi("3/2")) == 1.0

    def test_g0_is_constant_one(self):
        assert build_gn(0) == PCB.constant(1.0)

    def test_fn_below_gn(self):
        for n in (1, 3):
            assert build_fn(n).is_leq(build_gn(n))


class TestErosionDilation:
    def setup_method(self):
        self.F = PCB.from_arcs([Arc(_pi("1/4"), _pi("3/4")), Arc(_pi("9/8"), _pi("7/4"))])

    def test_eta_plus_profile(self):
        eps = 0.05
        eta = eta_plus(self.F, eps)
        assert eta([_pi("1/2").radians])[0] == 1.0
        # one eps outside the support the ramp has fully decayed
        gap_mid = (_pi("3/4").radians + _pi("9/8").radians) / 2
        assert eta([gap_mid])[0] == 0.0
        edge = _pi("3/4").radians + eps / 2
        assert 0.0 < eta([edge])[0] < 1.0

    def test_eta_minus_profile(self):
        eps = 0.05
        eta = eta_minus(self.F, eps)
        assert eta([_pi("1/2").radians])[0] == 1.0
        assert eta([_pi("3/4").radians])[0] == 0.0
        inside = _pi("3/4").radians - eps / 2
        assert 0.0 < eta([inside])[0] < 1.0

    @pytest.mark.parametrize("ramp", [eta_plus, eta_minus])
    @pytest.mark.parametrize(
        "spec",
        [
            [(0, 3), (1, 2)],  # nested
            [(0, 3), (2, 4)],  # overlapping
            [(5, 1), (0.5, 2)],  # overlapping across the wrap
            [(1, 1), (2, 3)],  # empty
        ],
    )
    def test_overlapping_arcs_rejected(self, ramp, spec):
        arcs = [Arc(Angle.of_radians(s), Angle.of_radians(e)) for s, e in spec]
        with pytest.raises(DomainError):
            ramp(arcs, 0.1)

    def test_quantized_erosion_shrinks_support(self):
        eps = 0.05
        u = quantize(eta_minus(self.F, eps), (0.0, 1.0))
        v = quantize(eta_plus(self.F, eps), (0.0, 1.0))
        assert u.is_leq(self.F)
        assert self.F.is_leq(v)
        # support boundary moved by eps/2 (the 1/2-crossing of the ramp)
        arcs_u = u.support_arcs()
        arcs_f = self.F.support_arcs()
        assert len(arcs_u) == len(arcs_f)
        shrink = arcs_f[0].measure_radians - arcs_u[0].measure_radians
        assert shrink == pytest.approx(eps, abs=1e-9)


class TestExactSorting:
    """Arc starts that are equal as doubles but differ exactly."""

    S = _pi("1/4")
    X = Arc(S, S + Angle.of_radians(Fraction(1, 10**30)))
    Y = Arc(S + Angle.of_radians(Fraction(2, 10**30)), S + Angle.of_radians(1))
    Z = Arc(S + Angle.of_radians(2), S + Angle.of_radians(3))

    def test_starts_tie_as_doubles(self):
        assert self.X.start.radians == self.Y.start.radians
        assert self.X.start < self.Y.start

    def test_eta_minus_orders_arcs_exactly(self):
        # a float-only sort keeps Y before X and builds the gaps between the
        # wrong neighbours, which puts the middle of Y in a gap
        mid_y = self.S.radians + 0.5
        for arcs in ([self.Y, self.X, self.Z], [self.X, self.Y, self.Z]):
            assert eta_minus(arcs, 0.05)([mid_y])[0] == 1.0
            assert eta_plus(arcs, 0.05)([mid_y])[0] == 1.0

    def test_from_arcs_and_constructor_sort_exactly(self):
        data = PCB.from_arcs([self.Y, self.Z, self.X])
        assert data == PCB.from_arcs([self.X, self.Y, self.Z])
        assert data.breakpoints[:3] == (self.X.start, self.X.end, self.Y.start)
        shuffled = PCB(reversed(data.breakpoints), reversed(data.values))
        assert shuffled == data


class TestQuantize:
    def test_exact_on_piecewise_constant(self):
        data = PCB([_pi(0), _pi(1)], [0.2, 0.9])
        q = quantize(data, (0.0, 1.0))
        assert q.values == (0.0, 1.0)
        assert q.breakpoints == data.breakpoints

    def test_tie_goes_up(self):
        data = PCB.constant(0.5)
        assert quantize(data, (0.0, 1.0)).values == (1.0,)

    def test_levels_validation(self):
        with pytest.raises(DomainError):
            quantize(PCB.constant(0.0), ())
        with pytest.raises(DomainError):
            quantize(PCB.constant(0.0), (1.0, 1.0))

    @pytest.mark.parametrize("resolution", [0, -5, 2.5, "8192"])
    def test_resolution_validation(self, resolution):
        with pytest.raises(DomainError, match="resolution"):
            quantize(np.cos, (-1.0, 1.0), resolution=resolution)

    def test_evaluable_crossing_location(self):
        fn = np.cos
        q = quantize(fn, (-1.0, 1.0), resolution=512)
        assert len(q.breakpoints) == 2
        crossings = sorted(b.radians for b in q.breakpoints)
        assert crossings[0] == pytest.approx(math.pi / 2, abs=1e-9)
        assert crossings[1] == pytest.approx(3 * math.pi / 2, abs=1e-9)

    def test_multi_level_steps_cross_every_threshold_in_order(self):
        # within one grid cell the ramp climbs 0 -> 5 near 1 rad and falls
        # back near 4 rad; every midpoint threshold is crossed once each way,
        # in the order the ramp passes it
        ramp = lambda th: 5 * np.clip((th - 1.0) * 4000, 0, 1) - 5 * np.clip((th - 4.0) * 3000, 0, 1)
        q = quantize(ramp, tuple(float(v) for v in range(6)), resolution=256)
        assert q.values == (1.0, 2.0, 3.0, 4.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0)
        x = [b.radians for b in q.breakpoints]
        assert x == sorted(x)
        up = [1.0 + (k + 0.5) / 20000 for k in range(5)]
        down = [4.0 + (k + 0.5) / 15000 for k in range(5)]
        assert x == pytest.approx(up + down, abs=1e-9)

    def test_jump_over_several_levels_is_one_breakpoint(self):
        # each jump crosses two or three midpoint thresholds at one angle
        steps = lambda th: np.where(th < 1.0, 0.0, np.where(th < 3.0, 9.0, 3.0))
        q = quantize(steps, (0.0, 3.0, 4.5, 9.0))
        assert q.values == (9.0, 3.0, 0.0)
        assert [b.radians for b in q.breakpoints] == pytest.approx([1.0, 3.0, math.tau], abs=1e-9)

    def test_jumps_mixed_with_smooth_crossings(self):
        g = lambda th: np.floor(4 * np.sin(3 * th) ** 2 + 3 * (th > 2))
        q = quantize(g, tuple(float(v) for v in range(8)))
        th = np.linspace(0.0, math.tau, 4001)[:-1] + 1e-4
        assert np.array_equal(q(th), g(th))
        jump = [k for k, b in enumerate(q.breakpoints) if abs(b.radians - 2.0) < 1e-9]
        assert len(jump) == 1
        assert q.values[jump[0]] - q.values[jump[0] - 1] == 3.0

    def test_missed_feature_warns_and_recovers(self):
        spike = lambda th: ((th > 2.99) & (th < 3.01)).astype(float)
        with pytest.warns(RuntimeWarning, match="missed a feature"):
            q = quantize(spike, (0.0, 1.0), resolution=64)
        assert q.value_at(3.0) == 1.0
        assert q.value_at(2.0) == 0.0


class TestDiscreteConvolution:
    def test_partition_of_unity(self, caps):
        conv = DiscreteConvolution(caps, eps=0.02)
        th = np.linspace(0.0, math.tau, 10_001)
        assert np.max(np.abs(partition_sum(conv, th) - 1.0)) < 1e-12

    def test_reproduces_data_away_from_jumps(self, caps):
        eps = 0.01
        conv = DiscreteConvolution(caps, eps=eps)
        th = np.array([math.pi / 2, math.pi, 3 * math.pi / 2, 0.0])
        assert np.max(np.abs(conv(th) - caps(th))) < 1e-12

    def test_ramp_is_inside_unit_interval(self, caps):
        conv = DiscreteConvolution(caps, eps=0.05)
        th = np.linspace(0.0, math.tau, 4001)
        vals = conv(th)
        assert np.all(vals >= -1e-12)
        assert np.all(vals <= 1.0 + 1e-12)

    @pytest.mark.parametrize("data", [np.cos, eta_plus(opposite_caps(), 0.1)], ids=["function", "ramp"])
    def test_rejects_data_not_piecewise_constant(self, data):
        with pytest.raises(DomainError, match="piecewise constant"):
            DiscreteConvolution(data, eps=0.05)

    def test_integral_roughly_preserved(self, caps):
        conv = DiscreteConvolution(caps, eps=0.03)
        assert convolution_abs_integral(conv) == pytest.approx(abs_integral(caps), rel=0.05)
