import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lglab.circle_geometry import Angle, Arc, DomainError
from lglab.boundary_data import PiecewiseConstantBoundary, build_fn, build_gn, cantor_stage
from lglab.chord_solver import (
    ChordConfiguration,
    _pick,
    Transition,
    enumerate_optimal,
    region_subset,
    select_optimal,
    solve_binary,
    transitions_of,
)
from lglab import level_stack
from lglab.analysis import Verdict, cap_config, cut_config, random_binary_data
from lglab.level_stack import disk_samples, l1_distance, solve_general, trace
from helpers import cross_product_labels, segment_parity_area

PCB = PiecewiseConstantBoundary

# independently recomputed closed forms for the worked instances
E_CAPS = 2.8284271247461903  # 2*sqrt(2)
E_F1 = 0.7456131870490795  # 4*sin(3/16)
AREA_CAPS_MIN = 0.5707963267948966  # pi/2 - 1
AREA_CAPS_MAX = 2.5707963267948966  # pi/2 + 1


def _pi(q):
    return Angle.of_pi(Fraction(q))


class TestTransitions:
    def test_caps(self, caps):
        trans = transitions_of(caps)
        assert solve_binary(caps).base_value == 0
        assert [t.rising for t in trans] == [True, False, True, False]

    def test_gn_base_is_one(self):
        # g_1 equals 1 outside the removed arc, so the scan starts falling
        data = build_gn(1)
        assert solve_binary(data).base_value == 1
        assert [t.rising for t in transitions_of(data)] == [False, True]

    def test_constant(self):
        data = PCB.constant(1.0)
        assert transitions_of(data) == ()
        assert solve_binary(data).base_value == 1

    def test_rejects_non_binary(self):
        data = PCB([_pi(0), _pi(1)], [0.0, 0.5])
        with pytest.raises(DomainError):
            transitions_of(data)
        with pytest.raises(DomainError):
            ChordConfiguration(data, ((0, 1),))


class TestConfigurationValidation:
    def test_crossing_matching_rejected(self, caps):
        with pytest.raises(DomainError):
            ChordConfiguration(caps, ((0, 2), (1, 3)))

    def test_parity_rejected(self, caps):
        # pairing two rising transitions leaves no consistent labels
        with pytest.raises(DomainError):
            ChordConfiguration(caps, ((0, 2), (1, 3)))
        with pytest.raises(DomainError):
            ChordConfiguration(caps, ((0, 0), (1, 3)))

    def test_incomplete_matching_rejected(self, caps):
        with pytest.raises(DomainError):
            ChordConfiguration(caps, ((0, 1),))

    @pytest.mark.parametrize("matching", [((0.0, 1.0), (2, 3)), ((0, 1.5), (2, 3)), ((0, 1, 2),), ((0,),), (5,)])
    def test_malformed_pairs_rejected(self, caps, matching):
        with pytest.raises(DomainError, match="index pairs"):
            ChordConfiguration(caps, matching)

    def test_numpy_indices_stored_as_int(self, caps):
        cfg = ChordConfiguration(caps, np.array([[2, 3], [1, 0]], dtype=np.int64))
        assert cfg.matching == ((0, 1), (2, 3))
        assert all(type(k) is int for pair in cfg.matching for k in pair)
        assert cfg == solve_binary(caps, "minimal")


class TestTransitionSet:
    """The data is the one validated form of its transitions: its
    ``Transition`` view is built once and shared by every configuration."""

    def test_transitions_of_builds_a_set(self, caps):
        trans = transitions_of(caps)
        assert trans is transitions_of(caps)
        assert trans == tuple(Transition(bp, v == 1.0) for bp, v in zip(caps.breakpoints, caps.values))
        assert all(t.angle is bp for t, bp in zip(trans, caps.breakpoints, strict=True))

    def test_configurations_share_the_set(self, caps, monkeypatch):
        trans = transitions_of(caps)
        calls = []
        real = Angle.normalized
        monkeypatch.setattr(Angle, "normalized", lambda a: calls.append(a) or real(a))
        cfg = ChordConfiguration(caps, ((0, 1), (2, 3)))
        other = ChordConfiguration(caps, ((0, 3), (1, 2)))
        assert cfg.data is caps and cfg.transitions is trans and other.transitions is trans
        assert cfg.base_value == other.base_value == 0
        assert calls == []  # no second validation

    def test_equal_data_gives_equal_configurations(self):
        def band():
            return PCB.from_arcs([Arc(_pi("1/4"), _pi("3/4")), Arc(_pi("5/4"), _pi("7/4"))])

        a, b = band(), band()
        assert a is not b
        ca, cb = ChordConfiguration(a, ((0, 1), (2, 3))), ChordConfiguration(b, ((2, 3), (0, 1)))
        assert ca == cb and hash(ca) == hash(cb)
        flipped = ChordConfiguration(a.complement(), ((0, 1), (2, 3)))
        assert flipped.base_value == 1 - ca.base_value
        assert flipped != ca
        assert ca != ChordConfiguration(a, ((0, 3), (1, 2)))

    def test_enumerated_configurations_share_one_set(self):
        rng = random.Random(5)
        for _ in range(10):
            data = random_binary_data(rng, max_pairs=5)
            trans = transitions_of(data)
            optima = enumerate_optimal(data)
            assert len({id(c.transitions) for c in optima}) == 1
            assert optima[0].transitions is trans
            assert all(c.data is data for c in optima)


class TestEnergyAndArea:
    def test_caps_minimal(self, caps):
        cfg = solve_binary(caps, "minimal")
        assert cfg.matching == ((0, 1), (2, 3))
        assert abs(cfg.energy - E_CAPS) < 1e-12
        assert abs(cfg.label_area - AREA_CAPS_MIN) < 1e-12

    def test_caps_maximal(self, caps):
        cfg = solve_binary(caps, "maximal")
        assert cfg.matching == ((0, 3), (1, 2))
        assert abs(cfg.energy - E_CAPS) < 1e-12
        assert abs(cfg.label_area - AREA_CAPS_MAX) < 1e-12

    def test_f1(self):
        cfg = solve_binary(build_fn(1))
        assert cfg.energy == E_F1

    def test_complement_area(self, caps, band):
        a = solve_binary(caps, "minimal").label_area
        b = solve_binary(band, "maximal").label_area
        assert a + b == pytest.approx(math.pi, abs=1e-12)

    def test_cells_partition_disk(self, caps):
        # the label-1 region and that of the flipped data tile the disk
        for mode in ("minimal", "maximal"):
            cfg = solve_binary(caps, mode)
            other = ChordConfiguration(caps.complement(), cfg.matching)
            for a, b in ((cfg, other), (other, cfg)):
                total = math.fsum((segment_parity_area(a), b.label_area))
                assert total == pytest.approx(math.pi, abs=1e-10)

    def test_area_against_cell_decomposition(self):
        rng = random.Random(410)
        for _ in range(25):
            data = random_binary_data(rng, max_pairs=4)
            for mode in ("minimal", "maximal"):
                cfg = solve_binary(data, mode)
                by_cells = segment_parity_area(cfg)
                assert cfg.label_area == pytest.approx(by_cells, abs=1e-9)


class TestEvaluation:
    def test_labels_match_cells(self, caps):
        cfg = solve_binary(caps, "minimal")
        pts = np.array([[0.0, 0.9], [0.0, -0.9], [0.0, 0.0], [0.9, 0.0]])
        assert list(cfg.evaluate_points(pts)) == [1, 1, 0, 0]

    def test_trivial_configs(self):
        one = solve_binary(PCB.constant(1.0))
        zero = solve_binary(PCB.constant(0.0))
        pts = np.array([[0.3, -0.2], [0.0, 0.0]])
        assert list(one.evaluate_points(pts)) == [1, 1]
        assert list(zero.evaluate_points(pts)) == [0, 0]
        assert one.label_area == pytest.approx(math.pi, abs=1e-15)
        assert zero.label_area == 0.0

    def test_function_wrapper(self, caps):
        u = solve_binary(caps).evaluate_points
        assert u(np.array([[0.0, 0.9]]))[0] == 1

    @pytest.mark.parametrize("pt", [[math.nan, 0.0], [0.0, math.nan], [1.0, 0.0], [2.0, 0.0]])
    def test_rejects_points_not_strictly_inside(self, caps, pt):
        cfg = solve_binary(caps)
        with pytest.raises(DomainError, match="strictly inside"):
            cfg.evaluate_points(np.array([[0.0, 0.0], pt]))

    def test_no_points(self, caps):
        assert solve_binary(caps).evaluate_points(np.empty((0, 2))).shape == (0,)

    @pytest.mark.parametrize("seed", [0xC0FFEE, 1, 7])
    def test_disk_samples_pass_the_guard(self, seed):
        # the samples l1_distance and trace draw stay clear of the circle
        pts = disk_samples(200_000, seed)
        assert np.hypot(pts[:, 0], pts[:, 1]).max() < 0.9999998

    def test_segment_table_matches_cross_product_predicate(self, caps):
        """The segment test ``p . normal > cos`` labels every point as the
        cross-product test against the chord's endpoints does, on Halton
        points and on points within 1e-2 of the circle."""
        rng = np.random.default_rng(20261020)
        r = 1.0 - 1e-2 * rng.random(20000)
        th = 2.0 * math.pi * rng.random(20000)
        pts = np.concatenate([disk_samples(20000), np.column_stack([r * np.cos(th), r * np.sin(th)])])
        configs = [solve_binary(caps, mode) for mode in ("minimal", "maximal")]
        configs += [make(n) for make in (cap_config, cut_config) for n in range(7)]
        data_rng = random.Random(20261020)
        for _ in range(100):
            data = random_binary_data(data_rng, max_pairs=12)
            configs += [solve_binary(data, mode) for mode in ("minimal", "maximal")]
        for cfg in configs:
            assert np.array_equal(cfg.evaluate_points(pts), cross_product_labels(cfg, pts)), cfg


class TestSolverAgainstEnumeration:
    def test_dp_equals_enumeration_on_randoms(self):
        rng = random.Random(31337)
        for _ in range(80):
            data = random_binary_data(rng, max_pairs=5)
            for mode in ("minimal", "maximal"):
                dp = solve_binary(data, mode)
                ref = select_optimal(enumerate_optimal(data), mode)
                assert dp.matching == ref.matching
                assert dp.energy == ref.energy

    def test_structure_families(self):
        for n in range(5):
            assert solve_binary(build_fn(n)).matching == cap_config(n).matching
        for n in range(1, 5):
            assert solve_binary(build_gn(n)).matching == cut_config(n).matching

    def test_mode_validation(self, caps):
        with pytest.raises(DomainError):
            solve_binary(caps, "fastest")

    def test_pick_is_order_independent(self):
        # energies within ENERGY_REL_TOL tie; the smaller area term then wins,
        # and exact area ties go to the first candidate
        e = np.array([1.0, 1.0 + 1e-13, 1.0 - 1e-13, 1.1])
        a = np.array([0.5, 0.2, 0.2, -1.0])
        for perm in itertools.permutations(range(4)):
            chosen = perm[_pick(e[list(perm)], a[list(perm)])]
            assert chosen == min((1, 2), key=perm.index)
        cols = np.stack([e, e[::-1]], axis=1), np.stack([a, a[::-1]], axis=1)
        assert list(_pick(*cols)) == [1, 1]
        # the window is measured from the minimum, so a chain of near-ties
        # cannot walk the choice 1.8 tolerances away from it
        e = np.array([1.0, 1.0 + 0.9e-12, 1.0 + 1.8e-12])
        a = np.array([0.0, -1.0, -2.0])
        for perm in itertools.permutations(range(3)):
            assert perm[_pick(e[list(perm)], a[list(perm)])] == 1

    def test_caps_tie(self, caps):
        opts = enumerate_optimal(caps)
        assert len(opts) == 2
        assert {o.matching for o in opts} == {((0, 1), (2, 3)), ((0, 3), (1, 2))}

    def test_enumeration_cap(self):
        data = build_fn(4)
        assert len(transitions_of(data)) == 32
        with pytest.raises(DomainError, match="capped at 16"):
            enumerate_optimal(data)


class TestRegionSubset:
    def test_reflexive_and_family_nesting(self):
        configs = {n: solve_binary(build_fn(n)) for n in range(4)}
        for n, cfg in configs.items():
            assert region_subset(cfg, cfg)
        for n in range(3):
            assert region_subset(configs[n + 1], configs[n])
            assert not region_subset(configs[n], configs[n + 1])

    def test_shared_endpoint_chords(self):
        # f2's caps share chord endpoints with f1's; containment is exact
        assert region_subset(solve_binary(build_fn(2)), solve_binary(build_fn(1)))

    def test_fn_inside_gn_solution(self):
        for n in (1, 2, 3):
            assert region_subset(solve_binary(build_fn(n)), solve_binary(build_gn(n)))

    def test_disjoint_regions(self, caps, band):
        u = solve_binary(caps, "minimal")
        w = solve_binary(band, "minimal")
        assert not region_subset(u, w)
        assert not region_subset(w, u)

    def test_ranks_reuse_the_normalized_angles(self, monkeypatch):
        # the data keeps the breakpoints it normalized, so containment
        # normalizes nothing again
        inner, outer = solve_binary(build_fn(2)), solve_binary(build_gn(2))
        for cfg in (inner, outer):
            assert cfg.data.breakpoints == tuple(t.angle.normalized() for t in cfg.transitions)
        calls = []
        real = Angle.normalized
        monkeypatch.setattr(Angle, "normalized", lambda a: calls.append(a) or real(a))
        assert region_subset(inner, outer)
        assert calls == []

    def test_trivial_cases(self, caps):
        u = solve_binary(caps, "minimal")
        one = solve_binary(PCB.constant(1.0))
        zero = solve_binary(PCB.constant(0.0))
        assert region_subset(zero, u)
        assert region_subset(u, one)
        assert not region_subset(one, u)
        assert not region_subset(u, zero)

    def test_minimal_inside_maximal(self):
        rng = random.Random(52)
        for _ in range(20):
            data = random_binary_data(rng, max_pairs=4)
            lo = solve_binary(data, "minimal")
            hi = solve_binary(data, "maximal")
            assert region_subset(lo, hi)


def _cells(bits, q):
    """Binary data on the pi/q lattice: ``bits[k]`` holds on [k, k+1]*pi/q."""
    ks = [k for k in range(len(bits)) if bits[k] != bits[k - 1]]
    if not ks:
        return PCB.constant(float(bits[0]))
    return PCB([Angle(Fraction(k, q), 0) for k in ks], [float(bits[k]) for k in ks])


def _runs(rng, q, max_runs=5):
    """0/1 cells on the pi/q lattice with at most ``max_runs`` runs of 1s."""
    m = rng.randint(0, min(max_runs, q))
    cuts = sorted(rng.sample(range(2 * q), 2 * m))
    bits = [0] * (2 * q)
    for a, b in zip(cuts[::2], cuts[1::2]):
        bits[a:b] = [1] * (b - a)
    return [1 - b for b in bits] if rng.random() < 0.2 else bits


@pytest.mark.parametrize("seed", range(10))
def test_region_subset_against_samples(seed):
    """When ``region_subset`` says yes, no sample point is inner 1 and outer
    0.  Coarse lattices make shared endpoints and coincident chords common;
    the pairs mix unrelated data with ordered data f <= f|g."""
    rng = random.Random(seed)
    pts = disk_samples(20000)
    contained = 0
    for _ in range(100):
        q = rng.choice([2, 4, 8, 16, 32])
        a, b = _runs(rng, q), _runs(rng, q)
        kind = rng.randrange(3)
        if kind == 1:
            b = [x | y for x, y in zip(a, b)]
        elif kind == 2:
            a = [x & y for x, y in zip(a, b)]
        inner = solve_binary(_cells(a, q), rng.choice(("minimal", "maximal")))
        outer = solve_binary(_cells(b, q), rng.choice(("minimal", "maximal")))
        if region_subset(inner, outer):
            contained += 1
            escape = (inner.evaluate_points(pts) == 1) & (outer.evaluate_points(pts) == 0)
            assert not escape.any()
    assert contained >= 30


def _lattice_config(arcs, matching):
    """Label 1 on the arcs [a, b]*pi/8, with the chords ``matching`` (indices
    into the transitions sorted from angle 0)."""
    data = PCB.from_arcs([Arc(_pi(Fraction(a, 8)), _pi(Fraction(b, 8))) for a, b in arcs])
    return ChordConfiguration(data, matching)


class TestRegionSubsetByHand:
    def test_shared_endpoint(self):
        small = _lattice_config([(2, 4)], [(0, 1)])
        large = _lattice_config([(2, 6)], [(0, 1)])
        assert region_subset(small, large)
        assert not region_subset(large, small)

    def test_coincident_chord(self):
        one = _lattice_config([(2, 4)], [(0, 1)])
        two = _lattice_config([(2, 4), (8, 12)], [(0, 1), (2, 3)])
        assert region_subset(one, two)
        assert not region_subset(two, one)

    def test_touching_only_at_an_endpoint(self):
        left = _lattice_config([(2, 4)], [(0, 1)])
        right = _lattice_config([(4, 6)], [(0, 1)])
        assert not region_subset(left, right)
        assert not region_subset(right, left)
        # the two caps of one data set inside its band: each cap chord meets
        # both band chords at its endpoints and lies inside the band
        caps = _lattice_config([(2, 6), (10, 14)], [(0, 1), (2, 3)])
        band = _lattice_config([(2, 6), (10, 14)], [(0, 3), (1, 2)])
        assert region_subset(caps, band)
        assert not region_subset(band, caps)

    def test_crossing_chord_escapes(self):
        # the data order holds, but the outer chord (1, 9) properly crosses
        # the inner band chord (8, 10)
        band = _lattice_config([(2, 8), (10, 14)], [(0, 3), (1, 2)])
        caps = _lattice_config([(1, 9), (10, 15)], [(0, 1), (2, 3)])
        assert not region_subset(band, caps)
        assert region_subset(band, _lattice_config([(1, 9), (10, 15)], [(0, 3), (1, 2)]))


def test_transition_cap():
    angles = [Angle(Fraction(k, 3000), 0) for k in range(2002)]
    vals = [float(k % 2) for k in range(2002)]
    with pytest.raises(DomainError):
        solve_binary(PCB(angles, vals))


def test_repr_and_equality(caps):
    a = solve_binary(caps, "minimal")
    b = ChordConfiguration(a.data, a.matching)
    assert a == b
    assert hash(a) == hash(b)
    assert "ChordConfiguration" in repr(a)
    assert a != solve_binary(caps, "maximal")


@pytest.mark.parametrize("name", ["Transition", "CantorStage", "LevelSlice", "L1Estimate", "Verdict",
                                  "TraceEstimate", "_NearChord", "Angle", "Arc"])
def test_records_are_immutable(name, caps):
    cfg = solve_binary(caps)
    make = {
        "Transition": lambda: (Transition(Angle.of_pi(Fraction(1, 4)), True), "rising"),
        "CantorStage": lambda: (cantor_stage(1), "kept"),
        "LevelSlice": lambda: (solve_general(caps).slices[0], "config"),
        "L1Estimate": lambda: (l1_distance(cfg.evaluate_points, cfg.evaluate_points, 1000), "value"),
        "Verdict": lambda: (Verdict("v", 1.0, None, True), "passed"),
        "TraceEstimate": lambda: (trace(cfg, 1.0), "limit"),
        "_NearChord": lambda: (level_stack._near_chords(cfg, math.pi / 4, 1e-3)[1][0], "dist"),
        "Angle": lambda: (Angle(1), "offset"),
        "Arc": lambda: (Arc(Angle(0), Angle(1)), "end"),
    }
    record, field = make[name]()
    assert type(record).__name__ == name
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    assert getattr(record, field) is value
