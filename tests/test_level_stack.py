import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lglab.circle_geometry import Angle, DomainError
from lglab.boundary_data import PiecewiseConstantBoundary, build_fn
from lglab.chord_solver import region_subset, solve_binary
from lglab.level_stack import (
    DEFAULT_SEED,
    LevelSetStack,
    LevelSlice,
    NestednessError,
    bv_energy,
    check_nestedness,
    disk_samples,
    l1_distance,
    solve_general,
)
from helpers import scaled, shifted

PCB = PiecewiseConstantBoundary
E_F1 = 0.7456131870490795


def _pi(q):
    return Angle.of_pi(Fraction(q))


def _three_level():
    return PCB([_pi(0), _pi("1/2"), _pi(1)], [0.0, 0.5, 1.0])


class TestDiskSamples:
    def test_deterministic(self):
        a = disk_samples(1000, seed=5)
        b = disk_samples(1000, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, disk_samples(1000, seed=6))

    def test_memoized_and_read_only(self):
        a = disk_samples(1000, seed=5)
        assert disk_samples(1000, seed=5) is a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0

    def test_inside_disk_and_roughly_uniform(self):
        pts = disk_samples(20_000)
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert np.all(r < 1.0)
        # area fraction of the half-plane x > 0 is 1/2
        assert np.mean(pts[:, 0] > 0) == pytest.approx(0.5, abs=0.01)

    # 4095..4097 straddle the base-2 digit table (4096 entries) and 6561 is the
    # base-3 one; 20 000 and 200 000 run over several periods of both.
    @pytest.mark.parametrize("n", [1, 3, 4095, 4096, 4097, 6561, 20_000, 200_000])
    @pytest.mark.parametrize("seed", [0, DEFAULT_SEED, 424242, 2**40 + 3])
    def test_bitwise_equal_to_scipy_halton(self, n, seed):
        from scipy.stats import qmc
        uv = qmc.Halton(d=2, scramble=True, seed=seed).random(n)
        r = np.sqrt(uv[:, 0])
        th = 2.0 * math.pi * uv[:, 1]
        expected = np.column_stack([r * np.cos(th), r * np.sin(th)])
        got = disk_samples(n, seed)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("module", ["lglab", "lglab.cli"])
def test_import_loads_no_scipy(module):
    root = Path(__file__).resolve().parents[1]
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    res = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


class TestSolveGeneral:
    def test_binary_data_gives_single_slice(self, caps):
        stack = solve_general(caps)
        assert len(stack.slices) == 1
        assert stack.values == (0.0, 1.0)
        assert stack.slices[0].threshold == 0.5
        assert stack.slices[0].gap == 1.0
        assert stack.slices[0].config == solve_binary(caps)

    def test_three_levels(self):
        stack = solve_general(_three_level())
        assert stack.values == (0.0, 0.5, 1.0)
        assert [s.threshold for s in stack.slices] == [0.25, 0.75]
        assert [s.gap for s in stack.slices] == [0.5, 0.5]

    def test_constant(self):
        stack = solve_general(PCB.constant(0.7))
        assert len(stack.slices) == 0
        assert stack(np.array([[0.1, 0.2]]))[0] == 0.7
        assert bv_energy(stack) == 0.0

    def test_evaluate_returns_exact_data_values(self):
        stack = solve_general(_three_level())
        pts = disk_samples(500, seed=11)
        vals = set(np.unique(stack(pts)))
        assert vals <= {0.0, 0.5, 1.0}

    def test_evaluate_rejects_outside_points(self, caps):
        stack = solve_general(caps)
        with pytest.raises(DomainError):
            stack(np.array([[1.5, 0.0]]))
        with pytest.raises(DomainError):
            stack(np.array([[0.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("point", [[math.nan, 0.0], [0.0, math.nan], [math.nan, math.nan]])
    def test_evaluate_rejects_nan_points(self, caps, point):
        stack = solve_general(caps)
        with pytest.raises(DomainError, match="strictly inside the disk"):
            stack(np.array([[0.0, 0.0], point]))

    def test_evaluate_checks_points_once(self, monkeypatch):
        # one guard at the stack's entry; the slices label the checked points
        from lglab import chord_solver, level_stack

        calls = []

        def counted(pts):
            calls.append(len(pts))
            return real(pts)

        real = chord_solver.interior_radius
        monkeypatch.setattr(chord_solver, "interior_radius", counted)
        monkeypatch.setattr(level_stack, "interior_radius", counted)
        data = PCB([_pi(Fraction(k, 4)) for k in range(6)], [0.0, 0.5, 1.0, 0.25, 0.75, 2.0])
        stack = solve_general(data)
        assert len(stack.slices) == 5
        pts = disk_samples(300, seed=3)
        labels = stack(pts)
        assert calls == [300]
        # the same labels as the guarded evaluation of every slice
        count = sum(sl.config.evaluate_points(pts) for sl in stack.slices)
        assert np.array_equal(labels, np.asarray(stack.values)[count])
        assert calls == [300] * 6

    def test_mode_passthrough(self, caps):
        lo = solve_general(caps, "minimal")
        hi = solve_general(caps, "maximal")
        assert lo.slices[0].config.label_area < hi.slices[0].config.label_area

    def test_superlevel_consistency(self):
        """Stack slices solve exactly the superlevel problems of the data."""
        data = _three_level()
        stack = solve_general(data)
        for sl in stack.slices:
            assert sl.config == solve_binary(data.superlevel(sl.threshold))

    ONE_UP = math.nextafter(1.0, 2.0)

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, 9e307, 1.7e308],  # the top midpoint overflows to inf
            [ONE_UP, math.nextafter(ONE_UP, 2.0)],  # the midpoint rounds to the upper value
        ],
    )
    def test_every_slice_keeps_its_upper_value(self, values):
        turns = [Fraction(2 * k, len(values)) for k in range(len(values))]
        data = PCB([_pi(q) for q in turns], values)
        stack = solve_general(data)
        assert stack.values == tuple(values)
        for lo, hi, sl in zip(values, values[1:], stack.slices):
            assert sl.config == solve_binary(data.superlevel(lo))
            assert len(sl.config.matching) == 1
            assert sl.threshold == lo / 2 + hi / 2
        # a point near the middle of the arc where the data takes its top value
        mid = math.pi * float(turns[-1] / 2 + 1)
        assert stack(np.array([[0.99 * math.cos(mid), 0.99 * math.sin(mid)]]))[0] == values[-1]

    def test_affine_invariance_of_structure(self, caps):
        # scaling and shifting the values must not change the chords
        data = shifted(scaled(caps, 3.0), -1.0)
        stack = solve_general(data)
        assert len(stack.slices) == 1
        assert stack.slices[0].config.matching == solve_binary(caps).matching
        assert stack.values == (-1.0, 2.0)


class TestBVEnergy:
    def test_binary(self, caps):
        stack = solve_general(caps)
        assert bv_energy(stack) == solve_binary(caps).energy

    def test_scaled_binary(self):
        stack = solve_general(scaled(build_fn(1), 2.0))
        assert bv_energy(stack) == 2.0 * E_F1

    def test_coarea_sum(self):
        stack = solve_general(_three_level())
        expected = math.fsum(s.gap * s.config.energy for s in stack.slices)
        assert bv_energy(stack) == expected


class TestNestedness:
    def test_good_stack_passes(self):
        stack = solve_general(_three_level())
        assert isinstance(stack, LevelSetStack)

    def test_violation_raises(self, caps, band):
        # sets of caps and band are disjoint, so stacking them is invalid
        a = LevelSlice(0.25, 0.5, solve_binary(caps))
        b = LevelSlice(0.75, 0.5, solve_binary(band))
        with pytest.raises(NestednessError) as info:
            check_nestedness([a, b])
        assert info.value.t_low == 0.25
        assert info.value.t_high == 0.75

    @settings(max_examples=150, deadline=None)
    @given(
        q=st.sampled_from([2, 4, 8, 16]),
        data=st.data(),
        mode=st.sampled_from(["minimal", "maximal"]),
    )
    def test_slices_nest_exactly(self, q, data, mode):
        ks = data.draw(st.lists(st.integers(0, 2 * q - 1), min_size=2, max_size=10, unique=True))
        vals = []
        for i in range(len(ks)):
            # neighbours differ, cyclically
            banned = {vals[-1], vals[0]} if i == len(ks) - 1 else set(vals[-1:])
            allowed = [v for v in (0.0, 1.0, 2.5, 4.0) if v not in banned]
            vals.append(data.draw(st.sampled_from(allowed)))
        stack = solve_general(PCB([Angle(Fraction(k, q), 0) for k in sorted(ks)], vals), mode)
        for low, high in zip(stack.slices, stack.slices[1:]):
            assert region_subset(high.config, low.config)

    def test_values_must_increase(self, caps):
        sl = LevelSlice(0.5, 1.0, solve_binary(caps))
        with pytest.raises(DomainError):
            LevelSetStack((1.0, 0.0), (sl,))


class TestL1Distance:
    def test_zero_distance(self, caps):
        u = solve_binary(caps).evaluate_points
        est = l1_distance(u, u, samples=2000)
        assert est.value == 0.0
        assert est.stderr == 0.0
        assert est.n_samples == 2000

    def test_known_distance(self, caps, band):
        u = solve_binary(caps, "minimal").evaluate_points
        w = solve_binary(band, "minimal").evaluate_points
        est = l1_distance(u, w, samples=120_000)
        # four disjoint circular segments, two per function, each pi/4 - 1/2
        assert est.value == pytest.approx(math.pi - 2.0, abs=4 * est.stderr + 1e-3)

    def test_accepts_stacks_and_callables(self, caps):
        stack = solve_general(caps)
        est = l1_distance(stack, lambda p: np.zeros(len(p)), samples=50_000)
        assert est.value == pytest.approx(solve_binary(caps).label_area, abs=0.05)

    def test_sample_floor(self, caps):
        u = solve_binary(caps).evaluate_points
        with pytest.raises(DomainError):
            l1_distance(u, u, samples=500)

    def test_deterministic(self, caps, band):
        u = solve_binary(caps).evaluate_points
        w = solve_binary(band).evaluate_points
        a = l1_distance(u, w, samples=5000, seed=DEFAULT_SEED)
        b = l1_distance(u, w, samples=5000, seed=DEFAULT_SEED)
        assert a == b
