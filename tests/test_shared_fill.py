"""The fill that ``solve_binary`` shares between its two modes.

The mode enters a fill only at its first tie.  ``solve_binary`` keeps in the
data's ``_fill`` slot the matching of an untied fill, which answers both
modes; after a tied fill each solve fills again.  Whatever the order of the
solves, each must return what a fresh data object gives and what the dense
reference fill gives, to the bit; and the kept matching must not tie the
data to itself.
"""

import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings

import lglab.chord_solver as chord_solver
from lglab.boundary_data import PiecewiseConstantBoundary
from lglab.chord_solver import _pick, _schedule, solve_binary, transitions_of
from lglab.circle_geometry import Angle
from test_dp_fill import MULTI_TIE, OCTAGON, SMALL_CASES, UNTIED, _data, _dense_solve, _multi_tie, _same, _tie_prone

MODES = ("minimal", "maximal")


def _fresh(data):
    """The same boundary data as a new object, with no solve kept."""
    return PiecewiseConstantBoundary(data.breakpoints, data.values)


def _all_orders_agree(data):
    ref = {mode: _dense_solve(data, mode) for mode in MODES}
    for order in (MODES, MODES[::-1]):
        once = _fresh(data)
        for mode in order:
            _same(solve_binary(once, mode), ref[mode])
            _same(solve_binary(once, mode), ref[mode])  # and again, from what is kept
    for mode in MODES:
        _same(solve_binary(_fresh(data), mode), ref[mode])


@settings(max_examples=200, deadline=None)
@given(_tie_prone())
def test_solve_orders_agree_on_lattices(data):
    _all_orders_agree(data)


def _numpy_sized(m, q, seed):
    # m points of the pi/q lattice, above SCALAR_FILL_MAX, jittered below
    # 1e-13 on odd seeds so that energies tie while areas differ
    rng = random.Random(seed)
    return _data([Angle(Fraction(k, q), Fraction(rng.randint(-9, 9) * (seed % 2), 10**14))
                  for k in rng.sample(range(2 * q), m)])


@pytest.mark.parametrize("m, q, seed", [(22, 12, 0), (22, 12, 1), (24, 12, 3), (26, 16, 1), (30, 24, 2), (40, 24, 5)])
def test_solve_orders_agree_on_numpy_sizes(m, q, seed):
    data = _numpy_sized(m, q, seed)
    assert len(transitions_of(data)) > chord_solver.SCALAR_FILL_MAX
    _all_orders_agree(data)


def _spy(monkeypatch):
    """Record every fill by its name."""
    calls = []
    for name in ("scalar", "numpy"):
        fill = getattr(chord_solver, f"_{name}_fill")

        def spy(data, mode, fill=fill, name=name):
            calls.append(name)
            return fill(data, mode)

        monkeypatch.setattr(chord_solver, f"_{name}_fill", spy)
    return calls


def _tied_positions(data, mode):
    """Positions in ``_schedule(n)`` of the cells where the dense fill sees
    more than one near-minimal split, with its area table (flat, as the
    scalar fill lays it out)."""
    n = len(transitions_of(data))
    steps = {}
    _dense_solve(data, mode, steps)
    tied, area = set(), {}
    for h, (e, a) in steps.items():
        near = chord_solver._near_min(e)
        t = _pick(e, a)
        for i in range(e.shape[1]):
            cell = h * (n + 1) + i
            area[cell] = a[t[i], i]
            if near[:, i].sum() > 1:
                tied.add(cell)
    return [p for p, (cell, _) in enumerate(_schedule(n)) if cell in tied], area


@pytest.mark.parametrize("first", MODES)
def test_untied_second_solve_calls_no_fill(monkeypatch, first):
    for data in map(_fresh, UNTIED):
        solve_binary(data, first)
        calls = _spy(monkeypatch)
        for mode in MODES:
            _same(solve_binary(data, mode), _dense_solve(data, mode))
        assert calls == []


def _refills_in_full(monkeypatch, data, fill):
    ref = {mode: _dense_solve(data, mode) for mode in MODES}
    calls = _spy(monkeypatch)
    for mode in MODES + MODES:
        _same(solve_binary(data, mode), ref[mode])
    assert calls == [fill] * 4
    assert data._fill is None
    return ref


def test_tied_scalar_solve_refills_in_full(monkeypatch):
    for data in [_fresh(OCTAGON)] + [_multi_tie(ks) for ks in MULTI_TIE]:
        assert _tied_positions(data, "minimal")[0]  # a tie
        _refills_in_full(monkeypatch, data, "scalar")
        monkeypatch.undo()


def test_tied_numpy_solve_refills_in_full(monkeypatch):
    ref = _refills_in_full(monkeypatch, _numpy_sized(24, 12, 1), "numpy")
    assert ref["minimal"].matching != ref["maximal"].matching  # a tie


@pytest.mark.parametrize("make", [lambda: UNTIED[0], lambda: OCTAGON, lambda: _numpy_sized(24, 12, 1),
                                  lambda: _numpy_sized(24, 12, 0)])
def test_kept_fill_makes_no_reference_cycle(make):
    # without the cycle collector, dropping the data and its solutions must
    # free the data (a weak reference to a breakpoint angle that only the
    # data holds shows it)
    src = make()
    data = PiecewiseConstantBoundary([Angle(b.pi_mult, b.offset) for b in src.breakpoints], src.values)
    gc.collect()
    gc.disable()
    try:
        configs = [solve_binary(data, mode) for mode in MODES + MODES]
        owned = weakref.ref(data.breakpoints[0])
        del data, configs
        assert owned() is None
    finally:
        gc.enable()


# White box: the scalar fill catches its area table up at each tie on every
# cell chosen since the last, the tied cells included.  Every entry it wrote
# must equal the dense fill's area, and none past its last tie may be written.

@pytest.mark.parametrize("mode", MODES)
def test_scalar_area_table_is_the_dense_one_at_every_tie(mode):
    multi = 0
    for _, make in SMALL_CASES:
        data = make()
        n = len(transitions_of(data))
        tied, area = _tied_positions(data, mode)
        _, A = chord_solver._scalar_tables(data, mode)
        if not tied:
            assert A is None
            continue
        for p, (cell, _) in enumerate(_schedule(n)):
            want = area[cell].hex() if p < tied[-1] else (0.0).hex()
            assert A[cell].hex() == want, (p, tied)
        multi += len(tied) > 1
    assert multi >= 6  # solves whose later ties read cells caught up at an earlier one
