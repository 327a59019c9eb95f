"""Each exact-angle job runs once per angle and once per data object.

``Angle.radians`` and ``Angle.normalized()`` keep their results on the
angle, ``PiecewiseConstantBoundary`` orders its breakpoints by their floats
where a proven margin allows, and ``transitions_of`` builds one
``Transition`` view per data object, which every configuration of the data
shares.  These tests pin that every such shortcut gives what the exact
computation gives.
"""

import gc
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lglab.boundary_data import PiecewiseConstantBoundary, build_gn
from lglab.chord_solver import enumerate_optimal, solve_binary, transitions_of
from lglab.circle_geometry import Angle, DomainError, _pi_enclosure, _pi_for

PCB = PiecewiseConstantBoundary

_ints = st.one_of(
    st.integers(-10**6, 10**6),
    st.integers(2**53, 2**70),
    st.integers(-2**70, -2**53),
    st.integers(10**300, 10**400),
    st.integers(-10**400, -10**300),
)
_parts = st.builds(Fraction, _ints, st.integers(1, 10**6))


@st.composite
def _cancelling(draw):
    """A huge q with an offset that cancels q*pi to within a few units."""
    q = Fraction(draw(_ints), draw(st.integers(1, 99)))
    r = -math.floor(q * _pi_enclosure(1200)[0]) + Fraction(draw(st.integers(-99, 99)), 7)
    return q, r


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(_parts, _parts), _cancelling()))
def test_radians_is_the_rounded_exact_value(parts):
    q, r = parts
    a = Angle(q, r)
    try:
        want = float(q * _pi_for(q) + r)
    except (OverflowError, DomainError) as exc:
        with pytest.raises(type(exc)):
            a.radians
        return
    assert a.radians.hex() == want.hex()
    assert a.radians.hex() == want.hex()  # the kept value


def _shuffled_cases(rng: random.Random):
    """Lists of angles in random order and turns: lattice points, pairs
    1e-30 apart, huge multipliers and offsets."""
    for _ in range(150):
        q = rng.choice([4, 12, 2048])
        ks = rng.sample(range(2 * q), rng.randint(2, min(24, 2 * q)))
        angles = [Angle(Fraction(k, q) + 2 * rng.randint(-3, 3)) for k in ks]
        for _ in range(rng.randint(0, 3)):
            a = rng.choice(angles)
            angles.append(Angle(a.pi_mult, a.offset + Fraction(rng.choice([1, -1]), 10**30)))
        if rng.random() < 0.3:
            angles.append(Angle(Fraction(rng.randint(1, 99), 7) + 2 * 10**40, Fraction(1, 3)))
            angles.append(Angle(Fraction(0), Fraction(10**rng.randint(20, 300))))
        rng.shuffle(angles)
        yield angles


def test_breakpoint_order_is_the_exact_order():
    rng = random.Random(11)
    for angles in _shuffled_cases(rng):
        normal = [a.normalized() for a in angles]
        want = sorted(normal)  # exact comparisons only
        if any(a == b for a, b in zip(want, want[1:])):
            with pytest.raises(DomainError):
                PCB(angles, range(len(angles)))
            continue
        data = PCB(angles, range(len(angles)))  # distinct values: nothing merges
        assert data.breakpoints == tuple(want)
        assert data.values == tuple(float(normal.index(b)) for b in want)
        assert [x.hex() for x in data._rad] == [b.radians.hex() for b in want]


def test_duplicates_mod_two_pi_are_rejected():
    rng = random.Random(12)
    for angles in _shuffled_cases(rng):
        a = rng.choice(angles)
        twin = Angle(a.pi_mult + 2 * rng.choice([-2, -1, 1, 2]), a.offset)
        with pytest.raises(DomainError, match="duplicate"):
            PCB(angles + [twin], range(len(angles) + 1))


def test_normalized_angle_has_no_reference_cycle():
    gc.disable()
    try:
        for parts in ((Fraction(7, 3), 0), (Fraction(1, 3), 0), (Fraction(-5), Fraction(1, 7))):
            a = Angle(*parts)
            n = a.normalized()
            assert n.normalized() is n
            refs = [weakref.ref(a), weakref.ref(n)]
            del a, n
            assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_one_transition_set_per_data_object():
    for d in (build_gn(2), PCB([Angle(Fraction(k, 4)) for k in (1, 3, 5, 7)], [1, 0, 1, 0])):
        trans = transitions_of(d)
        assert enumerate_optimal(d)[0].transitions is solve_binary(d, "maximal").transitions
        assert solve_binary(d, "minimal").transitions is trans
        assert all(c.transitions is trans for c in enumerate_optimal(d))
