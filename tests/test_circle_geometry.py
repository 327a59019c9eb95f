import math
import time
from fractions import Fraction

import numpy as np
import pytest

from lglab import circle_geometry
from lglab.circle_geometry import (
    Angle,
    Arc,
    DomainError,
    ccw_measure,
    chord_length,
    index_of_angle,
    segment_area,
)
from helpers import arc_contains, midpoint, point


class TestAngle:
    def test_exact_arithmetic(self):
        a = Angle.of_pi(Fraction(1, 3))
        b = Angle.of_pi(Fraction(2, 3))
        assert (a + b) == Angle.of_pi(1)
        assert (a + b).normalized() == Angle.of_pi(1)
        assert (b - a) == Angle.of_pi(Fraction(1, 3))
        assert (-a).normalized() == Angle.of_pi(Fraction(5, 3))
        assert (a * 2) == b
        assert (b / 2) == a

    def test_mixed_pi_and_rational_offset(self):
        # pi is irrational, so (pi_mult, offset) pairs compare exactly
        a = Angle(Fraction(1, 2), Fraction(1, 4))
        b = Angle(Fraction(1, 2), Fraction(-1, 4))
        assert (a - b) == Angle(0, Fraction(1, 2))
        assert a > b
        assert (a - b).sign() == 1
        assert (b - a).sign() == -1
        assert Angle(0, 0).sign() == 0

    def test_normalized_range(self):
        for q in [Fraction(-7, 3), Fraction(0), Fraction(2), Fraction(13, 6)]:
            n = Angle.of_pi(q).normalized()
            assert 0.0 <= n.radians < math.tau
        assert Angle.of_pi(2).normalized() == Angle.of_pi(0)
        assert Angle.of_pi(Fraction(-1, 2)).normalized() == Angle.of_pi(Fraction(3, 2))

    def test_radians_and_point(self):
        a = Angle(Fraction(1, 2), Fraction(1, 8))
        assert a.radians == pytest.approx(math.pi / 2 + 0.125, abs=0)
        x, y = point(a)
        assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-15)

    def test_of_radians_roundtrip(self):
        x = 2.174528345
        assert Angle.of_radians(x).radians == x

    def test_ordering_near_ties(self):
        # offsets that differ by far less than float epsilon at this scale
        a = Angle(Fraction(1, 3), Fraction(1, 10**20))
        b = Angle(Fraction(1, 3), 0)
        assert b < a
        assert not a < b

    def test_parts_are_exact_fractions(self):
        class Half(Fraction):
            pass

        a = Angle(1, Half(1, 2))
        assert type(a.pi_mult) is Fraction and type(a.offset) is Fraction
        assert a == Angle(Fraction(1), Fraction(1, 2))
        assert hash(a) == hash(Angle(Fraction(1), Fraction(1, 2)))

    def test_equal_and_hashed_as_the_pair_of_parts(self):
        a = Angle(1)
        assert a == Angle(Fraction(1), 0)
        assert hash(a) == hash((a.pi_mult, a.offset)) == hash((Fraction(1), Fraction(0)))
        assert a.__eq__((a.pi_mult, a.offset)) is NotImplemented
        assert a != (a.pi_mult, a.offset)

    def test_arc_normalizes_its_ends(self):
        arc = Arc(Angle(Fraction(-1, 2)), Angle(Fraction(5, 2)))
        assert (arc.start, arc.end) == (Angle(Fraction(3, 2)), Angle(Fraction(1, 2)))
        assert arc == Arc(Angle(Fraction(3, 2)), Angle(Fraction(1, 2)))
        assert hash(arc) == hash((arc.start, arc.end))
        assert arc.__eq__((arc.start, arc.end)) is NotImplemented
        assert repr(arc) == "Arc(start=Angle(3/2*pi + 0), end=Angle(1/2*pi + 0))"

    def test_normalized_keeps_an_angle_in_range(self):
        a = Angle(Fraction(3, 2), Fraction(1, 7))
        assert a.normalized() is a
        assert Angle(0, 0).normalized() == Angle(0, 0)
        assert Angle(2, 0).normalized() == Angle(0, 0)
        assert Angle(2, Fraction(-1, 10**30)).normalized() == Angle(2, Fraction(-1, 10**30))
        # the float guess of the turn count is 0 for both, yet the first is
        # below 0 and the second just above 2*pi
        tiny = Fraction(-1, 2**1074)
        assert Angle(0, tiny).normalized() == Angle(2, tiny)
        above = Angle(19, -17 * circle_geometry.PI_LO)
        assert math.floor((float(above.pi_mult) * math.pi + float(above.offset)) / math.tau) == 0
        assert above.normalized() == Angle(17, -17 * circle_geometry.PI_LO)


def _fastest(fn, repeats=3):
    """The least wall time of ``repeats`` calls, and the last result."""
    best = math.inf
    for _ in range(repeats):
        t = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t)
    return best, out


class TestHugePiMult:
    """Angle parts far past 2**53: multipliers of pi with offsets that
    cancel them, and a huge offset alone."""

    def test_radians_of_a_cancelled_multiple(self):
        lo300, _ = circle_geometry._pi_enclosure(300)
        a = Angle(10**80, Fraction(3, 2) - 10**80 * lo300)
        assert a.radians == 1.5
        assert a.normalized() == a

    def test_normalized_is_not_one_turn_per_step(self):
        q = 7 * 3**40
        lo200, _ = circle_geometry._pi_enclosure(200)
        a = Angle(q, 1 - q * lo200)
        best, n = _fastest(a.normalized)
        assert best < 0.01
        assert n == a
        assert a.radians == 1.0

    def test_normalized_near_1e25_is_fast_and_exact(self):
        q = 10**25 + Fraction(1, 3)
        lo100, _ = circle_geometry._pi_enclosure(100)
        a = Angle(q, 50 - q * lo100)  # about 50 rad, 7 turns past [0, 2*pi)
        best, n = _fastest(a.normalized)
        assert best < 0.01
        assert n == Angle(q - 14, a.offset)
        assert n.radians == pytest.approx(50 - 14 * math.pi, abs=1e-12)

    def test_normalized_huge_offset(self):
        n = Angle.of_radians(10**30).normalized()
        assert n.offset == 10**30 and n.pi_mult.denominator == 1
        assert Angle(0, 0) <= n < Angle(2, 0)


class TestPiOnDemand:
    def test_refined_enclosures_nest(self):
        lo, hi = circle_geometry.PI_LO, circle_geometry.PI_HI
        for digits in (150, 300, 600, 1200, 2400, 4800):
            rlo, rhi = circle_geometry._pi_enclosure(digits)
            assert lo < rlo < rhi < hi
            assert rhi - rlo <= Fraction(2, 10 ** (digits + 1))
            lo, hi = rlo, rhi

    def test_signs_beyond_75_digits_are_decided(self):
        lo, hi = circle_geometry._pi_enclosure(4800)
        for den in (10**40, 10**200, 10**2000):
            c = lo.limit_denominator(den)
            expected = 1 if c < lo else -1
            assert circle_geometry._sign(Fraction(1), -c) == expected
            assert (Angle(0, c) < Angle(1)) == (expected > 0)

    def test_past_the_cap_is_a_domain_error(self):
        lo, _ = circle_geometry._pi_enclosure(2 * circle_geometry.PI_MAX_DIGITS)
        with pytest.raises(DomainError):
            circle_geometry._sign(Fraction(1), -lo)


def test_ccw_measure_wraps():
    a = Angle.of_pi(Fraction(7, 4))
    b = Angle.of_pi(Fraction(1, 4))
    assert ccw_measure(a, b) == Angle.of_pi(Fraction(1, 2))
    assert ccw_measure(b, a) == Angle.of_pi(Fraction(3, 2))
    assert ccw_measure(a, a) == Angle.of_pi(0)


class TestArc:
    def test_measure_and_midpoint(self):
        arc = Arc(Angle.of_pi(Fraction(1, 4)), Angle.of_pi(Fraction(3, 4)))
        assert arc.measure == Angle.of_pi(Fraction(1, 2))
        assert midpoint(arc) == Angle.of_pi(Fraction(1, 2))

    def test_contains_half_open(self):
        arc = Arc(Angle.of_pi(Fraction(1, 4)), Angle.of_pi(Fraction(3, 4)))
        assert arc_contains(arc, arc.start)
        assert not arc_contains(arc, arc.end)
        assert arc_contains(arc, Angle.of_pi(Fraction(1, 2)))
        assert not arc_contains(arc, Angle.of_pi(Fraction(7, 8)))

    def test_wrapping_arc(self):
        arc = Arc(Angle.of_pi(Fraction(7, 4)), Angle.of_pi(Fraction(1, 4)))
        assert arc.measure == Angle.of_pi(Fraction(1, 2))
        assert arc_contains(arc, Angle.of_pi(0))
        assert not arc_contains(arc, Angle.of_pi(1))

    def test_empty_arc(self):
        a = Angle.of_pi(Fraction(1, 3))
        empty = Arc(a, a)
        assert empty.measure.sign() == 0
        assert not arc_contains(empty, a)


@pytest.mark.parametrize(
    "theta,expected",
    [
        (0.0, 0.0),
        (math.pi, 2.0),
        (math.pi / 3, 1.0),  # chord of a 60-degree arc equals the radius
    ],
)
def test_chord_length_values(theta, expected):
    assert chord_length(theta) == pytest.approx(expected, abs=1e-15)


def test_chord_length_accepts_angle():
    assert chord_length(Angle.of_pi(1)) == pytest.approx(2.0, abs=1e-15)


def test_chord_length_monotone_on_0_pi():
    th = np.linspace(0.0, math.pi, 2001)
    vals = [chord_length(t) for t in th]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_chord_length_domain():
    with pytest.raises(DomainError):
        chord_length(-0.1)
    with pytest.raises(DomainError):
        chord_length(math.tau + 0.1)


def test_segment_area_values():
    assert segment_area(0.0) == 0.0
    assert segment_area(math.pi) == pytest.approx(math.pi / 2, abs=1e-15)
    assert segment_area(math.tau) == pytest.approx(math.pi, abs=1e-12)
    # complementarity: the two segments cut by one chord tile the disk
    for t in (0.3, 1.1, 2.9):
        assert segment_area(t) + segment_area(math.tau - t) == pytest.approx(
            math.pi, abs=1e-12
        )


def test_index_of_angle():
    angles = [Angle.of_pi(Fraction(k, 4)) for k in range(0, 8, 2)]
    assert index_of_angle(angles, Angle.of_pi(Fraction(1, 8))) == 0
    assert index_of_angle(angles, Angle.of_pi(Fraction(1, 2))) == 1
    assert index_of_angle(angles, Angle.of_pi(Fraction(15, 8))) == 3
    # angles before the first breakpoint wrap to the last slot
    assert index_of_angle(angles[1:], Angle.of_pi(Fraction(1, 8))) == 2


def test_domain_error_is_value_error():
    assert issubclass(DomainError, ValueError)
