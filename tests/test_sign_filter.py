"""The float filter in front of the exact angle sign.

Every sign is checked against an independent exact reference: an enclosure
of pi to 120 digits computed here with Machin's formula in integers.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lglab import circle_geometry
from lglab.circle_geometry import TWO_PI, Angle, _sign


def _machin_pi(scale: int) -> int:
    """pi * scale, from Machin's formula, within a few thousand units."""

    def arccot(x: int) -> int:
        total = term = scale // x
        n, sign = 3, -1
        while term:
            term //= x * x
            total += sign * (term // n)
            n, sign = n + 2, -sign
        return total

    return 4 * (4 * arccot(5) - arccot(239))


_SCALE = 10**130
_LO, _HI = _machin_pi(_SCALE) - 10**10, _machin_pi(_SCALE) + 10**10  # pi within 1e-120
_PI = Fraction(_LO + 10**10, _SCALE)


def ref_sign(p: Fraction, r: Fraction) -> int:
    """sign(p*pi + r) = sign(a*d*pi + c*b) for p = a/b, r = c/d, in integers."""
    x, y = p.numerator * r.denominator, r.numerator * p.denominator
    if x == 0:
        return (y > 0) - (y < 0)
    lo = x * (_LO if x > 0 else _HI) + y * _SCALE
    hi = x * (_HI if x > 0 else _LO) + y * _SCALE
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    raise AssertionError("reference enclosure too coarse")


def _no_refinement(digits):
    raise ArithmeticError(f"refinement to {digits} digits reached")


@pytest.fixture
def undecided_exact_path(monkeypatch):
    """An enclosure -10 < pi < 10 that decides no pair with |r| < 10|p|, and
    no refinement of it, so a call that reaches the exact path raises
    ArithmeticError."""
    monkeypatch.setattr(circle_geometry, "PI_LO", Fraction(-10))
    monkeypatch.setattr(circle_geometry, "PI_HI", Fraction(10))
    monkeypatch.setattr(circle_geometry, "_pi_enclosure", _no_refinement)


def _frac(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


_PI_CONVERGENTS = [Fraction(22, 7), Fraction(333, 106), Fraction(355, 113),
                   Fraction(103993, 33102), _PI.limit_denominator(10**30)]


def _scaled(rng: random.Random, e: int) -> Fraction:
    n, d = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
    return Fraction(n << e, d) if e >= 0 else Fraction(n, d << -e)


def _random_pair(rng: random.Random):
    kind = rng.randrange(4)
    p = _frac(rng, 10**6, 10**6)
    if kind == 0:  # generic
        return p, _frac(rng, 10**7, 10**5)
    if kind == 1:  # offset rounded from -p*pi, then nudged far below an ulp
        nudge = Fraction(rng.randint(-9, 9), 10 ** rng.randint(18, 60))
        return p, nudge - Fraction(float(p) * math.pi)
    if kind == 2:  # a rational approximation of pi: p*(pi - c), tiny and signed
        return p, -p * rng.choice(_PI_CONVERGENTS)
    # mixed magnitudes, including subnormal and huge parts
    e = rng.randint(-1100, 1000)
    return _scaled(rng, e), _scaled(rng, e + rng.randint(-3, 3))


def test_reference_pi_is_pi():
    # the 120-digit enclosure lies inside the package's 75-digit one
    assert circle_geometry.PI_LO < Fraction(_LO, _SCALE) < Fraction(_HI, _SCALE) < circle_geometry.PI_HI
    assert float(_PI) == math.pi


def test_filter_agrees_with_exact_on_1e5_random_pairs():
    rng = random.Random(20261018)
    for _ in range(100_000):
        p, r = _random_pair(rng)
        if p == 0:
            continue
        assert _sign(p, r) == ref_sign(p, r), (p, r)


@settings(max_examples=300, deadline=None)
@given(
    st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**12),
    st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**12),
)
def test_filter_agrees_with_exact_property(p, r):
    if p != 0:
        assert _sign(p, r) == ref_sign(p, r)


@settings(max_examples=300, deadline=None)
@given(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9).filter(bool),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=15, max_value=70),
)
def test_near_zero_property(p, k, digits):
    r = -Fraction(float(p) * math.pi) + Fraction(k, 10**digits)
    assert _sign(p, r) == ref_sign(p, r)


# pairs within a few ulps of zero, and pairs whose parts underflow or overflow
ADVERSARIAL = [
    (Fraction(1), -Fraction(math.pi)),
    (Fraction(-1), Fraction(math.pi)),
    (Fraction(1, 3), -Fraction(math.pi / 3)),
    (Fraction(7, 13), -Fraction(7 / 13 * math.pi)),
    (Fraction(355, 113), -Fraction(355 / 113 * math.pi)),
    (Fraction(-10**6 + 1, 3), -Fraction(float(Fraction(-10**6 + 1, 3)) * math.pi)),
    (Fraction(1, 10**400), Fraction(-3, 10**400)),
    (Fraction(-1, 10**400), Fraction(4, 10**400)),
    (Fraction(3, 2**1076), Fraction(-9, 2**1076)),
    (Fraction(10**400), Fraction(-3 * 10**400)),
    (Fraction(10**400), Fraction(-4 * 10**400)),
    (Fraction(-10**310), Fraction(3 * 10**310)),
    (Fraction(10**308), Fraction(-4 * 10**308)),
    (Fraction(10**308), Fraction(-3 * 10**308)),
    (Fraction(10**308), Fraction(10**308)),
    # the double estimate has the wrong sign here, |x| about u*(|P| + |R|)
    (Fraction(57488549, 22551371), Fraction(-4508458306649480573703, 562949953421312000000)),
]


def test_float_estimate_can_have_the_wrong_sign():
    p, r = ADVERSARIAL[-1]
    x = float(p) * math.pi + float(r)
    assert x != 0 and (x > 0) != (ref_sign(p, r) > 0)
    assert abs(x) > 2.0**-54 * (abs(float(p) * math.pi) + abs(float(r)))


@pytest.mark.parametrize("p, r", ADVERSARIAL)
def test_adversarial_pairs_are_exact(p, r):
    assert _sign(p, r) == ref_sign(p, r)


@pytest.mark.parametrize("p, r", ADVERSARIAL)
def test_adversarial_pairs_reach_the_exact_path(p, r, undecided_exact_path):
    with pytest.raises(ArithmeticError):
        _sign(p, r)


@pytest.mark.parametrize(
    "p, r",
    [
        (Fraction(1), Fraction(-31, 10)),
        (Fraction(-1), Fraction(39, 10)),
        (Fraction(1, 10**6), Fraction(-3, 10**6)),
        (Fraction(100, 2**1074), Fraction(0)),  # subnormal, yet far above the bound
        (Fraction(2) ** 1000, -Fraction(2) ** 1001),
        (Fraction(113), Fraction(-355)),  # 113*pi - 355 is about -3e-5
    ],
)
def test_clear_signs_are_decided_by_the_filter(p, r, undecided_exact_path):
    assert _sign(p, r) == ref_sign(p, r)


# rational approximations of pi closer than the package's 75 digits resolve
_BEYOND_75 = [_PI.limit_denominator(10**e) for e in (40, 45, 50, 55)]


@pytest.mark.parametrize("c", _BEYOND_75)
@pytest.mark.parametrize("k", [1, -3, 7])
def test_signs_beyond_75_digits_refine_pi(c, k, monkeypatch):
    assert _sign(Fraction(k), -k * c) == ref_sign(Fraction(k), -k * c)
    assert _sign(Fraction(-k), k * c) == ref_sign(Fraction(-k), k * c)
    monkeypatch.setattr(circle_geometry, "_pi_enclosure", _no_refinement)
    with pytest.raises(ArithmeticError):
        _sign(Fraction(k), -k * c)


def test_zero_pi_part_is_exact():
    assert _sign(Fraction(0), Fraction(0)) == 0
    assert _sign(Fraction(0), Fraction(1, 10**400)) == 1
    assert _sign(Fraction(0), Fraction(-1, 10**400)) == -1


def test_normalized_is_exact_from_a_float_guess():
    rng = random.Random(7)
    cases = [Angle(_frac(rng, 10**4, 97), _frac(rng, 10**6, 10**5)) for _ in range(2000)]
    # angles a hair on either side of a multiple of 2*pi
    for k in range(-6, 7, 2):
        for eps in (Fraction(1, 10**40), Fraction(-1, 10**40), Fraction(0)):
            cases.append(Angle(k, eps))
    for a in cases:
        n = a.normalized()
        assert n.offset == a.offset
        shift = a.pi_mult - n.pi_mult
        assert shift.denominator == 1 and shift % 2 == 0
        assert ref_sign(n.pi_mult, n.offset) >= 0
        assert ref_sign(n.pi_mult - 2, n.offset) < 0
        assert n == (n + TWO_PI * 3).normalized()
