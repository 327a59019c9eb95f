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
from lglab.circle_geometry import TWO_PI, Angle, _sign, strictly_increasing


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


# -- the float filter on the transition order ---------------------------------

def _accepted(angles) -> bool:
    """Does ``strictly_increasing`` accept these angles, normalized, as
    ``PiecewiseConstantBoundary`` calls it on its breakpoints?"""
    ns = [a.normalized() for a in angles]
    return strictly_increasing(ns, [a.radians for a in ns])


def _ref_increasing(angles) -> bool:
    ns = [a.normalized() for a in angles]
    return all(ref_sign(b.pi_mult - a.pi_mult, b.offset - a.offset) > 0 for a, b in zip(ns, ns[1:]))


def _near(rng: random.Random, a: Angle) -> Angle:
    """An angle within far less than 2**-48 of ``a``, on either side."""
    kind = rng.randrange(3)
    if kind == 0:  # offset nudge, 2**-49 down to 1e-40
        return Angle(a.pi_mult, a.offset + rng.choice([-1, 1]) * Fraction(1, 2 ** rng.randint(49, 130)))
    if kind == 1:  # pi part traded against a rational approximation of pi
        d = Fraction(rng.choice([-1, 1]), 10 ** rng.randint(0, 8))
        return Angle(a.pi_mult + d, a.offset - d * rng.choice(_PI_CONVERGENTS[2:]))
    return a  # a duplicate


def _huge(rng: random.Random, x: Fraction) -> Angle:
    """About ``x`` radians, written with a huge pi part and a cancelling offset."""
    q = Fraction(rng.choice([10**12, 10**15, 3**34 * 7, 10**17]) * rng.choice([-1, 1]))
    return Angle(q, x - q * rng.choice([_PI, _PI_CONVERGENTS[-1]]))


@pytest.mark.parametrize("seed", range(40))
def test_transition_order_filter_decides_as_the_exact_order(seed):
    rng = random.Random(seed)
    base = [Angle(Fraction(rng.randint(0, 199), 100), Fraction(rng.randint(-50, 50), 10**rng.randint(3, 20)))
            for _ in range(6)]
    base.sort(key=lambda a: a.radians)
    angles = []
    for a in base:
        kind = rng.randrange(3)
        if kind == 0:
            angles += [a, _near(rng, a)]
        elif kind == 1:
            x = Fraction(a.normalized().radians)
            angles += [_huge(rng, x), _huge(rng, x + rng.choice([1, -1]) * Fraction(1, 2 ** rng.randint(49, 80)))]
        else:
            angles += [a, Angle(a.pi_mult, a.offset + Fraction(1, 10**6))]
    assert _accepted(angles) == _ref_increasing(angles)
    i = rng.randrange(len(angles) - 1)  # an out-of-order pair, usually
    angles[i], angles[i + 1] = angles[i + 1], angles[i]
    assert _accepted(angles) == _ref_increasing(angles)


@pytest.mark.parametrize("e", [49, 52, 60, 100])
def test_out_of_order_pairs_below_2_pow_48(e):
    lo = Angle(Fraction(1, 3))
    hi = Angle(Fraction(1, 3), Fraction(1, 2**e))
    assert _accepted([lo, hi, Angle(1), Angle(Fraction(3, 2))])
    assert not _accepted([hi, lo, Angle(1), Angle(Fraction(3, 2))])
    # the same pair with its pi part traded against 355/113
    hi = Angle(Fraction(1, 3) + 1, Fraction(1, 2**e) - Fraction(355, 113))
    assert _accepted([lo, hi]) == (ref_sign(Fraction(1), Fraction(1, 2**e) - Fraction(355, 113)) > 0)
    assert _accepted([hi, lo]) != _accepted([lo, hi])


def test_float_order_can_disagree_with_the_exact_order():
    # below 2**53, u rounds q*PI_LO + r, which is off the angle by
    # q*(pi - PI_LO): a hair on either side of the midpoint between 1 and
    # 1 + 2**-52 rounds to increasing floats, while the angles decrease
    mid, eps, q = 1 + Fraction(1, 2**53), Fraction(1, 10**70), 10**15
    a = Angle(q, mid - eps - q * circle_geometry.PI_LO)
    b = Angle(-q, mid + eps + q * circle_geometry.PI_LO)
    assert a.normalized() == a and b.normalized() == b
    assert (a.radians, b.radians) == (1.0, 1.0 + 2.0**-52)
    assert ref_sign(b.pi_mult - a.pi_mult, b.offset - a.offset) < 0
    assert not _accepted([a, b]) and _accepted([b, a])
    # past 2**53 radians takes more digits of pi; with PI_LO the error
    # would reach whole radians once |q| passes 1e59
    for q in (10**80, 10**100):
        c = Angle(q, Fraction(3, 2) - q * _PI)  # 1.5 radians
        assert c.normalized() == c and c.radians == 1.5
        assert not _accepted([c, Angle(0, 1)])
        assert _accepted([Angle(0, 1), c]) and _accepted([c, Angle(0, 2)])


def test_huge_pi_parts_with_cancelling_offsets():
    rng = random.Random(3)
    for _ in range(200):
        x = Fraction(rng.randint(1, 6000), 1000)
        gap = Fraction(rng.choice([-1, 1]), 2 ** rng.randint(40, 90))
        pair = [_huge(rng, x), _huge(rng, x + gap)]
        assert _accepted(pair) == _ref_increasing(pair) == (gap > 0)


def test_separated_neighbours_take_no_exact_comparison(monkeypatch):
    calls = []
    real = Angle.__lt__
    monkeypatch.setattr(Angle, "__lt__", lambda a, b: calls.append((a, b)) or real(a, b))
    angles = [Angle(Fraction(k, 7)) for k in range(12)]
    assert _accepted(angles) and calls == []
    angles[5] = Angle(Fraction(4, 7), Fraction(1, 10**30))  # a hair above 4pi/7
    assert _accepted(angles) and len(calls) == 1


def _general_radians(q: Fraction, r: Fraction) -> float:
    """``Angle.radians``' general formula: q * p + r for ``_pi_for(q)``, as
    one correctly rounded division of integers."""
    p = circle_geometry._pi_for(q)
    den = q.denominator * p.denominator
    return (q.numerator * p.numerator * r.denominator + r.numerator * den) / (den * r.denominator)


@settings(max_examples=500, deadline=None)
@given(st.integers(-(2**70), 2**70), st.integers(1, 2**40), st.sampled_from([0, 0, 1, -3, 10**-20]))
def test_radians_fast_path_is_the_general_formula(num, den, offset):
    # offset 0 and |pi_mult| < 2**53 divide qn * PI_LO's numerator by
    # qd * its denominator without _pi_for; everything else takes it
    q, r = Fraction(num, den), Fraction(offset)
    assert Angle(q, r).radians.hex() == _general_radians(q, r).hex()


def test_radians_fast_path_covers_exactly_the_plain_multiples(monkeypatch):
    calls = []
    pi_for = circle_geometry._pi_for
    monkeypatch.setattr(circle_geometry, "_pi_for", lambda q: calls.append(q) or pi_for(q))

    def old_path(q, r=Fraction(0)):
        # whether Angle(q, r).radians called _pi_for, after checking its bits
        want = _general_radians(q, r).hex()
        calls.clear()
        assert Angle(q, r).radians.hex() == want
        return bool(calls)

    rng = random.Random(7)
    plain = 2**53
    qs = [Fraction(rng.randint(-(2**60), 2**60), rng.randint(1, 2**12)) for _ in range(2000)]
    qs += [Fraction(plain), Fraction(-plain), Fraction(plain - 1), Fraction(2 * plain - 1, 2), Fraction(10**80, 3)]
    for q in qs:
        assert old_path(q) == (abs(q) >= plain)
    assert old_path(Fraction(1, 3), Fraction(1, 7))  # an offset takes the old path too
