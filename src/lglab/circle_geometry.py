"""Exact angle arithmetic and chord geometry on the closed unit disk.

Angles are stored as ``q*pi + r`` with rational ``q`` and ``r``.  Every
breakpoint manipulated by this package is of that shape (rational multiples
of pi, or dyadic offsets from pi/2), and because pi is irrational two such
angles are equal iff their components are equal.  Ordering is decided through
a float filter with a proven error bound, which settles almost every
comparison, and otherwise through a 75-digit rational enclosure of pi, which is
overwhelmingly tighter than any denominator this package produces.  When even
that cannot decide, pi is refined on demand by Machin's formula in integers,
doubling the digits up to ``PI_MAX_DIGITS``; past it the comparison is a
``DomainError``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Tuple, Union


class DomainError(ValueError):
    """An argument left the documented domain of an operation."""


class NestednessError(RuntimeError):
    """Consecutive superlevel slices of a multi-level solution failed to nest
    (raised by ``level_stack.check_nestedness``)."""

    def __init__(self, t_low: float, t_high: float):
        self.t_low = t_low
        self.t_high = t_high
        super().__init__(f"slice at threshold {t_high} is not contained in slice at {t_low}")


Rational = Union[int, Fraction]

# Rational enclosure of pi. PI_LO < pi < PI_HI with a gap of 1e-75.
_PI_DIGITS = (
    "3.141592653589793238462643383279502884197169399375105820974944592307816406286"
)
PI_LO = Fraction(_PI_DIGITS)
PI_HI = PI_LO + Fraction(1, 10**75)
_PI_N, _PI_D = PI_LO.numerator, PI_LO.denominator
PI_MAX_DIGITS = 4800


@lru_cache(maxsize=8)
def _pi_enclosure(digits: int) -> Tuple[Fraction, Fraction]:
    """lo < pi < hi with hi - lo = 2e-(digits + 1), from Machin's formula
    pi = 16 arccot 5 - 4 arccot 239 in integers scaled by 10**(digits + 10).
    Every truncating division is off by less than one unit, which over the
    fewer than 10**4 terms of both series stays far below the 10**9 margin.
    """
    scale = 10 ** (digits + 10)

    def arccot(x: int) -> int:
        total = term = scale // x
        n, sign = 3, -1
        while term:
            term //= x * x
            total += sign * (term // n)
            n, sign = n + 2, -sign
        return total

    pi = 16 * arccot(5) - 4 * arccot(239)
    return Fraction(pi - 10**9, scale), Fraction(pi + 10**9, scale)


_PLAIN = 2**53  # multipliers below this get PI_LO and a float guess of turns


def _pi_for(m: Fraction) -> Fraction:
    """A rational below pi by less than 1e-40 / |m|, for multiplying by
    numbers of size up to |m|: PI_LO when |m| < _PLAIN, else the lower end of
    ``_pi_enclosure`` with the digits doubled from 150 until 10**(digits - 40)
    exceeds |m|, past PI_MAX_DIGITS a DomainError.  Compared in integers,
    which costs far less than Fraction arithmetic on the common path."""
    n, d = abs(m.numerator), m.denominator
    if n < _PLAIN * d:
        return PI_LO
    digits = 150
    while n >= 10 ** (digits - 40) * d:
        digits *= 2
        if digits > PI_MAX_DIGITS:
            raise DomainError(f"a number this large needs more than {PI_MAX_DIGITS} digits of pi")
    return _pi_enclosure(digits)[0]


def _sign(pi_mult: Fraction, offset: Fraction) -> int:
    """Exact sign of pi_mult*pi + offset, float-filtered (Shewchuk, 1997).

    Let u = 2**-53, eta = 2**-1074, P = fl(float(pi_mult)*math.pi),
    R = float(offset), x = fl(P + R).  The conversions are correctly rounded
    (error u relative plus eta/2 on underflow), math.pi is within u*pi of pi,
    and the product and the sum round once each, so
    |x - (pi_mult*pi + offset)| <= 4.01*u*(|P| + |R|) + 6*eta.  The computed
    B = 8u*(|P| + |R|) + 32*eta stays above that after its own roundings, so
    |x| > B fixes the sign.  Otherwise (x near 0, an OverflowError, or an
    infinite P or x, which makes B infinite or x NaN) the exact enclosure
    PI_LO < pi < PI_HI decides, refined to twice the digits as often as
    needed up to PI_MAX_DIGITS; a value closer to zero than that resolves is
    a DomainError.  float(x) is x.numerator / x.denominator here, the same
    correctly rounded value without the numbers.Rational dispatch.
    """
    if pi_mult == 0:
        return (offset > 0) - (offset < 0)
    try:
        p = pi_mult.numerator / pi_mult.denominator * math.pi
        r = offset.numerator / offset.denominator
    except OverflowError:
        pass
    else:
        x = p + r
        if abs(x) > 2.0**-50 * (abs(p) + abs(r)) + 2.0**-1069:
            return 1 if x > 0 else -1
    # pi_mult != 0 means the value cannot be exactly zero, so a fine enough
    # enclosure always decides
    pi_lo, pi_hi, digits = PI_LO, PI_HI, 75
    while True:
        lo = pi_mult * (pi_lo if pi_mult > 0 else pi_hi) + offset
        hi = pi_mult * (pi_hi if pi_mult > 0 else pi_lo) + offset
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if digits >= PI_MAX_DIGITS:
            raise DomainError(f"angles too close to order with {PI_MAX_DIGITS} digits of pi")
        digits *= 2
        pi_lo, pi_hi = _pi_enclosure(digits)


class Angle:
    """Exact angle ``pi_mult*pi + offset`` (both parts rational), immutable."""

    # computed once, then kept beside the parts (not parts themselves)
    _radians = None
    _normal = None

    def __init__(self, pi_mult: Rational, offset: Rational = Fraction(0)) -> None:
        object.__setattr__(self, "pi_mult", pi_mult if type(pi_mult) is Fraction else Fraction(pi_mult))
        object.__setattr__(self, "offset", offset if type(offset) is Fraction else Fraction(offset))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.pi_mult, self.offset) == (other.pi_mult, other.offset)

    def __hash__(self) -> int:
        return hash((self.pi_mult, self.offset))

    # -- constructors -------------------------------------------------
    @classmethod
    def of_pi(cls, q: Rational) -> "Angle":
        """q * pi."""
        return cls(Fraction(q), Fraction(0))

    @classmethod
    def of_radians(cls, r: Union[Rational, float]) -> "Angle":
        """An exact rational number of radians (floats are exact binary rationals)."""
        return cls(Fraction(0), Fraction(r))

    # -- numeric views ------------------------------------------------
    @property
    def radians(self) -> float:
        # pi_mult*p + offset for p near pi, by one correctly rounded int/int
        # division (the same two integers when offset 0 and p = PI_LO)
        x = self._radians
        if x is None:
            q, r = self.pi_mult, self.offset
            if not r and abs(q.numerator) < _PLAIN * q.denominator:
                x = q.numerator * _PI_N / (q.denominator * _PI_D)
            else:
                p = _pi_for(q)
                den = q.denominator * p.denominator
                x = (q.numerator * p.numerator * r.denominator + r.numerator * den) / (den * r.denominator)
            object.__setattr__(self, "_radians", x)
        return x

    def __float__(self) -> float:
        return self.radians

    # -- exact arithmetic ----------------------------------------------
    def __add__(self, other: "Angle") -> "Angle":
        return Angle(self.pi_mult + other.pi_mult, self.offset + other.offset)

    def __sub__(self, other: "Angle") -> "Angle":
        return Angle(self.pi_mult - other.pi_mult, self.offset - other.offset)

    def __neg__(self) -> "Angle":
        return Angle(-self.pi_mult, -self.offset)

    def __mul__(self, k: Rational) -> "Angle":
        k = Fraction(k)
        return Angle(self.pi_mult * k, self.offset * k)

    __rmul__ = __mul__

    def __truediv__(self, k: Rational) -> "Angle":
        return self.__mul__(Fraction(1) / Fraction(k))

    def sign(self) -> int:
        return _sign(self.pi_mult, self.offset)

    # -- exact order ----------------------------------------------------
    def __lt__(self, other: "Angle") -> bool:
        return _sign(self.pi_mult - other.pi_mult, self.offset - other.offset) < 0

    def __le__(self, other: "Angle") -> bool:
        return _sign(self.pi_mult - other.pi_mult, self.offset - other.offset) <= 0

    def __gt__(self, other: "Angle") -> bool:
        return _sign(self.pi_mult - other.pi_mult, self.offset - other.offset) > 0

    def __ge__(self, other: "Angle") -> bool:
        return _sign(self.pi_mult - other.pi_mult, self.offset - other.offset) >= 0

    def normalized(self) -> "Angle":
        """The equivalent angle in [0, 2*pi), computed once and kept, as False
        when it is the angle itself: a normalized angle has no self-reference."""
        cand = self._normal
        if cand is not None:
            return cand or self
        # first guess of the turns, from floats while both parts are small;
        # the loops below make it exact
        q, r = self.pi_mult, self.offset
        try:
            qf, rf = q.numerator / q.denominator, r.numerator / r.denominator
        except OverflowError:  # a part past the float range
            qf = rf = math.inf
        if abs(qf) < _PLAIN and abs(rf) < _PLAIN:
            p = qf * math.pi
            x, b = p + rf, 2.0**-50 * (abs(p) + abs(rf)) + 2.0**-1069
            # |x - pi_mult*pi - offset| < b as in _sign, and 6.28 < 2*pi
            if b < x and x + b < 6.28:
                object.__setattr__(self, "_normal", False)
                return self
            k = math.floor(x / math.tau)
        else:
            # the whole turns in q*pi come off exactly: only r needs pi's digits
            pi = _pi_for(r)
            k = q // 2 + math.floor((q % 2 * pi + r) / (2 * pi))
        cand = self if k == 0 else Angle(q - 2 * k, r)
        while cand.sign() < 0:
            cand = Angle(cand.pi_mult + 2, cand.offset)
        while _sign(cand.pi_mult - 2, cand.offset) >= 0:
            cand = Angle(cand.pi_mult - 2, cand.offset)
        if cand is not self:
            object.__setattr__(cand, "_normal", False)
        object.__setattr__(self, "_normal", cand is not self and cand)
        return cand

    def __repr__(self) -> str:
        return f"Angle({self.pi_mult!s}*pi + {self.offset!s})"


TWO_PI = Angle(2, 0)
# CPython sizes each new angle's attribute storage by the names angles have
# used so far: keeping both conversions here leaves room for them in every
# later angle, which then needs no dict of its own
TWO_PI.normalized().radians


def strictly_increasing(angles: Sequence[Angle], u: Sequence[float]) -> bool:
    """Whether ``angles`` increase strictly, given ``u[i] == angles[i].radians``.

    Order is read off ``u`` where safe: with eps = 2**-53, ``u[i]`` rounds
    q*p + r for the angle v = q*pi + r, and for |q| < 2**53 the rational p
    has 0 < pi - p < 1e-75, so |u[i] - v| <= e_i = eps*|u[i]| + 1e-75*|q| +
    2**-1075.  The computed tol_i = 2eps*|u[i]| + 1e-74*|q| + 2**-1070
    exceeds 1.9*e_i, and g = fl(u[i+1] - u[i]) is within eps*|g| of the
    exact difference, so g > fl(tol_i + tol_{i+1}) proves v_i < v_{i+1}.
    A larger |q| is read as infinite, and the other neighbours are compared
    exactly.
    """
    tol = [2.0**-52 * abs(x) + 1e-74 * (abs(n) / d if abs(n) < _PLAIN * d else math.inf) + 2.0**-1070
           for x, n, d in ((x, a.pi_mult.numerator, a.pi_mult.denominator) for x, a in zip(u, angles))]
    return all(u[i + 1] - u[i] > tol[i] + tol[i + 1] or angles[i] < angles[i + 1] for i in range(len(u) - 1))


def ccw_measure(a: Angle, b: Angle) -> Angle:
    """Counterclockwise arc measure from a to b, in [0, 2*pi)."""
    return (b - a).normalized()


class Arc:
    """Half-open arc [start, end) traversed counterclockwise on the unit circle.

    start == end denotes the empty arc; a full circle is not representable.
    """

    def __init__(self, start: Angle, end: Angle) -> None:
        object.__setattr__(self, "start", start.normalized())
        object.__setattr__(self, "end", end.normalized())

    __setattr__ = __delattr__ = Angle.__setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.start, self.end) == (other.start, other.end)

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        return f"Arc(start={self.start!r}, end={self.end!r})"

    @property
    def measure(self) -> Angle:
        return ccw_measure(self.start, self.end)

    @property
    def measure_radians(self) -> float:
        return self.measure.radians


# ---------------------------------------------------------------------------
# chord and segment formulas

def _theta_radians(theta: Union[float, Angle], op: str) -> float:
    t = theta.radians if isinstance(theta, Angle) else float(theta)
    if not (0.0 <= t <= math.tau):
        raise DomainError(f"{op}: arc measure {t!r} outside [0, 2*pi]")
    return t


def chord_length(theta: Union[float, Angle]) -> float:
    """Length of the chord subtending an arc of the given measure: 2*sin(theta/2)."""
    t = _theta_radians(theta, "chord_length")
    return 2.0 * math.sin(0.5 * t)


def segment_area(theta: Union[float, Angle]) -> float:
    """Area of the circular segment cut off by that chord: (theta - sin theta)/2."""
    t = _theta_radians(theta, "segment_area")
    return 0.5 * (t - math.sin(t))


def index_of_angle(sorted_angles: Sequence[Angle], x: Angle) -> int:
    """Rightmost index i with sorted_angles[i] <= x, cyclically (-1 wraps to last)."""
    i = bisect_right(sorted_angles, x) - 1
    return i if i >= 0 else len(sorted_angles) - 1
