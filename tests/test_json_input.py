"""Boundary data read from JSON: every document gives data or a DomainError.

Huge breakpoint components (exponent strings such as "1e400") must not
overflow a float conversion anywhere on the way from ``from_json_dict``
through ``solve_binary``, ``enumerate_optimal`` and ``lglab solve``.
"""

import contextlib
import io
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lglab.boundary_data import PiecewiseConstantBoundary
from lglab.circle_geometry import Angle, DomainError
from lglab.chord_solver import enumerate_optimal, solve_binary
from lglab.cli import main

# 10**400 mod 2*pi to 40 digits, from a 500-digit evaluation (mpmath)
MOD_1E400 = "4.658312658701159379663218819149347354140"

HUGE_PI_MULT = {"breakpoints": [["1e400", "0"], ["1", "0"]], "values": [1, 0]}
HUGE_OFFSET = {"breakpoints": [["0", "1e400"], ["1", "0"]], "values": [1, 0]}
# an offset past what PI_MAX_DIGITS digits of pi can reduce mod 2*pi
TOO_HUGE_OFFSET = {"breakpoints": [["0", "1e5000"], ["1", "0"]], "values": [1, 0]}
# a whole number of turns that needs no digits of pi at all
HUGE_TURNS = {"breakpoints": [["1e20000", "0"], ["1/3", "0"]], "values": [1, 0]}
# an offset whose normalized multiplier of pi has about 4500 digits, past
# Python's limit on writing an integer as a string
UNWRITABLE_OFFSET = {"breakpoints": [["0", "1e4500"], ["1", "0"]], "values": [1, 0]}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestHugeBreakpoints:
    def test_huge_pi_mult_is_a_whole_number_of_turns(self):
        data = PiecewiseConstantBoundary.from_json_dict(HUGE_PI_MULT)
        # 10**400 * pi is 5 * 10**399 whole turns, so it normalizes to 0
        assert data.breakpoints == (Angle(0), Angle(1))
        cfg = solve_binary(data)
        assert cfg.matching == ((0, 1),)
        assert cfg.energy == 2.0

    def test_huge_offset_reduces_mod_two_pi(self):
        data = PiecewiseConstantBoundary.from_json_dict(HUGE_OFFSET)
        a = data.breakpoints[1]
        assert data.breakpoints[0] == Angle(1)
        assert a.offset == 10**400 and a.pi_mult.denominator == 1 and a.pi_mult % 2 == 0
        u = float(MOD_1E400)
        assert a.radians == u
        for cfg in (solve_binary(data, "minimal"), solve_binary(data, "maximal"), *enumerate_optimal(data)):
            assert cfg.matching == ((0, 1),)
            assert list(cfg.data._rad) == [math.pi, u]
            assert cfg.energy == pytest.approx(2 * math.sin((u - math.pi) / 2), rel=1e-15)

    def test_too_huge_offset_is_a_domain_error(self):
        with pytest.raises(DomainError):
            PiecewiseConstantBoundary.from_json_dict(TOO_HUGE_OFFSET)

    def test_huge_whole_turns_need_no_digits_of_pi(self):
        t = time.perf_counter()
        data = PiecewiseConstantBoundary.from_json_dict(HUGE_TURNS)
        cfg = solve_binary(data)
        assert time.perf_counter() - t < 0.1
        assert data.breakpoints == (Angle(0), Angle(Fraction(1, 3)))
        assert cfg.matching == ((0, 1),)

    def test_unwritable_offset_is_a_domain_error(self):
        with pytest.raises(DomainError, match="written back"):
            PiecewiseConstantBoundary.from_json_dict(UNWRITABLE_OFFSET)

    @pytest.mark.parametrize(
        "blob, angles",
        [
            (HUGE_PI_MULT, ["0", "3.1415926535897931"]),
            (HUGE_OFFSET, ["3.1415926535897931", format(float(MOD_1E400), ".17g")]),
        ],
    )
    def test_cli_solves(self, tmp_path, blob, angles):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(blob))
        code, out, err = run(["solve", str(p)])
        assert code == 0, err
        rep = json.loads(out)
        assert rep["matching"] == [[0, 1]]
        assert rep["transition_angles"] == angles

    def test_cli_structured_error(self, tmp_path):
        p = tmp_path / "too_huge.json"
        p.write_text(json.dumps(TOO_HUGE_OFFSET))
        code, out, err = run(["solve", str(p)])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("blob", [UNWRITABLE_OFFSET, {
        "breakpoints": [["0", "1e20000"], ["1", "0"]], "values": [1, 0]}])
    def test_cli_structured_error_at_once(self, tmp_path, blob):
        p = tmp_path / "unusable.json"
        p.write_text(json.dumps(blob))
        t = time.perf_counter()
        code, out, err = run(["solve", str(p)])
        assert time.perf_counter() - t < 1.0
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"


# -- fuzz ---------------------------------------------------------------------

_weird = st.one_of(
    st.sampled_from([10**400, -(10**400), 2**53, 2**1024]),  # huge integers
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-600, 600)),  # exponent strings
    st.sampled_from(["1e400", "-3e-500", "1e-400", "-1e308", "nan", "inf", "", "1/0", "0/0", "x"]),
    st.builds("{}/{}".format, st.integers(-40, 40), st.integers(-2, 2)),  # zero denominators
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
)
_plain = st.one_of(st.integers(-3, 3), st.builds("{}/{}".format, st.integers(-80, 80), st.integers(1, 40)))
_shapes = st.recursive(st.one_of(_plain, _weird), lambda xs: st.lists(xs, max_size=3), max_leaves=6)
_one = st.sampled_from([1, "1", 1.0, True])
_zero = st.sampled_from([0, "0", 0.0, False])


@st.composite
def _documents(draw):
    """Well-formed documents, half of them with odd numbers in one place in
    ten, and some alternating 0/1 values so that binary data is common; one
    document in ten is an arbitrary shape, one has a list of the wrong
    length, and one a malformed breakpoint."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.one_of(_shapes, st.dictionaries(st.text(max_size=3), _shapes, max_size=3)))
    odd = draw(st.booleans())

    def number(plain):
        return draw(_weird if odd and draw(st.integers(0, 9)) == 0 else plain)

    k = draw(st.integers(0, 12))
    bps = [[number(_plain), number(_plain)] for _ in range(k)]
    if kind == 1 and bps:
        bps[draw(st.integers(0, k - 1))] = draw(_shapes)
    first = draw(st.integers(0, 1))
    binary = [_zero, _one] if kind < 6 else [st.one_of(_zero, _one)] * 2
    vals = [number(binary[(first + i) % 2]) for i in range(k + (kind == 2))]
    return {"breakpoints": bps, "values": vals}


@settings(max_examples=400, deadline=None)
@given(_documents())
@example(HUGE_PI_MULT)
@example(HUGE_OFFSET)
@example({"breakpoints": [["-3e-500", "1e400"], ["1/3", "-3e-500"]], "values": [True, False]})
def test_fuzz_json_gives_data_or_domain_error(doc):
    try:
        data = PiecewiseConstantBoundary.from_json_dict(doc)
    except DomainError:
        return
    assert isinstance(data, PiecewiseConstantBoundary)
    if not data.is_binary or len(data.breakpoints) > 16:
        return
    for call in (lambda: solve_binary(data, "minimal"), lambda: solve_binary(data, "maximal"),
                 lambda: enumerate_optimal(data)):
        try:
            call()
        except DomainError:
            pass


_huge = st.builds("{}e{}".format, st.integers(-9, 9), st.integers(4200, 4700))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_documents(), st.builds(
    lambda p, r, first: {"breakpoints": [[p, r], ["1", "0"]], "values": [first, 1 - first]},
    st.one_of(_plain, _huge), st.one_of(_plain, _huge), st.integers(0, 1))))
@example(UNWRITABLE_OFFSET)
@example(HUGE_TURNS)
def test_json_round_trip(doc):
    """Whatever loads dumps, and reloading the dump gives equal data."""
    try:
        data = PiecewiseConstantBoundary.from_json_dict(doc)
    except DomainError:
        return
    dumped = json.loads(json.dumps(data.to_json_dict()))
    assert PiecewiseConstantBoundary.from_json_dict(dumped) == data
