"""The exhaustive oracle against a reference that builds every configuration.

``_reference_matchings`` and ``_reference_optimal`` are the enumeration as it
was before the matchings were tabulated: one ``ChordConfiguration`` per
non-crossing matching, in recursion order, then the near-optimal energy
filter and the (energy, area, matching) sort.  ``enumerate_optimal`` scores
matchings from a table of chord lengths instead, and must return the same
configurations, in the same order, with the same energy and area bits.
It sums with ``math.fsum`` only the matchings whose float sum can be
near-optimal; ``helpers.fsum_enumeration`` sums every one, and every
enumeration here must equal it too, to the bit.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import fsum_enumeration, fsum_scan
from test_dp_fill import SMALL_CASES
from lglab.boundary_data import PiecewiseConstantBoundary, build_fn, build_gn
from lglab.circle_geometry import Angle
from lglab.chord_solver import (
    ENERGY_REL_TOL,
    ENUMERATION_CAP,
    ChordConfiguration,
    _all_matchings,
    _matching_index,
    _near_optimal,
    _validate_matching,
    enumerate_optimal,
    transitions_of,
)

PCB = PiecewiseConstantBoundary


def _reference_matchings(n):
    memo = {}

    def rec(i, j):
        if i >= j:
            return [()]
        if (i, j) not in memo:
            memo[i, j] = [
                ((i, k),) + inner + outer
                for k in range(i + 1, j, 2)
                for inner in rec(i + 1, k)
                for outer in rec(k + 1, j)
            ]
        return memo[i, j]

    return rec(0, n)


def _reference_optimal(data):
    configs = [ChordConfiguration(data, m) for m in _reference_matchings(len(transitions_of(data)))]
    emin = min(c.energy for c in configs)
    tol = ENERGY_REL_TOL * max(1.0, emin)
    best = [c for c in configs if c.energy <= emin + tol]
    best.sort(key=lambda c: (c.energy, c.label_area, c.matching))
    return best


def _bits(configs):
    return [(c.matching, c.base_value, c.energy.hex(), c.label_area.hex()) for c in configs]


def _assert_same_as_reference(data):
    got = enumerate_optimal(data)
    assert _bits(got) == _bits(_reference_optimal(data))
    assert _bits(got) == _bits(fsum_enumeration(data))
    return got


def _lattice(rng, q, m, first):
    ks = sorted(rng.sample(range(2 * q), m))
    return PCB([Angle.of_pi(Fraction(k, q)) for k in ks], [(first + i) % 2 for i in range(m)])


@pytest.mark.parametrize("n", range(0, 17, 2))
def test_matching_table(n):
    table = _all_matchings(n)
    catalan = math.comb(n, n // 2) // (n // 2 + 1)
    assert table.shape == (catalan, n // 2, 2)
    assert table.dtype.itemsize == 1 and not table.flags.writeable
    rows = [tuple(map(tuple, row)) for row in table.tolist()]
    assert rows == _reference_matchings(n)  # recursion order
    assert len({_validate_matching(n, row) for row in rows}) == catalan
    assert _all_matchings(n) is table  # built once per size
    index = _matching_index(n)
    chords = [(i, k) for i in range(n) for k in range(i + 1, n, 2)]
    assert index.dtype == np.intp and not index.flags.writeable
    assert [[chords[x] for x in col] for col in index.T.tolist()] == [list(row) for row in rows]
    assert _matching_index(n) is index


@pytest.mark.parametrize("q", [4, 6, 8, 12, 16, 24, 2048])
def test_lattices_match_reference(q):
    # the coarse lattices tie many matchings, so the filter and the sort
    # both have work to do
    rng = random.Random(1000 + q)
    sizes = [m for m in range(2, 17, 2) if m <= 2 * q]
    ties = 0
    for k in range(16):
        got = _assert_same_as_reference(_lattice(rng, q, sizes[k % len(sizes)], k % 2))
        ties += len(got) > 1
    if q <= 8:
        assert ties > 0


@pytest.mark.parametrize("stage", range(4))
def test_cantor_stages_match_reference(stage):
    for data in (build_fn(stage), build_gn(stage)):
        if len(data.breakpoints) <= 16:
            _assert_same_as_reference(data)
            _assert_same_as_reference(data.complement())  # the other base value


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_no_transitions(value):
    (cfg,) = _assert_same_as_reference(PCB.constant(value))
    assert cfg.matching == () and cfg.base_value == value
    assert cfg.energy == 0.0


def test_matching_at_the_edge_of_the_energy_window():
    # Two matchings of this octagon differ in energy by almost exactly
    # ENERGY_REL_TOL * emin: the second stays in the optimal set only because
    # every energy is summed exactly (math.fsum).  A plain left-to-right sum
    # rounds it one unit up and drops it, on x86-64 with glibc's sin.
    r0 = Fraction(247593, 5000000)
    delta = Fraction(3130666736429301759, 1888946593147858085478400000000)
    data = PCB(
        [Angle(Fraction(k, 4), r0 + (delta if k == 0 else 0)) for k in range(8)],
        [k % 2 for k in range(8)],
    )
    got = _assert_same_as_reference(data)
    emin = got[0].energy
    assert got[-1].energy - emin == pytest.approx(ENERGY_REL_TOL * emin, rel=1e-3)


@pytest.mark.parametrize("name, make", SMALL_CASES, ids=[c[0] for c in SMALL_CASES])
def test_dense_corpus_matches_fsum_scan(name, make):
    data = make()
    if len(transitions_of(data)) <= ENUMERATION_CAP:
        assert _bits(enumerate_optimal(data)) == _bits(fsum_enumeration(data))


@st.composite
def _jittered_lattice(draw):
    """2-16 points of the pi/q lattice, q = 2 to 24, each moved by less
    than 1e-13 radians, where many matchings tie within the tolerance."""
    q = draw(st.sampled_from([2, 3, 4, 6, 8, 12, 16, 24]))
    m = 2 * draw(st.integers(1, min(8, q)))
    ks = sorted(draw(st.lists(st.integers(0, 2 * q - 1), min_size=m, max_size=m, unique=True)))
    jitter = draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m))
    first = draw(st.integers(0, 1))
    return PCB([Angle(Fraction(k, q), Fraction(j, 10**14)) for k, j in zip(ks, jitter)],
               [(first + i) % 2 for i in range(m)])


@settings(max_examples=300, deadline=None)
@given(_jittered_lattice())
def test_jittered_lattices_match_fsum_scan(data):
    got = enumerate_optimal(data)
    assert _bits(got) == _bits(fsum_enumeration(data))


def test_prefilter_keeps_a_column_at_the_edge_of_the_band():
    # Column 1 sums to the band edge b exactly, but its float sum rounds up
    # to the next float above b: the prefilter's 2 * err keeps it.  Column 2
    # sums exactly to that next float and must go; column 3 is one unit
    # below b.  The float sums are checked, so the case is what it claims.
    b = 1.0 + ENERGY_REL_TOL * 1.0
    ulp = math.ulp(b)
    above = b + ulp
    terms = np.array([
        [1.0, b - 2 * ulp, above - 2 * ulp, b - ulp],
        [0.0, 11 / 16 * ulp, 11 / 16 * ulp, 0.0],
        [0.0, 11 / 16 * ulp, 11 / 16 * ulp, 0.0],
        [0.0, 10 / 16 * ulp, 10 / 16 * ulp, 0.0],
    ])
    s = terms.sum(axis=0)
    assert s[0] == 1.0 and s[1] > b and math.fsum(terms[:, 1]) == b
    assert math.fsum(terms[:, 2]) == above
    rows = terms.T.tolist()
    assert fsum_scan(rows) == [0, 1, 3]
    assert _near_optimal(terms) == ([0, 1, 3], [math.fsum(terms[:, r]) for r in (0, 1, 3)])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.lists(st.integers(0, 64), min_size=8, max_size=64), st.sampled_from([0.25, 1.0, 3.0]))
def test_prefilter_equals_the_fsum_scan_near_float_edges(h, steps, base):
    # columns of h nonnegative terms, each near a multiple of the unit in
    # the last place of the band edge, so float sums and fsums part often
    b = base + ENERGY_REL_TOL * max(1.0, base)
    ulp = math.ulp(b)
    cols = []
    for k, x in enumerate(steps):
        head = b - (x % 8) * ulp if k else base
        cols.append([head] + [(x * 37 + j * 11) % 64 / 32 * ulp for j in range(h - 1)])
    terms = np.array(cols).T
    rows = fsum_scan(cols)
    assert _near_optimal(terms) == (rows, [math.fsum(cols[r]) for r in rows])
