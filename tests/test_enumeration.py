"""The exhaustive oracle against a reference that builds every configuration.

``_reference_matchings`` and ``_reference_optimal`` are the enumeration as it
was before the matchings were tabulated: one ``ChordConfiguration`` per
non-crossing matching, in recursion order, then the near-optimal energy
filter and the (energy, area, matching) sort.  ``enumerate_optimal`` scores
matchings from a table of chord lengths instead, and must return the same
configurations, in the same order, with the same energy and area bits.
"""

import math
import random
from fractions import Fraction

import pytest

from lglab.boundary_data import PiecewiseConstantBoundary, build_fn, build_gn
from lglab.circle_geometry import Angle
from lglab.chord_solver import (
    ENERGY_REL_TOL,
    ChordConfiguration,
    _all_matchings,
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
    trans, base = transitions_of(data)
    configs = [ChordConfiguration(trans, m, base) for m in _reference_matchings(len(trans))]
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
