"""The interval DP against a minimum-cost assignment, beyond enumeration.

Two crossing chords are the diagonals of a convex quadrilateral; swapping
partners inside it keeps every chord rising-to-falling and makes the pair
strictly shorter.  So every minimum-cost rising-to-falling assignment is
non-crossing, and its cost is the optimal energy.  scipy's
``linear_sum_assignment`` is used here only, as an oracle independent of
the DP.
"""

import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from lglab.analysis import cap_config
from lglab.circle_geometry import Angle, chord_length
from lglab.boundary_data import PiecewiseConstantBoundary, build_fn, build_gn
from lglab.chord_solver import solve_binary, transitions_of

# forbids one edge; any real assignment costs less than this
_FORBIDDEN = 1e6
# a second-best assignment this close to the best counts as a tie
_TIE_MARGIN = 1e-9


def _assignment_oracle(data, probe_uniqueness=True):
    """Optimal matching, its canonical energy, and whether it is unique
    (``None`` without the probe, which costs one assignment per edge).

    Every other perfect assignment leaves out at least one edge of the
    optimum, so the optimum is unique exactly when forbidding each of its
    edges in turn makes the assignment strictly dearer.
    """
    trans = transitions_of(data)
    u = np.array([t.angle.normalized().radians for t in trans])
    rise = [i for i, t in enumerate(trans) if t.rising]
    fall = [i for i, t in enumerate(trans) if not t.rising]
    cost = 2.0 * np.sin(0.5 * np.abs(u[fall][None, :] - u[rise][:, None]))
    rows, cols = linear_sum_assignment(cost)
    best = cost[rows, cols].sum()
    unique = None
    if probe_uniqueness:
        unique = True
        for r, c in zip(rows, cols):
            saved, cost[r, c] = cost[r, c], _FORBIDDEN
            alt_rows, alt_cols = linear_sum_assignment(cost)
            cost[r, c] = saved
            if cost[alt_rows, alt_cols].sum() <= best + _TIE_MARGIN:
                unique = False
                break
    matching = tuple(sorted(tuple(sorted((rise[r], fall[c]))) for r, c in zip(rows, cols)))
    energy = math.fsum(chord_length(u[j] - u[i]) for i, j in matching)
    return matching, energy, unique


def _lattice(seed: int, m: int, q: int) -> PiecewiseConstantBoundary:
    """``m`` transitions at distinct seeded multiples of pi/q."""
    rng = random.Random(seed)
    ks = sorted(rng.sample(range(2 * q), m))
    first = float(rng.random() < 0.5)
    return PiecewiseConstantBoundary(
        [Angle(Fraction(k, q)) for k in ks], [first if i % 2 == 0 else 1.0 - first for i in range(m)]
    )


@functools.lru_cache(maxsize=None)
def _lattice_case(seed: int, m: int, q: int):
    data = _lattice(seed, m, q)
    return data, _assignment_oracle(data)


# Random subsets of a lattice have a unique optimum; the full pi/100 lattice
# (200 of 200 points) ties its two rotations of adjacent pairs.
LATTICES = [(1, 200, 2048), (2, 240, 4096), (3, 200, 128), (4, 220, 120), (5, 256, 1024), (6, 200, 100)]


@pytest.mark.parametrize("seed,m,q", LATTICES)
def test_dp_matches_assignment_on_lattices(seed, m, q):
    data, (matching, energy, unique) = _lattice_case(seed, m, q)
    for mode in ("minimal", "maximal"):
        cfg = solve_binary(data, mode)
        assert len(cfg.transitions) == m
        assert abs(cfg.energy - energy) <= 1e-12 * max(1.0, energy)
        if unique:
            assert cfg.matching == matching


@pytest.mark.parametrize("seed,m,eps", [(1, 200, 1e-6), (2, 200, 1e-5), (3, 240, 1e-7)])
def test_dp_matches_assignment_on_near_ties(seed, m, eps):
    """A regular m-gon with every vertex moved by at most ``eps`` radians:
    the two rotations of adjacent pairs differ in energy by about ``eps``,
    far outside the DP's tie tolerance, so the optimum is unique."""
    rng = random.Random(seed)
    bps = [Angle(Fraction(2 * k, m), Fraction(rng.uniform(-eps, eps))) for k in range(m)]
    data = PiecewiseConstantBoundary(bps, [float(k % 2) for k in range(m)])
    matching, energy, unique = _assignment_oracle(data)
    assert unique
    for mode in ("minimal", "maximal"):
        cfg = solve_binary(data, mode)
        assert cfg.matching == matching
        assert abs(cfg.energy - energy) <= 1e-12 * max(1.0, energy)


@pytest.mark.parametrize("build,n", [(build_gn, 7), (build_fn, 7)])
def test_dp_matches_assignment_on_cantor_stages(build, n):
    data = build(n)
    matching, energy, unique = _assignment_oracle(data)
    assert unique  # the Cantor optimum has no ties
    cfg = solve_binary(data)
    assert len(cfg.transitions) >= 254
    assert cfg.matching == matching
    assert abs(cfg.energy - energy) <= 1e-12 * max(1.0, energy)


def test_oracle_sees_unique_and_tied_lattices():
    """The lattice cases above exercise both branches of the oracle."""
    flags = {_lattice_case(*case)[1][2] for case in LATTICES}
    assert flags == {True, False}


def test_dp_matches_assignment_on_a_1000_transition_lattice():
    data = _lattice(7, 1000, 4096)
    _, energy, _ = _assignment_oracle(data, probe_uniqueness=False)
    for mode in ("minimal", "maximal"):
        cfg = solve_binary(data, mode)
        assert len(cfg.transitions) == 1000
        assert abs(cfg.energy - energy) <= 1e-12 * max(1.0, energy)


def test_dp_at_cantor_stage_9():
    """``fn(9)`` against its directly built cap configuration, ``gn(9)``
    against the assignment oracle (1022 transitions each)."""
    cfg = solve_binary(build_fn(9))
    cap = cap_config(9)
    assert cfg.matching == cap.matching
    assert cfg.energy == cap.energy
    data = build_gn(9)
    _, energy, _ = _assignment_oracle(data, probe_uniqueness=False)
    cfg = solve_binary(data)
    assert len(cfg.transitions) == 1022
    assert abs(cfg.energy - energy) <= 1e-12 * max(1.0, energy)
