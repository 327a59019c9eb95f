"""The interval DP against a dense reference fill.

``solve_binary`` chooses each split by energy first and evaluates the area
tie-break only in the columns where more than one split is within the energy
tolerance.  The reference here fills plain ``(i, j)`` tables and applies
``_pick`` to every (split, column) cell of every half-span, with the same
floating-point operations in the same order, so the two must agree on the
matching and on the bits of ``energy`` and ``label_area``.  The corpus leans
on ties: coarse lattices and regular polygons whose vertices are jittered
far below the energy tolerance.  ``solve_binary`` evaluates ``_pick`` only
in a half-span where some column ties, and fills the area table only as far
as such a half-span reads it.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lglab.boundary_data import PiecewiseConstantBoundary, build_fn, build_gn
import lglab.chord_solver as chord_solver
from lglab.chord_solver import ChordConfiguration, _pick, solve_binary, transitions_of
from lglab.circle_geometry import Angle


def _dense_solve(data, mode):
    trans, base = transitions_of(data)
    n = len(trans)
    u = trans.u
    sgn = np.where([t.rising for t in trans], -1.0, 1.0)
    if mode == "maximal":
        sgn = -sgn
    d = u[None, :] - u[:, None]  # d[i, k] = u[k] - u[i]
    C = 2.0 * np.sin(0.5 * d)
    S = np.sin(d) * sgn[:, None]
    E = np.zeros((n + 2, n + 2))
    A = np.zeros((n + 2, n + 2))
    K = np.zeros((n + 1, n + 1), dtype=np.int64)
    for h in range(1, n // 2 + 1):
        i = np.arange(n - 2 * h + 1)
        j = i + 2 * h
        k = i + 1 + 2 * np.arange(h)[:, None]  # (split, column)
        e = C[i, k] + E[i + 1, k] + E[k + 1, j]
        a = S[i, k] + A[i + 1, k] + A[k + 1, j]
        t = _pick(e, a)
        E[i, j] = e[t, i]
        A[i, j] = a[t, i]
        K[i, j] = k[t, i]
    matching, work = [], [(0, n)]
    while work:
        i, j = work.pop()
        if i < j:
            matching.append((i, int(K[i, j])))
            work += [(i + 1, K[i, j]), (K[i, j] + 1, j)]
    return ChordConfiguration(trans, matching, base)


def _data(angles):
    angles = sorted(angles, key=lambda a: a.radians)
    return PiecewiseConstantBoundary(angles, [float(i % 2) for i in range(len(angles))])


def _coarse(seed):
    rng = random.Random(seed)
    q = rng.choice([4, 6, 8, 12, 16, 24])
    m = rng.randrange(2, 2 * q + 1, 2)
    return _data([Angle(Fraction(k, q)) for k in rng.sample(range(2 * q), m)])


def _jittered_polygon(seed):
    # vertices of a regular polygon, moved by less than 1e-13 radians, so
    # that energies tie within the tolerance while areas differ
    rng = random.Random(seed)
    q = rng.choice([4, 6, 8, 12])
    m = rng.randrange(4, 2 * q + 1, 2)
    ks = rng.sample(range(2 * q), m)
    return _data([Angle(Fraction(k, q), Fraction(rng.randint(-9, 9), 10**14)) for k in ks])


# subsets of the pi/12 lattice where energies tie in two half-spans of the
# minimal solve, so the second tie reads areas filled after the first
MULTI_TIE = (
    (5, 6, 7, 18, 22, 23),
    (0, 2, 3, 13, 15, 17, 21, 22),
    (3, 4, 5, 12, 13, 16, 19, 20, 21, 22),
    (2, 3, 7, 8, 14, 15, 16, 21, 22, 23),
    (0, 3, 7, 8, 14, 15, 16, 20, 21, 23),
    (0, 1, 3, 4, 5, 12, 13, 16, 22, 23),
)


def _multi_tie(ks):
    return _data([Angle(Fraction(k, 12)) for k in ks])


CASES = (
    [(f"gn{n}", lambda n=n: build_gn(n)) for n in range(9)]
    + [(f"fn{n}", lambda n=n: build_fn(n)) for n in range(9)]
    + [(f"coarse{s}", lambda s=s: _coarse(s)) for s in range(40)]
    + [(f"jittered{s}", lambda s=s: _jittered_polygon(s)) for s in range(40)]
    + [(f"multitie{i}", lambda ks=ks: _multi_tie(ks)) for i, ks in enumerate(MULTI_TIE)]
)


@pytest.mark.parametrize("mode", ["minimal", "maximal"])
@pytest.mark.parametrize("name, make", CASES, ids=[c[0] for c in CASES])
def test_solve_binary_matches_dense_fill(name, make, mode):
    data = make()
    got = solve_binary(data, mode)
    ref = _dense_solve(data, mode)
    assert got.matching == ref.matching
    assert got.energy.hex() == ref.energy.hex()
    assert got.label_area.hex() == ref.label_area.hex()


def test_corpus_has_area_ties():
    # the jittered polygons must reach the area rule, or the test above
    # would not exercise the tied-column path
    differ = 0
    for s in range(40):
        data = _jittered_polygon(s)
        differ += solve_binary(data, "minimal").matching != solve_binary(data, "maximal").matching
    assert differ >= 10


@st.composite
def _tie_prone(draw):
    """2-16 transitions on a lattice of pi/4 to pi/24, either exact or with
    every point moved by less than 1e-13 radians, and either first value."""
    q = draw(st.sampled_from([4, 6, 8, 12, 16, 24]))
    m = 2 * draw(st.integers(1, min(8, q)))
    ks = draw(st.lists(st.integers(0, 2 * q - 1), min_size=m, max_size=m, unique=True))
    jitter = draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m)) if draw(st.booleans()) else [0] * m
    first = draw(st.integers(0, 1))
    angles = sorted((Angle(Fraction(k, q), Fraction(j, 10**14)) for k, j in zip(ks, jitter)),
                    key=lambda a: a.radians)
    return PiecewiseConstantBoundary(angles, [float((i + first) % 2) for i in range(m)])


@settings(max_examples=200, deadline=None)
@given(_tie_prone())
def test_solve_binary_matches_dense_fill_on_lattices(data):
    for mode in ("minimal", "maximal"):
        got = solve_binary(data, mode)
        ref = _dense_solve(data, mode)
        assert got.matching == ref.matching
        assert got.energy.hex() == ref.energy.hex()
        assert got.label_area.hex() == ref.label_area.hex()


def test_pick_runs_only_where_energies_tie(monkeypatch):
    calls = []
    monkeypatch.setattr(chord_solver, "_pick", lambda *args: calls.append(1) or _pick(*args))
    for data in (build_gn(4), _data([Angle(Fraction(k, 2048)) for k in (3, 500, 1201, 2900, 3333, 4000)])):
        solve_binary(data, "minimal")
    assert calls == []  # no step of these ties
    octagon = _data([Angle(Fraction(k, 4)) for k in range(8)])
    for mode in ("minimal", "maximal"):
        assert solve_binary(octagon, mode) == _dense_solve(octagon, mode)
    assert len(calls) == 2  # only the full turn ties, once per mode
    for ks in MULTI_TIE:
        calls.clear()
        solve_binary(_multi_tie(ks), "minimal")
        assert len(calls) == 2
