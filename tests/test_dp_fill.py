"""The interval DP against a dense reference fill.

``solve_binary`` has two fills, chosen by the number of transitions: the
scalar fill up to ``SCALAR_FILL_MAX`` and the numpy fill above it.  Both
choose each split by energy first and evaluate the area tie-break only
where more than one split is within the energy tolerance.  The reference
here fills plain ``(i, j)`` tables and applies ``_pick`` to every (split,
column) cell of every half-span, with the same floating-point operations in
the same order, so every fill must agree with it on the matching and on the
bits of ``energy`` and ``label_area``.  Each fill is also called directly on
inputs of every size, so neither goes untested where ``solve_binary`` would
choose the other.  The corpus leans on ties: coarse lattices and regular
polygons whose vertices are jittered far below the energy tolerance.  The
numpy fill evaluates ``_pick`` only in a half-span where some column ties;
both fills build the area terms at their first tie and fill the area table
only as far as a tie reads it.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lglab.boundary_data import PiecewiseConstantBoundary, build_fn, build_gn
import lglab.chord_solver as chord_solver
from lglab.chord_solver import (
    ENUMERATION_CAP,
    ChordConfiguration,
    _pick,
    _validate_matching,
    enumerate_optimal,
    solve_binary,
    transitions_of,
)
from lglab.circle_geometry import Angle

FILLS = ("scalar", "numpy")


def _fill(name, data, mode):
    """Run one fill of the DP directly, whatever the size of the data, and
    return the configuration of its matching."""
    return ChordConfiguration._of(data, getattr(chord_solver, f"_{name}_fill")(data, mode)[0])


def _dense_solve(data, mode, steps=None):
    """The reference fill; ``steps``, when given, receives every half-span's
    (split, column) energy and area candidates under its half-span."""
    trans = transitions_of(data)
    n = len(trans)
    u = np.array(data._rad)
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
        if steps is not None:
            steps[h] = e, a
        E[i, j] = e[t, i]
        A[i, j] = a[t, i]
        K[i, j] = k[t, i]
    matching, work = [], [(0, n)]
    while work:
        i, j = work.pop()
        if i < j:
            matching.append((i, int(K[i, j])))
            work += [(i + 1, K[i, j]), (K[i, j] + 1, j)]
    return ChordConfiguration(data, matching)


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


def _sized(m, seed):
    # m points of the pi/12 lattice, jittered below 1e-13 on odd seeds; the
    # corpus takes 16 to 22 points, around SCALAR_FILL_MAX
    rng = random.Random(seed)
    return _data([Angle(Fraction(k, 12), Fraction(rng.randint(-9, 9) * (seed % 2), 10**14))
                  for k in rng.sample(range(24), m)])


# the cases small enough for the scalar fill's per-size schedule, whose
# length grows as m^3 / 24 (Cantor stage 5 has 62 transitions); each fill
# is called on all of them, and solve_binary on the larger ones too
SMALL_CASES = (
    [(f"gn{n}", lambda n=n: build_gn(n)) for n in range(6)]
    + [(f"fn{n}", lambda n=n: build_fn(n)) for n in range(6)]
    + [(f"coarse{s}", lambda s=s: _coarse(s)) for s in range(40)]
    + [(f"jittered{s}", lambda s=s: _jittered_polygon(s)) for s in range(40)]
    + [(f"multitie{i}", lambda ks=ks: _multi_tie(ks)) for i, ks in enumerate(MULTI_TIE)]
    + [(f"size{m}_{s}", lambda m=m, s=s: _sized(m, s)) for m in (16, 18, 20, 22) for s in range(4)]
)
CASES = (
    SMALL_CASES
    + [(f"gn{n}", lambda n=n: build_gn(n)) for n in range(6, 9)]
    + [(f"fn{n}", lambda n=n: build_fn(n)) for n in range(6, 9)]
)
FILL_CASES = [(fill, *case) for fill in FILLS for case in SMALL_CASES]


def _same(got, ref):
    assert got.matching == ref.matching
    assert got.energy.hex() == ref.energy.hex()
    assert got.label_area.hex() == ref.label_area.hex()


@pytest.mark.parametrize("mode", ["minimal", "maximal"])
@pytest.mark.parametrize("name, make", CASES, ids=[c[0] for c in CASES])
def test_solve_binary_matches_dense_fill(name, make, mode):
    data = make()
    _same(solve_binary(data, mode), _dense_solve(data, mode))


def test_corpus_has_area_ties():
    # the jittered polygons must reach the area rule, or the test above
    # would not exercise the tied-column path
    differ = 0
    for s in range(40):
        data = _jittered_polygon(s)
        differ += solve_binary(data, "minimal").matching != solve_binary(data, "maximal").matching
    assert differ >= 10


@pytest.mark.parametrize("mode", ["minimal", "maximal"])
@pytest.mark.parametrize("fill, name, make", FILL_CASES, ids=[f"{c[0]}-{c[1]}" for c in FILL_CASES])
def test_fill_matches_dense_fill(fill, name, make, mode):
    data = make()
    _same(_fill(fill, data, mode), _dense_solve(data, mode))


def test_solve_binary_picks_the_fill_by_size(monkeypatch):
    used = []

    def spy(fill):
        run = getattr(chord_solver, f"_{fill}_fill")
        return lambda *args: used.append(fill) or run(*args)

    for fill in FILLS:
        monkeypatch.setattr(chord_solver, f"_{fill}_fill", spy(fill))
    for m, fill in ((chord_solver.SCALAR_FILL_MAX, "scalar"), (chord_solver.SCALAR_FILL_MAX + 2, "numpy")):
        for s in range(4):
            for mode in ("minimal", "maximal"):
                used.clear()
                data = _sized(m, s)
                _same(solve_binary(data, mode), _dense_solve(data, mode))
                assert used == [fill]


def test_built_matchings_are_valid():
    # the fills and the enumeration build their configurations without
    # _validate_matching: each matching must be what it would return
    def check(cfg, data):
        trans = transitions_of(data)
        assert cfg.matching == _validate_matching(len(trans), cfg.matching)
        assert all(type(x) is int for pair in cfg.matching for x in pair)
        assert cfg.data is data and cfg.transitions is trans

    for fill, _, make in FILL_CASES:
        data = make()
        for mode in ("minimal", "maximal"):
            check(_fill(fill, data, mode), data)
    for _, make in SMALL_CASES:
        data = make()
        if len(transitions_of(data)) <= ENUMERATION_CAP:
            for cfg in enumerate_optimal(data):
                check(cfg, data)


@st.composite
def _tie_prone(draw):
    """2-24 transitions on a lattice of pi/4 to pi/24, either exact or with
    every point moved by less than 1e-13 radians, and either first value."""
    q = draw(st.sampled_from([4, 6, 8, 12, 16, 24]))
    m = 2 * draw(st.integers(1, min(12, q)))
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
        _same(solve_binary(data, mode), _dense_solve(data, mode))


@pytest.mark.parametrize("fill", FILLS)
@settings(max_examples=200, deadline=None)
@given(data=_tie_prone())
def test_fill_matches_dense_fill_on_lattices(fill, data):
    for mode in ("minimal", "maximal"):
        _same(_fill(fill, data, mode), _dense_solve(data, mode))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-0.25, 0.0, 1e-13, 5e-13, 1e-12, 2e-12, 0.5]), min_size=1, max_size=12))
def test_pick_area_is_the_area_rule_of_pick(areas):
    # the scalar fill applies _pick's area rule to one cell's near-minimal
    # splits: with every energy tied, the two must choose alike
    assert chord_solver._pick_area(areas) == int(_pick(np.zeros(len(areas)), np.array(areas)))


UNTIED = (build_gn(4), _data([Angle(Fraction(k, 2048)) for k in (3, 500, 1201, 2900, 3333, 4000)]))
OCTAGON = _data([Angle(Fraction(k, 4)) for k in range(8)])


def test_pick_runs_only_where_energies_tie(monkeypatch):
    calls = []
    monkeypatch.setattr(chord_solver, "_pick", lambda *args: calls.append(1) or _pick(*args))
    for data in UNTIED:
        _fill("numpy", data, "minimal")
    assert calls == []  # no step of these ties
    for mode in ("minimal", "maximal"):
        assert _fill("numpy", OCTAGON, mode) == _dense_solve(OCTAGON, mode)
    assert len(calls) == 2  # only the full turn ties, once per mode
    for ks in MULTI_TIE:
        calls.clear()
        _fill("numpy", _multi_tie(ks), "minimal")
        assert len(calls) == 2


@pytest.mark.parametrize("fill", FILLS)
def test_area_terms_are_built_only_at_a_tie(monkeypatch, fill):
    calls = []
    area_terms = chord_solver._area_terms
    monkeypatch.setattr(chord_solver, "_area_terms", lambda *args: calls.append(1) or area_terms(*args))
    for data in UNTIED:
        for mode in ("minimal", "maximal"):
            _fill(fill, data, mode)
    assert calls == []
    for mode in ("minimal", "maximal"):
        assert _fill(fill, OCTAGON, mode) == _dense_solve(OCTAGON, mode)
    assert len(calls) == 2  # once per solve, however many cells tie


# White box: both fills fill their area tables lazily, at each tie catching
# up on the cells chosen since the last one.  Every area candidate a fill
# compares must equal the dense fill's, bit for bit, or a row was skipped or
# filled out of turn (which no matching in the corpus shows).

@pytest.mark.parametrize("mode", ["minimal", "maximal"])
def test_numpy_fill_reads_dense_areas(monkeypatch, mode):
    seen = []
    monkeypatch.setattr(chord_solver, "_pick", lambda e, a, near: seen.append(a.copy()) or _pick(e, a, near))
    multi = 0
    for _, make in SMALL_CASES:
        data = make()
        seen.clear()
        _fill("numpy", data, mode)
        steps = {}
        _dense_solve(data, mode, steps)
        for a in seen:  # one tied half-span each, all its (split, column) areas
            assert np.array_equal(a, steps[a.shape[0]][1])
        multi += len(seen) > 1
    assert multi >= 6  # solves that read rows filled after an earlier tie


@pytest.mark.parametrize("mode", ["minimal", "maximal"])
def test_scalar_fill_reads_dense_areas(monkeypatch, mode):
    seen = []
    pick_area = chord_solver._pick_area
    monkeypatch.setattr(chord_solver, "_pick_area", lambda a: seen.append(a) or pick_area(a))
    multi = 0
    for _, make in SMALL_CASES:
        data = make()
        seen.clear()
        _fill("scalar", data, mode)
        steps = {}
        _dense_solve(data, mode, steps)
        want = []  # per tied cell in fill order, the areas of its near-minimal splits
        for h in sorted(steps):
            e, a = steps[h]
            near = chord_solver._near_min(e)
            want += [a[near[:, i], i].tolist() for i in range(e.shape[1]) if near[:, i].sum() > 1]
        assert seen == want
        multi += len(seen) > 1
    assert multi >= 6
