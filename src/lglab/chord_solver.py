"""Exact solver for binary boundary data on the disk.

Solutions of the two-valued problem are in bijection with non-crossing
perfect matchings of the data's transition points: every level boundary in
the disk is a straight chord, each chord joins a rising transition to a
falling one, and the chords of one solution never cross.  The solver is an
interval dynamic program over the cyclically ordered transitions with a
composite objective (total chord length, then a signed label-area term, then
the smallest split index), so minimal- and maximal-area optima are selected
deterministically.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from functools import cached_property, lru_cache
from operator import index, itemgetter
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Sequence, Tuple

from .circle_geometry import Angle, DomainError, chord_length

if TYPE_CHECKING:  # numpy is imported where array code runs, not with the module
    import numpy as np

MAX_TRANSITIONS = 2000
ENERGY_REL_TOL = 1e-12
AREA_TOL = 1e-12


class Transition(NamedTuple):
    """A boundary angle where binary data steps 0->1 (rising) or 1->0."""

    angle: Angle
    rising: bool


def transitions_of(data) -> Tuple[Transition, ...]:
    """The ``Transition`` view of binary data in ccw order, built once per
    data object and kept on it; DomainError for data with other values.
    The data's constructor has proven the order of the breakpoints and
    merged equal neighbours, so binary breakpoints alternate rising and
    falling, and the last value is the one held across angle 0."""
    if data._transitions is None:
        if not data.is_binary:
            raise DomainError("solver needs binary data with values in {0, 1}")
        data._transitions = tuple(Transition(bp, v == 1.0) for bp, v in zip(data.breakpoints, data.values))
    return data._transitions


def _validate_matching(n: int, matching: Sequence[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    try:
        pairs = [(index(i), index(j)) for i, j in matching]
    except (TypeError, ValueError) as exc:
        raise DomainError("matching must be a sequence of integer index pairs") from exc
    pairs = tuple(sorted((min(i, j), max(i, j)) for i, j in pairs))
    partner = [-1] * n
    for i, j in pairs:
        if not (0 <= i < j < n):
            raise DomainError("matching index out of range")
        if partner[i] != -1 or partner[j] != -1:
            raise DomainError("matching is not a perfect pairing")
        if (j - i) % 2 == 0:
            raise DomainError("matching pairs transitions of equal type")
        partner[i], partner[j] = j, i
    if n and -1 in partner:
        raise DomainError("matching is not perfect")
    stack: List[int] = []
    for i in range(n):
        if partner[i] > i:
            stack.append(partner[i])
        else:
            if not stack or stack.pop() != i:
                raise DomainError("matching has crossing chords")
    return pairs


def interior_radius(pts: np.ndarray) -> float:
    """Largest radius of an ``(n, 2)`` point array (0.0 for none); DomainError
    unless every point lies strictly inside the disk, which NaN does not."""
    import numpy as np

    rmax = float(np.max(np.hypot(pts[:, 0], pts[:, 1]), initial=0.0))
    if not rmax < 1.0:
        raise DomainError("evaluation points must lie strictly inside the disk")
    return rmax


class ChordConfiguration:
    """A non-crossing chord matching of the transition points of binary
    ``data`` (a ``PiecewiseConstantBoundary`` with values in {0, 1}), with
    the induced two-coloring of the disk.  The data is the one validated form
    of the transitions, so the constructor checks the matching only."""

    def __init__(self, data, matching: Sequence[Tuple[int, int]]):
        self.data = data
        self.matching = _validate_matching(len(transitions_of(data)), matching)

    @classmethod
    def _of(cls, data, matching: Tuple[Tuple[int, int], ...]) -> "ChordConfiguration":
        """A configuration of a matching that is non-crossing, perfect and
        sorted by construction (the DP backtrack, the enumeration table),
        kept as it is without ``_validate_matching``."""
        self = cls.__new__(cls)
        self.data = data
        self.matching = matching
        return self

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        """The data's ``transitions_of``, one tuple shared by its configurations."""
        return transitions_of(self.data)

    @property
    def base_value(self) -> int:
        """The label held across angle 0, the data's last value."""
        return int(self.data.values[-1])

    # -- scalar invariants ------------------------------------------------
    @cached_property
    def energy(self) -> float:
        """Total chord length, summed canonically (index order, exact fsum)."""
        u = self.data._rad
        return math.fsum(chord_length(u[j] - u[i]) for i, j in self.matching)

    @cached_property
    def label_area(self) -> float:
        """Area of the label-1 region (boundary arcs plus chord terms)."""
        u, vals = self.data._rad, self.data.values
        n = len(u)
        if n == 0:
            return math.pi * self.base_value
        terms = []
        for i, v in enumerate(vals):
            if v == 1.0:
                nxt = u[(i + 1) % n] + (math.tau if i + 1 == n else 0.0)
                terms.append(nxt - u[i])
        for i, j in self.matching:
            s = math.sin(u[j] - u[i])
            terms.append(-s if vals[i] == 1.0 else s)
        return 0.5 * math.fsum(terms)

    @cached_property
    def _partner(self) -> Dict[int, int]:
        """Each transition's partner in the matching, for ``level_stack.trace``."""
        return {k: m for i, j in self.matching for k, m in ((i, j), (j, i))}

    # -- pointwise labels ------------------------------------------------
    @cached_property
    def _segments(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per chord (i, j): the unit normal at the arc midpoint 0.5 (u[i] + u[j])
        and cos(0.5 (u[j] - u[i])).  A point p lies in the segment on the arc
        side exactly when p . normal > cos; a label flips once per segment."""
        import numpy as np

        u = np.array(self.data._rad)
        i, j = np.array(self.matching, dtype=np.intp).reshape(-1, 2).T
        mid = 0.5 * (u[i] + u[j])
        return np.column_stack([np.cos(mid), np.sin(mid)]), np.cos(0.5 * (u[j] - u[i]))

    def evaluate_points(self, pts: np.ndarray) -> np.ndarray:
        """Labels (0/1) at points strictly inside the disk, shape (n, 2);
        DomainError for any other point (see ``interior_radius``).  Points on
        a chord get the label of the side the strict test leaves them on (a
        null set)."""
        import numpy as np

        pts = np.asarray(pts, dtype=float)
        interior_radius(pts)
        return self._labels(pts)

    def _labels(self, pts: np.ndarray) -> np.ndarray:
        """``evaluate_points`` without its guard, for callers that have run
        ``interior_radius`` on the float array ``pts`` themselves."""
        import numpy as np

        flip = np.zeros(len(pts), dtype=np.int64)
        for n, c in zip(*self._segments):
            flip += pts @ n > c
        return (self.base_value + flip) % 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChordConfiguration):
            return NotImplemented
        return self.matching == other.matching and self.data == other.data

    def __hash__(self):
        return hash((self.data, self.matching))

    def __repr__(self):
        return (
            f"ChordConfiguration({len(self.data.breakpoints)} transitions, "
            f"{self.matching!r}, base={self.base_value})"
        )


# ---------------------------------------------------------------------------
# the interval DP

SCALAR_FILL_MAX = 20  # the most transitions the scalar fill takes (see solve_binary)


def _chord_diffs(u: np.ndarray) -> np.ndarray:
    """``u[i + 1 + 2t] - u[i]`` at ``[t, i]``: the span-major chord table
    of shape (m/2, m) from which ``_numpy_fill`` takes its chord terms
    (entries with i + 1 + 2t >= m read zero padding and are never used)."""
    import numpy as np

    n = u.size
    u_at = np.ndarray((n + 1, n), buffer=np.concatenate((u, np.zeros(n))), strides=(8, 8))  # u[s+i]
    return u_at[1::2] - u


def _flat_chord_diffs(u: Sequence[float]) -> List[float]:
    """``_chord_diffs`` flattened to a list in plain Python, for the scalar
    fill: ``u[i + 1 + 2t] - u[i]`` at ``t m + i``."""
    n = len(u)
    padded = list(u) + [0.0] * n
    return [padded[i + s] - u[i] for s in range(1, n, 2) for i in range(n)]


def _area_terms(data, mode: str, D):
    """Chord (i, i + 1 + 2t) signed area term in the place of its difference
    in ``D``, the calling fill's chord table (``_chord_diffs``' array, which
    is overwritten, or ``_flat_chord_diffs``' list): sin(u[k] - u[i]),
    negated for a rising i, and negated again in maximal mode so the smallest
    term always wins.  Only a tie reads it, so the fills build it at their
    first tie.  ``math.sin`` and numpy's ``sin`` agree to the bit on the
    platforms the tests run on, which ``tests/test_dp_fill.py`` pins."""
    flip = -1.0 if mode == "maximal" else 1.0
    sgn = [-flip if v == 1.0 else flip for v in data.values]
    if isinstance(D, list):
        return [math.sin(d) * sgn[k % len(sgn)] for k, d in enumerate(D)]
    import numpy as np

    np.sin(D, out=D)
    D *= sgn
    return D


def _near_min(e: np.ndarray, out=None) -> np.ndarray:
    """Mask of the near-minimal energies along axis 0 (see ``_pick``)."""
    import numpy as np

    emin = e.min(axis=0)
    return np.less_equal(e, emin + ENERGY_REL_TOL * np.maximum(1.0, np.abs(emin)), out=out)


def _pick(e: np.ndarray, a: np.ndarray, near=None) -> np.ndarray:
    """Index of the preferred candidate along axis 0, for every column.

    Order-independent composite rule: keep the candidates whose energy is
    within ``ENERGY_REL_TOL * max(1, |min|)`` of the minimum (the mask
    ``near``, by default ``_near_min(e)``; ``e`` is not read when it is
    given), among them the ones whose area term is within ``AREA_TOL`` of the
    smallest, and take the first of those (the smallest split index).
    """
    import numpy as np

    a = np.where(_near_min(e) if near is None else near, a, np.inf)
    return (a <= a.min(axis=0) + AREA_TOL).argmax(axis=0)


def _backtrack(n: int, split) -> Tuple[Tuple[int, int], ...]:
    """The matching of a filled DP: ``split(h * (n + 1) + i)`` is the offset t
    of the split k = i + 1 + 2t chosen for interval (i, i + 2h).  Inner
    intervals are visited first, so the chords come out sorted."""
    matching: List[Tuple[int, int]] = []
    work = [(0, n)]
    while work:
        i, j = work.pop()
        if i >= j:
            continue
        k = i + 1 + 2 * split((j - i) // 2 * (n + 1) + i)
        matching.append((i, k))
        work.append((k + 1, j))
        work.append((i + 1, k))
    return tuple(matching)


def _numpy_fill(data, mode: str):
    """The DP filled one half-span at a time, each a numpy step over all
    (split, start) pairs; ``solve_binary`` uses it above ``SCALAR_FILL_MAX``
    transitions.  Returns the matching and, for ``solve_binary`` to share,
    the matching again when no step tied (it serves both modes), else None."""
    import numpy as np

    u = np.array(data._rad)
    n = u.size
    # Row h of each table holds the intervals (i, i + 2h) at column i.  For
    # half-span h, split k = i + 1 + 2t pairs i with k and leaves (i+1, k)
    # at E[t, i+1] and (k+1, i+2h) at flat index (h-1)(n+1) + 2 + i - t(n-1).
    half = n // 2
    E = np.zeros((half + 1, n + 1))
    A = np.zeros((half + 1, n + 1))
    T = np.zeros((half + 1, n + 1), dtype=np.int32)
    E_out, A_out = (np.ndarray((X.size - n, n + 1), buffer=X, strides=(8, 8)) for X in (E, A))
    C, S = _chord_diffs(u), None  # chord (i, i + 1 + 2t) length at [t, i]
    C *= 0.5
    np.sin(C, out=C)
    C *= 2.0
    cols = np.arange(n + 1)
    # step buffers for the energies, their mask and tied areas; h * rows <= (n + 1)^2 / 8
    e_buf = np.empty(n * n // 8 + n + 1)
    a_buf = np.empty(e_buf.size)
    ok_buf = np.empty(e_buf.size, dtype=bool)
    filled = 0  # A holds the areas up to this half-span; only a tie reads them
    for h in range(1, half + 1):
        rows = n - 2 * h + 1
        start = (h - 1) * (n + 1) + 2
        e = np.add(C[:h, :rows], E[:h, 1 : 1 + rows], out=e_buf[: h * rows].reshape(h, rows))
        e += E_out[start :: 1 - n][:h, :rows]
        ok = _near_min(e, out=ok_buf[: h * rows].reshape(h, rows))
        if np.count_nonzero(ok) > rows:  # a tie: untied columns _pick as argmax does
            if S is None:
                S = _area_terms(data, mode, _chord_diffs(u))
            for g in range(filled + 1, h):  # areas of the splits chosen since the last tie
                t, c = T[g, : n - 2 * g + 1], cols[: n - 2 * g + 1]
                A[g, : c.size] = S[t, c] + A[t, 1 + c] + A_out[(g - 1) * (n + 1) + 2 :: 1 - n][t, c]
            filled = h - 1
            a = np.add(S[:h, :rows], A[:h, 1 : 1 + rows], out=a_buf[: h * rows].reshape(h, rows))
            a += A_out[start :: 1 - n][:h, :rows]
            t = _pick(None, a, ok)
        else:
            t = ok.argmax(axis=0)
        E[h, :rows] = e[t, cols[:rows]]
        T[h, :rows] = t
    matching = _backtrack(n, T.item)
    return matching, (matching if S is None else None)


@lru_cache(maxsize=None)
def _schedule(n: int) -> Tuple[Tuple[int, Tuple[Tuple[int, int, int], ...]], ...]:
    """The scalar fill's cells in fill order.  Interval (i, i + 2h) is cell
    h(n+1) + i of the flat tables; for each split offset t it lists the flat
    index of the chord term (t n + i, in ``_chord_diffs``' layout) and of
    the inner and outer intervals (i+1, k) and (k+1, i+2h), k = i + 1 + 2t."""
    w = n + 1
    return tuple(
        (h * w + i, tuple((t * n + i, t * w + i + 1, (h - 1 - t) * w + i + 2 + 2 * t) for t in range(h)))
        for h in range(1, n // 2 + 1)
        for i in range(n - 2 * h + 1)
    )


def _pick_area(areas: List[float]) -> int:
    """The area half of ``_pick`` in one cell of the scalar fill: the first
    position whose area is within ``AREA_TOL`` of the smallest."""
    bound = min(areas) + AREA_TOL
    return next(k for k, a in enumerate(areas) if a <= bound)


def _scalar_tables(data, mode: str):
    """The DP filled one cell at a time over float lists, without numpy,
    with ``_pick``'s rule in the same IEEE operations as ``_numpy_fill``:
    chord terms 2.0 * sin(0.5 * d) and area terms by ``math.sin``, energies
    (C + E_in) + E_out, the bound emin + ENERGY_REL_TOL * max(1, |emin|),
    and, in a cell with more than one near-minimal split, areas
    (S + A_in) + A_out and the first split within AREA_TOL of the smallest.
    Like ``_numpy_fill`` it fills the area table A only as far as a tie
    reads it.  Returns T and A (None without a tie)."""
    n = len(data._rad)
    cells = _schedule(n)
    size = (n // 2 + 1) * (n + 1)
    D = _flat_chord_diffs(data._rad)
    C, E, T = [2.0 * math.sin(0.5 * d) for d in D], [0.0] * size, [0] * size
    S = A = None
    filled = 0  # A holds the areas of the cells before this position
    for pos, (cell, splits) in enumerate(cells):
        es = [C[c] + E[i] + E[o] for c, i, o in splits]
        t = 0
        if len(es) > 1:
            emin = min(es)
            bound = emin + ENERGY_REL_TOL * max(1.0, abs(emin))
            t = es.index(emin)
            if sorted(es)[1] <= bound:  # more than one near-minimal split
                if S is None:
                    S, A = _area_terms(data, mode, D), [0.0] * size
                for done, done_splits in cells[filled:pos]:
                    c, i, o = done_splits[T[done]]
                    A[done] = S[c] + A[i] + A[o]
                filled = pos
                near = [k for k, e in enumerate(es) if e <= bound]
                t = near[_pick_area([S[c] + A[i] + A[o] for c, i, o in map(splits.__getitem__, near)])]
            T[cell] = t
        E[cell] = es[t]
    return T, A


def _scalar_fill(data, mode: str):
    """``_scalar_tables``' matching and, for ``solve_binary`` to share, the
    matching again when no cell tied, else None.  Used up to
    ``SCALAR_FILL_MAX``."""
    T, A = _scalar_tables(data, mode)
    matching = _backtrack(len(data._rad), T.__getitem__)
    return matching, (matching if A is None else None)


def solve_binary(data, mode: str = "minimal") -> ChordConfiguration:
    """Minimum-total-chord-length configuration for binary boundary data.

    ``mode`` picks the representative among energy ties: "minimal" prefers
    the smallest label-1 area, "maximal" the largest; remaining ties go to
    the smallest split index (see ``_pick``).  The O(m^3) interval DP has
    two fills that choose the same splits from the same chord terms, and the
    number of transitions picks one.  Up to ``SCALAR_FILL_MAX`` (20),
    ``_scalar_fill`` walks the cells over float lists, because there a numpy
    call costs more than the work it does (the two were level at 22 on 2
    vCPUs).  Above it ``_numpy_fill`` fills one half-span ``h`` at a time:
    the splits of all intervals ``(i, i + 2h)`` are chosen by energy in one
    numpy step; a step with a tie first fills the area table ``A`` that far,
    then applies ``_pick`` to all its columns.

    The mode enters a fill only at its first tie, so the data keeps in its
    ``_fill`` slot the matching of an untied fill, which answers both modes;
    it is a tuple of index pairs, not a configuration, which would refer
    back to the data and make a cycle.  A tied fill shares nothing.
    """
    if mode not in ("minimal", "maximal"):
        raise DomainError(f"unknown mode {mode!r}")
    n = len(transitions_of(data))
    if n > MAX_TRANSITIONS:
        raise DomainError(f"too many transitions ({n} > {MAX_TRANSITIONS})")
    matching = data._fill
    if matching is None:
        matching, data._fill = (_scalar_fill if n <= SCALAR_FILL_MAX else _numpy_fill)(data, mode)
    return ChordConfiguration._of(data, matching)


# ---------------------------------------------------------------------------
# exhaustive enumeration (the oracle for the DP)

ENUMERATION_CAP = 16


@lru_cache(maxsize=None)
def _all_matchings(n: int) -> np.ndarray:
    """Every non-crossing matching of n points in recursion order, as a
    read-only int8 table of shape (Catalan(n/2), n/2, 2)."""
    import numpy as np

    memo: Dict[Tuple[int, int], List[Tuple[Tuple[int, int], ...]]] = {}

    def rec(i: int, j: int) -> List[Tuple[Tuple[int, int], ...]]:
        if i >= j:
            return [()]
        if (i, j) not in memo:
            outs = []
            for k in range(i + 1, j, 2):
                for inner in rec(i + 1, k):
                    for outer in rec(k + 1, j):
                        outs.append(((i, k),) + inner + outer)
            memo[i, j] = outs
        return memo[i, j]

    rows = rec(0, n)
    table = np.array(rows, dtype=np.int8).reshape(len(rows), n // 2, 2)
    table.flags.writeable = False
    return table


def select_optimal(
    configs: Sequence[ChordConfiguration], mode: str = "minimal"
) -> ChordConfiguration:
    """The representative the DP selects, from an explicit list: ``_pick``
    over the configurations in matching order."""
    import numpy as np

    area_sign = 1.0 if mode == "minimal" else -1.0
    ordered = sorted(configs, key=lambda c: c.matching)
    e = np.array([c.energy for c in ordered])
    a = np.array([area_sign * c.label_area for c in ordered])
    return ordered[int(_pick(e, a))]


@lru_cache(maxsize=None)
def _matching_index(n: int) -> np.ndarray:
    """Read-only (n/2, Catalan(n/2)) intp table: column r holds the chords of
    ``_all_matchings(n)[r]`` as positions in the list of all (i, k), k - i odd."""
    import numpy as np

    i, k = _all_matchings(n).T.astype(np.intp)
    start = np.cumsum([0] + [(n - x) // 2 for x in range(n)])
    index = start[i] + (k - i - 1) // 2
    index.flags.writeable = False
    return index


def _near_optimal(terms: np.ndarray) -> Tuple[List[int], List[float]]:
    """The columns of ``terms`` (h chord lengths per matching) whose ``fsum``
    is in the energy band of the smallest, as a scan of every ``fsum`` finds
    them, and those ``fsum``s; only float sums s within the band of the
    smallest, s0, plus 2 err are summed exactly.  With u = 2**-53, a column of exact sum R >= 0 has
    |s - R| <= gR, g = (h-1)u / (1 - (h-1)u) < hu, in any order, and
    |fsum - R| <= uR; so the smallest fsum is at most (1 + u) / (1 - g) s0,
    and as the band B(x) = x + tol max(1, x) is monotone, a column in the
    band of it (two roundings) has s <= (1 + g)(1 + u)^3 / ((1 - u)(1 - g))
    B(s0) < (1 + (2h + 4)u) B(s0).  2 err = (2h + 8)u max(1, s0) covers that
    and the threshold's 3 roundings, and the smallest fsum is among those."""
    import numpy as np

    s = terms.sum(axis=0)
    s0 = float(s.min())
    err = (terms.shape[0] + 4) * 2.0**-53 * max(1.0, s0)  # (h + 4)u max(1, s0)
    cols = np.flatnonzero(s <= s0 + ENERGY_REL_TOL * max(1.0, s0) + 2 * err).tolist()
    energies = list(map(math.fsum, terms[:, cols].T.tolist()))
    emin = min(energies)
    bound = emin + ENERGY_REL_TOL * max(1.0, emin)
    kept = [k for k, e in enumerate(energies) if e <= bound]
    return [cols[k] for k in kept], [energies[k] for k in kept]


def enumerate_optimal(data) -> Tuple[ChordConfiguration, ...]:
    """All energy-optimal configurations (within 1e-12 relative), sorted by
    energy, then label area, then matching: element 0 has the least energy,
    not always the least area.  Exhaustive over the Catalan family; refuses
    more than ``ENUMERATION_CAP`` (16) transitions."""
    n = len(transitions_of(data))
    if n > ENUMERATION_CAP:
        raise DomainError(f"enumeration capped at {ENUMERATION_CAP} transitions (got {n})")
    import numpy as np

    # chord_length's own operations; its range check holds on sorted u
    u = data._rad
    lengths = np.array([2.0 * math.sin(0.5 * (y - x)) for i, x in enumerate(u) for y in u[i + 1 :: 2]])
    table = _all_matchings(n)
    best = []
    for r, e in zip(*_near_optimal(lengths[_matching_index(n)])):
        cfg = ChordConfiguration._of(data, tuple(map(tuple, table[r].tolist())))
        cfg.energy = e  # the correctly rounded sum of the same floats: ``energy`` to the bit
        best.append(cfg)
    if len(best) > 1:
        best.sort(key=lambda c: (c.energy, c.label_area, c.matching))
    return tuple(best)


# ---------------------------------------------------------------------------
# exact region containment

def endpoint_ranks(*configs: ChordConfiguration) -> List[List[int]]:
    """Rank of every transition of every configuration in the merged exact
    ccw order of their data's breakpoints; equal angles share a rank.  The
    breakpoints are normalized and sorted already, so a merge orders them."""
    ranks = [[0] * len(cfg.data.breakpoints) for cfg in configs]
    tagged = (
        [(a, c, k) for k, a in enumerate(cfg.data.breakpoints)]
        for c, cfg in enumerate(configs)
    )
    r, prev = -1, None
    for angle, c, k in heapq.merge(*tagged, key=itemgetter(0)):
        if angle != prev:
            r, prev = r + 1, angle
        ranks[c][k] = r
    return ranks


def region_subset(inner: ChordConfiguration, outer: ChordConfiguration) -> bool:
    """Is the label-1 region of ``inner`` contained in that of ``outer``?

    Exact, from the circular order of the chord endpoints alone (see
    ``endpoint_ranks``).  Every inner cell meets the circle along an arc of
    positive length, so containment holds exactly when (a) the inner data is
    <= the outer data on every arc between consecutive endpoints and (b) no
    outer chord enters the open inner 1-region.  For (b) an outer chord that
    coincides with an inner one lies on the region's boundary and is
    skipped; one whose endpoint ranks strictly interleave an inner chord's
    crosses it and meets both inner labels; any other lies in one inner
    cell, whose label is the inner base flipped once per inner chord (x, y)
    with x <= p and q <= y for the chord's ranks p < q.
    """
    ra, rb = endpoint_ranks(inner, outer)
    # (a) inner data <= outer data on the arc after every rank (index -1 is
    # the last arc, which wraps past angle 0; constant data has one value)
    vi, vo = inner.data.values, outer.data.values
    n_ranks = max(ra[-1:] + rb[-1:], default=0) + 1
    if any(vi[bisect_right(ra, r) - 1] > vo[bisect_right(rb, r) - 1] for r in range(n_ranks)):
        return False
    # (b) no outer chord enters the open inner 1-region
    inner_chords = [(ra[i], ra[j]) for i, j in inner.matching]
    coincident = set(inner_chords)
    for i, j in outer.matching:
        p, q = rb[i], rb[j]
        if (p, q) in coincident:
            continue
        label = inner.base_value
        for x, y in inner_chords:
            if x < p < y < q or p < x < q < y:
                return False  # a proper crossing meets both inner labels
            label ^= x <= p and q <= y
        if label:
            return False
    return True
