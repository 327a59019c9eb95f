"""Output checks that do not trust the solver.

Every judgement here starts from the benchmark's own description of an
instance (exact breakpoints as ``pi * p + r`` with rational ``p`` and ``r``,
and which transitions rise) and from formulas evaluated here.  No lglab code
is called and nothing is compared against a stored copy of earlier output.

Each check returns a list of problems; an empty list means the answer holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

# The solver's energy tie band: energies within 1e-12 * max(1, E) are equal.
ENERGY_TOL = 1e-12
AREA_TOL = 1e-12


def energy_close(a: float, b: float) -> bool:
    return abs(a - b) <= ENERGY_TOL * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class BinaryInstance:
    """Binary data as ccw transitions in [0, 2*pi): ``angles[i] = (p, r)``
    stands for ``p*pi + r``; the data is 1 just after a rising transition."""

    angles: Tuple[Tuple[Fraction, Fraction], ...]
    rising: Tuple[bool, ...]

    @property
    def n(self) -> int:
        return len(self.angles)

    @cached_property
    def u(self) -> List[float]:
        return [float(p) * math.pi + float(r) for p, r in self.angles]

    def to_json_dict(self) -> dict:
        """The form ``PiecewiseConstantBoundary.from_json_dict`` reads."""
        return {
            "breakpoints": [[str(p), str(r)] for p, r in self.angles],
            "values": ["1" if up else "0" for up in self.rising],
        }


def lattice_instance(ks: Sequence[int], q: int, first_rising: bool) -> BinaryInstance:
    """Transitions at ``k*pi/q`` for sorted distinct ``k`` in [0, 2q)."""
    return BinaryInstance(
        tuple((Fraction(k, q), Fraction(0)) for k in ks),
        tuple((i % 2 == 0) == first_rising for i in range(len(ks))),
    )


# ---------------------------------------------------------------------------
# the fat Cantor set, computed here from its definition

def cantor_kept_offsets(n: int) -> List[Tuple[Fraction, Fraction]]:
    """Stage-n kept intervals as offsets from pi/2: start from [-1/2, 1/2]
    and remove the centred open interval of length 4^-j at stage j."""
    kept = [(Fraction(-1, 2), Fraction(1, 2))]
    for j in range(1, n + 1):
        cut = Fraction(1, 4**j)
        nxt = []
        for a, b in kept:
            mid = (a + b) / 2
            nxt.extend(((a, mid - cut / 2), (mid + cut / 2, b)))
        kept = nxt
    return kept


def cantor_instance(n: int, family: str) -> BinaryInstance:
    """``fn``: 1 on the stage-n kept arcs.  ``gn``: 0 on the arcs removed
    through stage n, 1 elsewhere."""
    kept = cantor_kept_offsets(n)
    half = Fraction(1, 2)
    if family == "fn":
        offs = [x for arc in kept for x in arc]
        rising = [i % 2 == 0 for i in range(len(offs))]
    elif family == "gn":
        # the removed arcs are the gaps between consecutive kept arcs
        offs = [x for a, b in zip(kept, kept[1:]) for x in (a[1], b[0])]
        rising = [i % 2 == 1 for i in range(len(offs))]
    else:
        raise ValueError(family)
    return BinaryInstance(tuple((half, x) for x in offs), tuple(rising))


def cantor_kept_measure(n: int) -> Fraction:
    a = Fraction(1)
    for j in range(1, n + 1):
        a = (a - Fraction(1, 4**j)) / 2
    return a


def cantor_energy(n: int, family: str) -> float:
    """Closed-form energy of the consecutive pairing: one chord per kept arc
    (fn) or per removed arc (gn)."""
    if family == "fn":
        return 2 ** (n + 1) * math.sin(float(cantor_kept_measure(n)) / 2.0)
    terms = []
    for ell in range(1, n + 1):
        terms.extend([2.0 * math.sin(4.0 ** (-ell) / 2.0)] * 2 ** (ell - 1))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# matchings judged from their indices and the instance's own angles

def chord_energy(u: Sequence[float], matching) -> float:
    return math.fsum(2.0 * abs(math.sin(0.5 * (u[j] - u[i]))) for i, j in matching)


def label_area(u: Sequence[float], rising: Sequence[bool], matching) -> float:
    """Area of the label-1 region by Green's theorem: each value-1 arc adds
    half its measure, each chord half the signed sine of its span."""
    n = len(u)
    terms = []
    for i in range(n):
        if rising[i]:
            nxt = u[i + 1] if i + 1 < n else u[0] + math.tau
            terms.append(nxt - u[i])
    for i, j in matching:
        s = math.sin(u[j] - u[i])
        terms.append(-s if rising[i] else s)
    return 0.5 * math.fsum(terms)


def assignment_energy(u: Sequence[float], rising: Sequence[bool]) -> float:
    """Minimum-cost rising-to-falling assignment over chord lengths.

    Two crossing chords can always be uncrossed into a shorter pair that
    still joins rising to falling, so this optimum is the non-crossing one.
    """
    up = np.array([x for x, r in zip(u, rising) if r])
    down = np.array([x for x, r in zip(u, rising) if not r])
    if up.size == 0:
        return 0.0
    cost = 2.0 * np.abs(np.sin(0.5 * (down[None, :] - up[:, None])))
    rows, cols = linear_sum_assignment(cost)
    return math.fsum(cost[rows, cols].tolist())


def matching_problems(matching, rising: Sequence[bool]) -> List[str]:
    """A perfect pairing of all transitions, non-crossing, rising to falling."""
    n = len(rising)
    partner = [-1] * n
    for pair in matching:
        i, j = sorted(int(x) for x in pair)
        if not (0 <= i < j < n):
            return [f"pair {pair} out of range"]
        if partner[i] != -1 or partner[j] != -1:
            return [f"index in {pair} matched twice"]
        if rising[i] == rising[j]:
            return [f"pair {pair} joins two transitions of one type"]
        partner[i], partner[j] = j, i
    if -1 in partner:
        return ["matching is not perfect"]
    stack: List[int] = []
    for i in range(n):
        if partner[i] > i:
            stack.append(partner[i])
        elif not stack or stack.pop() != i:
            return ["matching has crossing chords"]
    return []


def solution_problems(inst: BinaryInstance, matching, energy: float, u=None) -> List[str]:
    """Structure, reported energy against the one recomputed from the chords
    (over the angles ``u`` the solver reported, by default the instance's),
    and the recomputed energy against the assignment oracle."""
    problems = matching_problems(matching, inst.rising)
    if problems:
        return problems
    mine = chord_energy(inst.u if u is None else u, matching)
    if not energy_close(energy, mine):
        problems.append(f"reported energy {energy!r} but its chords sum to {mine!r}")
    best = assignment_energy(inst.u, inst.rising)
    if not energy_close(mine, best):
        problems.append(f"energy {mine!r} is not the optimum {best!r}")
    return problems


def transitions_problems(inst: BinaryInstance, transitions) -> List[str]:
    """The solver's transitions (objects with ``angle`` and ``rising``) are
    exactly the instance's, in the same order."""
    got = [((t.angle.pi_mult, t.angle.offset), bool(t.rising)) for t in transitions]
    want = list(zip(inst.angles, inst.rising))
    if got != want:
        return ["transitions differ from the instance's breakpoints"]
    return []


def config_problems(inst: BinaryInstance, cfg) -> List[str]:
    """A solved configuration (``transitions``, ``matching``, ``energy``)."""
    return transitions_problems(inst, cfg.transitions) or solution_problems(
        inst, cfg.matching, cfg.energy
    )


def cantor_problems(inst: BinaryInstance, n: int, family: str, cfg) -> List[str]:
    problems = config_problems(inst, cfg)
    consecutive = tuple((i, i + 1) for i in range(0, inst.n, 2))
    if tuple(tuple(p) for p in cfg.matching) != consecutive:
        problems.append("matching is not the consecutive pairing")
    want = cantor_energy(n, family)
    if not energy_close(cfg.energy, want):
        problems.append(f"energy {cfg.energy!r} differs from the closed form {want!r}")
    return problems


# ---------------------------------------------------------------------------
# exhaustive enumeration, for instances of at most 16 transitions

def all_matchings(n: int) -> List[Tuple[Tuple[int, int], ...]]:
    memo: Dict[Tuple[int, int], list] = {}

    def rec(i: int, j: int):
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


def optimal_set(inst: BinaryInstance):
    """All energy-optimal non-crossing matchings (within the tie band)."""
    u = inst.u
    scored = [(chord_energy(u, m), m) for m in all_matchings(inst.n)]
    emin = min(e for e, _ in scored)
    tol = ENERGY_TOL * max(1.0, emin)
    return {tuple(sorted(m)) for e, m in scored if e <= emin + tol}


def enumeration_problems(inst: BinaryInstance, enumerated, dp_min, dp_max) -> List[str]:
    """The enumerated optimal set is the benchmark's own; the DP picks in it
    the smallest label area (minimal mode) and the largest (maximal mode)."""
    problems: List[str] = []
    for cfg in enumerated:
        problems += config_problems(inst, cfg)
    got = {tuple(sorted(tuple(p) for p in c.matching)) for c in enumerated}
    if got != optimal_set(inst):
        problems.append("enumerated set differs from the optimal matchings")
    u = inst.u
    areas = [label_area(u, inst.rising, c.matching) for c in enumerated]
    for mode, dp in (("minimal", dp_min), ("maximal", dp_max)):
        problems += [f"{mode}: {p}" for p in config_problems(inst, dp)]
        if tuple(sorted(tuple(p) for p in dp.matching)) not in got:
            problems.append(f"{mode}: DP matching is not in the enumerated set")
            continue
        area = label_area(u, inst.rising, dp.matching)
        if mode == "minimal" and area > min(areas) + AREA_TOL:
            problems.append(f"minimal: area {area!r} above the set's smallest")
        if mode == "maximal" and area < max(areas) - AREA_TOL:
            problems.append(f"maximal: area {area!r} below the set's largest")
    return problems


# ---------------------------------------------------------------------------
# multi-level data: the coarea formula over superlevel slices

@dataclass(frozen=True)
class LevelInstance:
    """Piecewise constant data: ``values[i]`` holds from breakpoint i to i+1."""

    angles: Tuple[Tuple[Fraction, Fraction], ...]
    values: Tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [[str(p), str(r)] for p, r in self.angles],
            "values": [format(v, ".17g") for v in self.values],
        }

    def slices(self) -> List[Tuple[float, float, BinaryInstance]]:
        """(threshold, gap, binary superlevel data) between distinct values."""
        levels = sorted(set(self.values))
        out = []
        for lo, hi in zip(levels, levels[1:]):
            t = 0.5 * (lo + hi)
            above = [v > t for v in self.values]
            idx = [i for i in range(len(above)) if above[i] != above[i - 1]]
            out.append(
                (t, hi - lo, BinaryInstance(tuple(self.angles[i] for i in idx), tuple(above[i] for i in idx)))
            )
        return out


def stack_problems(inst: LevelInstance, stack, bv: float) -> List[str]:
    """Every slice is optimal for its own superlevel data, and the total
    variation is the gap-weighted sum of the slice optima."""
    slices = inst.slices()
    if tuple(stack.values) != tuple(sorted(set(inst.values))):
        return ["stack values differ from the data values"]
    if len(stack.slices) != len(slices):
        return [f"{len(stack.slices)} slices, expected {len(slices)}"]
    problems: List[str] = []
    weighted = []
    for k, (sl, (t, gap, b)) in enumerate(zip(stack.slices, slices)):
        if sl.threshold != t or sl.gap != gap:
            problems.append(f"slice {k}: threshold or gap differs")
        problems += [f"slice {k}: {p}" for p in config_problems(b, sl.config)]
        weighted.append(gap * assignment_energy(b.u, b.rising))
    want = math.fsum(weighted)
    if not energy_close(bv, want):
        problems.append(f"bv_energy {bv!r} differs from the slice optima {want!r}")
    return problems
