"""Solver outputs pinned to their bits on a small fixed corpus.

``golden_solve.json`` holds, per instance, the hex bits of the transition
radians, and the matching and the hex bits of the energy and the label area
of ``solve_binary`` in both modes and of every ``enumerate_optimal`` optimum.
It was written by an earlier version of the package; rewrite it only for a
declared change of outputs:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from lglab.boundary_data import PiecewiseConstantBoundary, build_fn, build_gn
from lglab.chord_solver import enumerate_optimal, solve_binary
from lglab.circle_geometry import Angle

GOLDEN = Path(__file__).with_name("golden_solve.json")


def _lattice(rng: random.Random, q: int, m: int, turns: bool, offset: Fraction):
    ks = rng.sample(range(2 * q), m)
    angles = [Angle(Fraction(k, q) + (2 * rng.randint(-2, 2) if turns else 0), offset) for k in ks]
    rank = {k: i for i, k in enumerate(sorted(ks))}
    return PiecewiseConstantBoundary(angles, [float(rank[k] % 2) for k in ks])


def corpus():
    rng = random.Random(20261018)
    out = {f"gn{n}": build_gn(n) for n in range(1, 5)}
    out.update({f"fn{n}": build_fn(n) for n in range(1, 4)})
    for i, (q, m) in enumerate([(4, 4), (4, 8), (6, 10), (8, 12), (8, 16), (12, 14), (2048, 16), (2048, 40)]):
        out[f"lattice{i} {m}/pi/{q}"] = _lattice(rng, q, m, False, Fraction(0))
        out[f"turns{i} {m}/pi/{q}"] = _lattice(rng, q, m, True, Fraction(1, 7))
    near = [Angle(Fraction(k, 8)) for k in (1, 3, 5, 7)]
    near[2] = Angle(near[2].pi_mult, Fraction(1, 10**30))
    out["near tie"] = PiecewiseConstantBoundary(near, [1.0, 0.0, 1.0, 0.0])
    return out


def _config(c):
    return {"matching": [list(p) for p in c.matching], "energy": c.energy.hex(), "label_area": c.label_area.hex()}


def records():
    out = {}
    for name, data in corpus().items():
        rec = {mode: _config(solve_binary(data, mode)) for mode in ("minimal", "maximal")}
        rec["u"] = [x.hex() for x in solve_binary(data).data._rad]
        if len(data.breakpoints) <= 16:
            rec["optima"] = [_config(c) for c in enumerate_optimal(data)]
        out[name] = rec
    return out


def test_outputs_match_golden_bits():
    assert records() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(records(), indent=1, sort_keys=True) + "\n")
