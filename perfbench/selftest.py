"""Self-test of the benchmark's checkers.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs every workload at its smallest size and requires every output to pass
its check, then feeds each checker corrupted answers (a swapped matching
pair, a perturbed energy, a wrong tie-break, a flipped trace limit, a failing
verdict, ...) and requires each to be rejected.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import checks
import workloads
from run import Tally, run_pass

ROOT = Path(__file__).resolve().parent.parent
failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def rejected(check, out) -> bool:
    try:
        return bool(check(out))
    except workloads.OpError:
        return True


def fake(cfg, **changes):
    base = dict(transitions=cfg.transitions, matching=tuple(cfg.matching), energy=cfg.energy)
    return SimpleNamespace(**{**base, **changes})


def swap_pair(matching):
    """(a, b), (c, d) -> (a, d), (b, c): still a valid pairing, other chords."""
    (a, b), (c, d) = matching[0], matching[1]
    return ((a, d), (b, c)) + tuple(matching[2:])


def run_clean(name, ops):
    _, _, outs = run_pass(ops)
    tally = Tally()
    tally.check(ops, outs)
    expect(tally.failed == 0, f"{name}: {len(ops)} operations at the smallest size pass their checks")
    for line in tally.problems:
        print("      " + line)
    return outs


def main() -> int:
    # -- solve-large ------------------------------------------------------
    ops = workloads.solve_large(1, small=True)
    outs = run_clean("solve-large", ops)
    gn_op, (gn_cfg, _) = ops[0], outs[0]
    expect(rejected(gn_op.check, fake(gn_cfg, matching=swap_pair(gn_cfg.matching))),
           "Cantor check rejects a swapped matching pair")
    expect(rejected(gn_op.check, fake(gn_cfg, energy=gn_cfg.energy * (1 + 1e-9))),
           "Cantor check rejects a perturbed energy")
    lat = next(i for i, op in enumerate(ops) if op.label.startswith("lattice"))
    cfg = outs[lat][0]
    expect(rejected(ops[lat].check, fake(cfg, matching=swap_pair(cfg.matching))),
           "assignment oracle rejects a swapped matching pair")
    expect(rejected(ops[lat].check, fake(cfg, energy=cfg.energy + 1e-9)),
           "assignment oracle rejects a perturbed energy")
    crossing = ((0, 2), (1, 3)) + tuple(cfg.matching[2:])
    expect(rejected(ops[lat].check, fake(cfg, matching=crossing)),
           "structure check rejects a pairing of equal types")
    stack, bv = outs[-1][0]
    expect(rejected(ops[-1].check, (stack, bv * (1 + 1e-9))),
           "coarea check rejects a perturbed bv_energy")

    # -- oracle-small: a tie instance (the opposite caps on the pi/4 lattice)
    tie = checks.lattice_instance([1, 3, 5, 7], 4, True)
    out = workloads._enumerate_and_solve([1, 3, 5, 7], 4, True)
    enum, dp_min, dp_max = out
    expect(len(enum) == 2 and not checks.enumeration_problems(tie, *out),
           "enumeration check accepts the two-way tie of the opposite caps")
    expect(bool(checks.enumeration_problems(tie, enum, dp_max, dp_max)),
           "enumeration check rejects the maximal-area optimum in minimal mode")
    expect(bool(checks.enumeration_problems(tie, enum[:1], dp_min, dp_max)),
           "enumeration check rejects an enumerated set missing an optimum")
    run_clean("oracle-small", workloads.oracle_small(1, small=True))

    # -- cli-verify -------------------------------------------------------
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        cli = workloads.SubprocessCli(ROOT / "src")
        ops = workloads.cli_verify(1, Path(tmp), cli, small=True)
        outs = run_clean("cli-verify", ops)
        by_label = {op.label.split()[0]: (op, res) for op, (res, _) in zip(ops, outs)}

        op, res = by_label["solve"]
        rep = json.loads(res.stdout)
        swapped = dict(rep, matching=[list(p) for p in swap_pair([tuple(p) for p in rep["matching"]])])
        expect(rejected(op.check, replace(res, stdout=json.dumps(swapped))),
               "solve check rejects a swapped matching pair")
        bumped = dict(rep, energy=repr(float(rep["energy"]) + 1e-9))
        expect(rejected(op.check, replace(res, stdout=json.dumps(bumped))),
               "solve check rejects a perturbed energy")

        op, res = by_label["trace"]
        rep = json.loads(res.stdout)
        flipped = dict(rep, limit="0" if float(rep["limit"]) == 1.0 else "1")
        expect(rejected(op.check, replace(res, stdout=json.dumps(flipped))),
               "trace check rejects a flipped trace limit")

        op, res = by_label["verify"]
        rep = json.loads(res.stdout)
        rep["verdicts"][0]["pass"] = False
        expect(rejected(op.check, replace(res, rc=1, stdout=json.dumps(rep))),
               "verify check rejects a failing verdict")
        expect(rejected(op.check, replace(res, rc=1, stdout="")),
               "verify check rejects an exit without a report")

        op, res = by_label["generate"]
        path = Path(tmp) / "caps.json"
        d = json.loads(path.read_text())
        d["breakpoints"][0] = ["1/8", "0"]
        path.write_text(json.dumps(d))
        expect(rejected(op.check, res), "generate check rejects a moved breakpoint")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
