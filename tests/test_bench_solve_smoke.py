"""Smoke test of the solver layer benchmark: ``scripts/bench_solve.py
--child`` must still run against the package and print the check value that
the package itself gives on the same instance."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import fsum_enumeration
from lglab.analysis import cut_config
from lglab.boundary_data import opposite_caps
from lglab.chord_solver import ENUMERATION_CAP, enumerate_optimal, solve_binary, transitions_of
from lglab.level_stack import disk_samples

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_solve", ROOT / "scripts" / "bench_solve.py")
bench_solve = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_solve)


@pytest.mark.parametrize("name", ["oracle8q12", "oracle16q8", "oracle24q12", "load200", "lattice200",
                                  "evalcut6", "buildgn11"])
def test_child_prints_the_checked_energy(name):
    assert name in bench_solve.INSTANCES
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "scripts/bench_solve.py", "--child", name],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    out = json.loads(res.stdout.splitlines()[-1])
    data = bench_solve.build(name)
    trans = transitions_of(data)
    if name.startswith("oracle") and len(trans) <= ENUMERATION_CAP:
        want = enumerate_optimal(data)[0].energy
        assert want.hex() == fsum_enumeration(data)[0].energy.hex()  # every row summed exactly
    elif name.startswith(("load", "buildgn")):
        want = math.fsum(bp.radians for bp in data.breakpoints)
    elif name.startswith("evalcut"):
        assert data == cut_config(6).data and trans == cut_config(6).transitions
        want = float(cut_config(6).evaluate_points(disk_samples(bench_solve.EVAL_SAMPLES)).sum())
    else:
        want = solve_binary(data).energy
    assert out["energy"] == want.hex()
    assert out["transitions"] == len(trans)
    assert out["solve_s"] > 0 and out["warm_s"] > 0 and out["peak_rss_mb"] > 0


def test_process_instances_time_fresh_interpreters(tmp_path):
    caps = tmp_path / "caps.json"
    caps.write_text(json.dumps(opposite_caps().to_json_dict()))
    for name in bench_solve.PROCESS_INSTANCES:
        assert name in bench_solve.INSTANCES
        out = bench_solve.run_process(ROOT / "src", name, caps)
        assert out["wall_s"] > 0
        if name == "solvecaps":
            assert out["energy"] == solve_binary(opposite_caps()).energy.hex()
            assert out["transitions"] == 4
        elif name == "tracecaps":  # a continuity point inside a cap
            assert out["energy"] == (1.0).hex()
        elif name in ("verifynonexist", "verifynonloc"):  # the Cantor measure, then its share in one window
            assert out["energy"] == (0.5 if name == "verifynonexist" else 0.25).hex()
        elif name == "verifymono":  # the caps' dilated solutions stall on the maximal one
            assert out["energy"] == "maximal"
        summary = bench_solve.instance_summary([out, out])
        assert summary["runs_wall_s"] == [round(out["wall_s"], 4)] * 2
        assert "solve_s" not in summary
