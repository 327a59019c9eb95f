import io
import json
import math
import os
import re
import contextlib
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from lglab import __version__, circle_geometry
from lglab.circle_geometry import Angle
from lglab.boundary_data import PiecewiseConstantBoundary, build_fn, build_gn
from lglab.chord_solver import solve_binary
from lglab.cli import _xy, main
from lglab.level_stack import solve_general


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def f1_path(tmp_path):
    p = tmp_path / "f1.json"
    code, _, _ = run(["generate", "cantor-fn", "1", "--out", str(p)])
    assert code == 0
    return str(p)


@pytest.fixture
def caps_path(tmp_path):
    p = tmp_path / "caps.json"
    assert run(["generate", "notconverge", "--out", str(p)])[0] == 0
    return str(p)


class TestGenerate:
    def test_cantor_fn_roundtrip(self, f1_path):
        with open(f1_path) as fh:
            data = PiecewiseConstantBoundary.from_json_dict(json.load(fh))
        assert data == build_fn(1)

    def test_arcs(self, tmp_path):
        code, out, _ = run(["generate", "arcs", "[[0.5, 1.0], [2.0, 2.5]]"])
        assert code == 0
        blob = json.loads(out)
        assert len(blob["breakpoints"]) == 4

    def test_empty_arcs_is_constant_zero(self):
        code, out, _ = run(["generate", "arcs", "[]"])
        assert code == 0
        blob = json.loads(out)
        assert blob == {"breakpoints": [], "values": ["0"]}

    def test_notconverge_breakpoints(self, caps_path):
        with open(caps_path) as fh:
            blob = json.load(fh)
        assert [b[0] for b in blob["breakpoints"]] == ["1/4", "3/4", "5/4", "7/4"]
        assert blob["values"] == ["1", "0", "1", "0"]

    @pytest.mark.parametrize(
        "spec",
        [
            ["generate", "arcs", "not json"],
            ["generate", "arcs", "[[0.0, 1.0], [0.5, 2.0]]"],  # overlapping
            ["generate", "arcs"],
            ["generate", "cantor-fn", "x"],
            ["generate", "cantor-gn"],
            ["generate", "mystery"],
        ],
    )
    def test_malformed_specs_exit_2(self, spec):
        code, _, err = run(spec)
        assert code == 2
        assert err

    @pytest.mark.parametrize("stage", ["\u00b2", "\u2460"])  # superscript two, circled one
    def test_digits_int_rejects_are_usage_errors(self, stage):
        # str.isdigit accepts them, but int() does not
        code, out, err = run(["generate", "cantor-fn", stage])
        assert code == 2
        assert out == ""
        assert err.startswith("usage: generate cantor-fn")

    def test_non_ascii_decimal_stage(self):
        code, out, _ = run(["generate", "cantor-fn", "\u0663"])  # Arabic-Indic three
        assert code == 0
        assert PiecewiseConstantBoundary.from_json_dict(json.loads(out)) == build_fn(3)

    @pytest.mark.parametrize("end", ["1e999", "Infinity"])
    def test_infinite_arc_endpoint_exit_2(self, end):
        code, out, err = run(["generate", "arcs", f"[[0, {end}]]"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed arcs spec")


class TestSolve:
    def test_f1_report(self, f1_path):
        code, out, _ = run(["solve", f1_path])
        assert code == 0
        rep = json.loads(out)
        assert rep["kind"] == "binary"
        assert rep["mode"] == "minimal"
        assert abs(float(rep["energy"]) - 0.7456131870490795) < 1e-12
        assert rep["matching"] == [[0, 1], [2, 3]]

    def test_notconverge_modes(self, caps_path):
        lo = json.loads(run(["solve", caps_path])[1])
        hi = json.loads(run(["solve", caps_path, "--mode", "maximal"])[1])
        assert abs(float(lo["label_area"]) - 0.5707963) < 1e-6
        assert abs(float(hi["label_area"]) - 2.5707963) < 1e-6
        assert abs(float(lo["energy"]) - 2.0 * math.sqrt(2.0)) < 1e-12

    def test_constant_data(self, tmp_path):
        p = tmp_path / "z.json"
        run(["generate", "arcs", "[]", "--out", str(p)])
        rep = json.loads(run(["solve", str(p)])[1])
        assert rep["energy"] == "0"
        assert rep["matching"] == []

    def test_multilevel_report(self, tmp_path):
        p = tmp_path / "m.json"
        blob = {
            "breakpoints": [["0", "0"], ["1/2", "0"], ["1", "0"]],
            "values": ["0", "0.5", "1"],
        }
        p.write_text(json.dumps(blob))
        rep = json.loads(run(["solve", str(p)])[1])
        assert rep["kind"] == "stack"
        assert len(rep["levels"]) == 2
        assert rep["values"] == ["0", "0.5", "1"]

    def test_missing_file_structured_error(self):
        code, out, err = run(["solve", "/nonexistent/data.json"])
        assert code == 1
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "FileNotFoundError"

    def test_corrupt_json_structured_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"breakpoints": [["1/4", "0"]], "values": []}')
        code, _, err = run(["solve", str(p)])
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize(
        "blob",
        [
            {"breakpoints": 5, "values": ["1"]},
            {"breakpoints": [["1/0", "0"], ["1", "0"]], "values": ["0", "1"]},
        ],
    )
    def test_malformed_json_structured_error(self, tmp_path, blob):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(blob))
        code, out, err = run(["solve", str(p)])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize(
        "blob",
        [
            {"breakpoints": [["0", "0"], ["1/2", "0"], ["1", "0"]], "values": ["0", "nan", "2"]},
            {"breakpoints": [["0", "0"], ["1", "0"]], "values": ["0", "inf"]},
        ],
    )
    def test_non_finite_values_structured_error(self, tmp_path, blob):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(blob))
        code, out, err = run(["solve", str(p)])
        assert code == 1
        assert out == ""  # in particular no "bv_energy":"nan" report
        assert json.loads(err)["error"] == "DomainError"

    # pi limited to denominators <= 10**40, about 3.1e-81 below pi: ordering
    # it against pi needs more than the 75 digits of pi kept in circle_geometry
    PI_40 = "4427007044615115050034854648525685871587/1409160108506276783085718440252375099653"

    def test_breakpoints_closer_than_75_digits_of_pi(self, tmp_path):
        blob = {"breakpoints": [["1", "0"], ["0", self.PI_40]], "values": ["1", "0"]}
        p = tmp_path / "close.json"
        p.write_text(json.dumps(blob))
        code, out, err = run(["solve", str(p)])
        assert code == 0, err
        rep = json.loads(out)
        assert rep["matching"] == [[0, 1]]
        assert rep["base_value"] == 1
        data = PiecewiseConstantBoundary.from_json_dict(blob)
        assert tuple(data.breakpoints) == (Angle(0, Fraction(self.PI_40)), Angle(1))

    def test_breakpoints_past_the_pi_cap_structured_error(self, tmp_path):
        lo, _ = circle_geometry._pi_enclosure(2 * circle_geometry.PI_MAX_DIGITS)
        close = lo.limit_denominator(10**4000)
        blob = {"breakpoints": [["1", "0"], ["0", f"{close.numerator}/{close.denominator}"]], "values": ["1", "0"]}
        p = tmp_path / "too_close.json"
        p.write_text(json.dumps(blob))
        code, out, err = run(["solve", str(p)])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_byte_identical_reports(self, f1_path):
        a = run(["solve", f1_path])[1]
        b = run(["solve", f1_path])[1]
        assert a == b
        assert a.endswith("\n")

    def test_report_numbers_are_17g_strings(self, caps_path):
        rep = json.loads(run(["solve", caps_path])[1])
        assert isinstance(rep["energy"], str)
        assert rep["energy"] == format(float(rep["energy"]), ".17g")


_RENDER_INPUTS = {
    "caps": PiecewiseConstantBoundary(
        [Angle.of_pi(Fraction(2 * k + 1, 4)) for k in range(4)], [1.0, 0.0, 1.0, 0.0]
    ).to_json_dict(),
    "gn3": build_gn(3).to_json_dict(),
    "one": {"breakpoints": [], "values": ["1"]},
    "stack": {"breakpoints": [["0", "0"], ["1/2", "0"], ["1", "0"]], "values": ["0", "0.5", "1"]},
}


def _pt(angle_rad):
    return "{:.3f} {:.3f}".format(*_xy(angle_rad))


class TestRender:
    def test_svg_structure(self, caps_path, tmp_path):
        svg = tmp_path / "out.svg"
        code, _, _ = run(["solve", caps_path, "--render", str(svg)])
        assert code == 0
        body = svg.read_text()
        assert body.startswith("<svg ")
        assert 'viewBox="0 0 1000 1000"' in body
        assert body.count("<line ") == 2  # one chord per matched pair
        assert "<path " in body
        assert body.rstrip().endswith("</svg>")

    def test_svg_for_stack(self, tmp_path):
        p = tmp_path / "m.json"
        blob = {
            "breakpoints": [["0", "0"], ["1/2", "0"], ["1", "0"]],
            "values": ["0", "0.5", "1"],
        }
        p.write_text(json.dumps(blob))
        svg = tmp_path / "m.svg"
        assert run(["solve", str(p), "--render", str(svg)])[0] == 0
        assert "fill-opacity" in svg.read_text()

    @pytest.mark.parametrize("name", sorted(_RENDER_INPUTS))
    def test_one_evenodd_path_per_configuration(self, name, tmp_path):
        p = tmp_path / "in.json"
        p.write_text(json.dumps(_RENDER_INPUTS[name]))
        data = PiecewiseConstantBoundary.from_json_dict(_RENDER_INPUTS[name])
        configs = [solve_binary(data)] if data.is_binary else [sl.config for sl in solve_general(data).slices]
        svg = tmp_path / "out.svg"
        code, out, err = run(["solve", str(p), "--render", str(svg)])
        assert (code, err) == (0, "")
        assert run(["solve", str(p)]) == (code, out, err)  # rendering leaves the report alone
        body = svg.read_text()
        paths = re.findall(r'<path d="([^"]*)" [^>]*fill-rule="evenodd"[^>]*/>', body)
        assert len(paths) == len(configs) == body.count("fill-rule=")
        lines = []
        for d, cfg in zip(paths, configs):
            u = cfg.data._rad
            spans = [(u[i], u[j]) for i, j in cfg.matching] + [(0.0, math.pi), (math.pi, 0.0)] * cfg.base_value
            subpaths = re.findall(r"M (\S+ \S+) A 450 450 0 [01] 0 (\S+ \S+) Z", d)
            assert len(subpaths) == d.count("M ") == len(cfg.matching) + 2 * cfg.base_value
            assert subpaths == [(_pt(a), _pt(b)) for a, b in spans]
            for i, j in cfg.matching:  # the chords as drawn before the fill was one path
                xa, ya = _xy(cfg.transitions[i].angle.normalized().radians)
                xb, yb = _xy(cfg.transitions[j].angle.normalized().radians)
                lines.append(f'<line x1="{xa:.3f}" y1="{ya:.3f}" x2="{xb:.3f}" y2="{yb:.3f}" '
                             f'stroke="#333333" stroke-width="3"/>')
        assert re.findall(r"<line [^>]*/>", body) == lines


class TestVerify:
    def test_inequalities_suite(self):
        code, out, _ = run(["verify", "inequalities"])
        assert code == 0
        rep = json.loads(out)
        assert rep["scenario"] == "inequalities"
        assert rep["version"] == __version__
        assert all(set(v) == {"name", "value", "tolerance", "pass"} for v in rep["verdicts"])

    def test_details_are_reported(self):
        rep = json.loads(run(["verify", "nonlocality"])[1])
        assert len(rep["details"]["energies"]) == len(rep["details"]["restricted_measures"])
        assert all(e == format(float(e), ".17g") for e in rep["details"]["energies"])

    def test_merged_details_keyed_by_part(self):
        rep = json.loads(run(["verify", "inequalities"])[1])
        assert set(rep["details"]) == {"trapezoid", "sin-meanval"}

    def test_byte_identical_runs(self):
        a = run(["verify", "nonlocality"])[1]
        b = run(["verify", "nonlocality"])[1]
        assert a == b

    def test_seed_is_reported(self):
        # the CLI writes the seed of the run into every report, sampled or not
        for suite in ("nonexistence", "nonlinearity", "nonlocality", "monotone", "inequalities", "oracle"):
            rep = json.loads(run(["verify", suite, "--seed", "123"])[1])
            assert rep["seed"] == 123, suite

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            run(["verify", "everything"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "suite",
        ["nonexistence", "nonlinearity", "nonlocality", "monotone", "inequalities", "oracle"],
    )
    def test_samples_rejected_where_unused(self, suite):
        # no suite takes a sample count, so the flag is a usage error
        with pytest.raises(SystemExit) as info:
            run(["verify", suite, "--samples", "10"])
        assert info.value.code == 2

    def test_monotone_report_ignores_seed(self):
        code_a, out_a, _ = run(["verify", "monotone", "--seed", "1"])
        code_b, out_b, _ = run(["verify", "monotone", "--seed", "2"])
        assert code_a == code_b == 0
        assert '"seed":1,' in out_a
        assert out_a.replace('"seed":1,', '"seed":2,') == out_b

    def test_out_flag(self, tmp_path):
        p = tmp_path / "rep.json"
        code, out, _ = run(["verify", "nonlocality", "--out", str(p)])
        assert code == 0
        assert out == ""
        assert json.loads(p.read_text())["scenario"] == "nonlocality"


class TestTrace:
    def test_trace_report(self, caps_path):
        code, out, _ = run(["trace", caps_path, str(math.pi / 2)])
        assert code == 0
        rep = json.loads(out)
        assert rep["limit"] == "1"
        assert float(rep["residual"]) == 0.0
        assert rep["starved"] is False
        assert len(rep["radii"]) == 4

    def test_trace_flags(self, caps_path):
        code, out, _ = run(
            ["trace", caps_path, "3.14159", "--levels", "5", "--r0", "0.01"]
        )
        rep = json.loads(out)
        assert len(rep["radii"]) == 5
        assert rep["limit"] == "0"

    def test_trace_error(self, caps_path):
        code, _, err = run(["trace", caps_path, "1.0", "--levels", "2"])
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"

    def test_vanishing_radius_structured_error(self, caps_path):
        code, out, err = run(["trace", caps_path, "0.0", "--r0", "1e-300"])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf", "-Infinity", "-nan", "-NaN"])
    def test_non_finite_angle_structured_error(self, caps_path, angle):
        for argv in (["trace", caps_path, "--", angle], ["trace", caps_path, angle]):
            code, out, err = run(argv)
            assert code == 1
            assert out == ""
            diag = json.loads(err)
            assert diag["error"] == "DomainError"
            assert diag["message"] == f"trace angle must be finite, got {float(angle)}"

    @pytest.mark.parametrize("angle", ["-1e-3", "-2E0", "-1.", "-.5", "-1_0"])
    def test_negative_angle_spellings(self, caps_path, angle):
        # argparse alone reads all but -.5 as options, which makes a usage error
        want = run(["trace", caps_path, "--", angle])
        assert want[0] == 0
        assert run(["trace", caps_path, angle]) == want
        flags = ["--levels", "3"]
        assert run(["trace", caps_path, angle, *flags]) == run(["trace", caps_path, *flags, "--", angle])

    @pytest.mark.parametrize("samples", ["0", "1", "4096", str(10**11)])
    def test_samples_is_usage_error(self, caps_path, samples):
        # the averages are exact: trace takes no sample count
        with pytest.raises(SystemExit) as info:
            run(["trace", caps_path, "1.0", "--samples", samples])
        assert info.value.code == 2

    def test_continuity_point_report_bytes(self, caps_path):
        # every byte as the sampled trace printed it where no chord meets
        # the largest half-ball: all samples then had the data value
        want = (
            '{"averages":["1","1","1","1"],"limit":"1","point":"1.5707963","radii":["0.001",'
            '"0.00050000000000000001","0.00025000000000000001","0.000125"],"residual":"0","seed":5,'
            '"starved":false,"stderrs":["0","0","0","0"],"version":"0.1.0"}\n'
        )
        assert run(["trace", caps_path, "1.5707963", "--seed", "5"]) == (0, want, "")

    def test_near_a_chord_endpoint(self, caps_path):
        # the caps' chord from pi/4 to 3pi/4 leaves the circle at pi/4 of
        # its tangent, so 1e-3 inside the cap it is 7.1e-4 away: it crosses
        # the largest half-ball only
        rep = json.loads(run(["trace", caps_path, repr(math.pi / 4 + 1e-3)])[1])
        avg = [float(a) for a in rep["averages"]]
        assert 0.5 < avg[0] < 1.0 and avg[1:] == [1.0, 1.0, 1.0]
        assert rep["limit"] == "1" and rep["stderrs"] == ["0"] * 4 and rep["starved"] is False


def _domain_error_alone(argv):
    """Run with warnings as errors: exit 1, no stdout, and one DomainError
    diagnostic as the only line on stderr; returns its message."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    diag = json.loads(err)
    assert diag["error"] == "DomainError"
    return diag["message"]


def _data_path(tmp_path, values, turns=("0", "1")):
    p = tmp_path / "d.json"
    p.write_text(json.dumps({"breakpoints": [[q, "0"] for q in turns], "values": values}))
    return str(p)


class TestNonFiniteResults:
    # finite data near the float range: each run prints finite numbers or
    # exits 1 with a diagnostic, never "inf" or "nan" with exit 0

    def test_trace_overflow(self, tmp_path):
        # continuity points where the data is +-1e307: the unscaled sample
        # sums would overflow, the scaled ones give the data value
        path = _data_path(tmp_path, ["1e307", "-1e307"])
        for angle, value in (("0.5", 1e307), ("4.0", -1e307)):
            code, out, err = run(["trace", path, angle])
            assert (code, err) == (0, "")
            rep = json.loads(out)
            assert abs(float(rep["limit"]) - value) <= 1e-15 * abs(value)
            assert all(abs(float(a) - value) <= 1e-15 * abs(value) for a in rep["averages"])

    @pytest.mark.parametrize("mode", ["minimal", "maximal"])
    def test_solve_infinite_gap(self, tmp_path, mode):
        path = _data_path(tmp_path, ["1e308", "-1e308"])
        assert "not finite" in _domain_error_alone(["solve", path, "--mode", mode])

    def test_solve_bv_energy_overflow(self, tmp_path):
        # every gap and threshold is finite; the sum of the slice energies is not
        path = _data_path(tmp_path, ["-8e307", "0", "8e307", "0"], turns=("0", "1/2", "1", "3/2"))
        assert "float range" in _domain_error_alone(["solve", path])


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        run(["--version"])
    assert info.value.code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "nonlocality", "--seed", "-1"],
        ["verify", "monotone", "--seed", "-1"],
        ["verify", "inequalities", "--seed", "-5"],
        ["trace", "{caps}", "1.0", "--seed", "-1"],
    ],
)
def test_negative_seed_structured_error(caps_path, argv):
    code, out, err = run([a.format(caps=caps_path) for a in argv])
    assert code == 1
    assert out == ""
    diag = json.loads(err)
    assert diag["error"] == "DomainError"
    assert "seed" in diag["message"]


# ---------------------------------------------------------------------------
# one failure boundary: an unwritable output file or JSON nested too deeply
# is one diagnostic with exit 1, whichever command meets it

DEEP = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize(
    "argv, error",
    [
        (["solve", "{caps}", "--out", "/nonexistent/x"], "FileNotFoundError"),
        (["solve", "{caps}", "--render", "/nonexistent/x"], "FileNotFoundError"),
        (["generate", "notconverge", "--out", "/nonexistent/x"], "FileNotFoundError"),
        (["verify", "inequalities", "--out", "/nonexistent/x"], "FileNotFoundError"),
        (["trace", "{caps}", "1.0", "--out", "/nonexistent/x"], "FileNotFoundError"),
        (["solve", "{deep}"], "ValueError"),
        (["trace", "{deep}", "1.0"], "ValueError"),
    ],
)
def test_failure_is_one_diagnostic(caps_path, tmp_path, argv, error):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    code, out, err = run([a.format(caps=caps_path, deep=deep) for a in argv])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == error


def test_deeply_nested_arcs_spec_exit_2():
    code, out, err = run(["generate", "arcs", DEEP])
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed arcs spec")


# ---------------------------------------------------------------------------
# numpy and dataclasses stay off the import path, and off generate, small
# binary solves and trace; trace does not load the scenario drivers either

ROOT = Path(__file__).resolve().parents[1]


def _python(code, *args):
    res = subprocess.run([sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.mark.parametrize("module", ["lglab", "lglab.cli"])
def test_import_loads_no_numpy(module):
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'dataclasses')))"
    assert _python(code).strip() == "[]"


def test_import_defers_analysis_and_level_stack():
    for module in ("lglab", "lglab.cli"):
        code = f"import sys, {module}; print([m for m in ('lglab.analysis', 'lglab.level_stack') if m in sys.modules])"
        assert _python(code).strip() == "[]", module


def test_generate_and_binary_solve_skip_level_stack(tmp_path):
    path = str(tmp_path / "caps.json")
    code = (
        "import sys; from lglab.cli import main\n"
        f"assert main(['generate', 'notconverge', '--out', {path!r}]) == 0\n"
        f"assert main(['solve', {path!r}, '--out', {path + '.out'!r}]) == 0\n"
        "print([m for m in ('lglab.analysis', 'lglab.level_stack') if m in sys.modules])"
    )
    assert _python(code).strip() == "[]"


def test_package_names_resolve():
    import lglab
    from lglab import analysis, level_stack

    for name in lglab.__all__:
        value = getattr(lglab, name)
        for module in (analysis, level_stack):
            if name in vars(module):
                assert value is vars(module)[name]
    assert set(lglab.__all__) <= set(dir(lglab))
    with pytest.raises(AttributeError, match="no attribute 'nowhere'"):
        lglab.nowhere


# each call's exit code and stdout, run in one process where neither numpy,
# dataclasses nor the scenario drivers can be imported
_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = sys.modules["dataclasses"] = sys.modules["lglab.analysis"] = None
from lglab.cli import main
outs = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        outs.append([main(argv), buf.getvalue()])
print(json.dumps(outs))
"""


def test_generate_and_small_solves_run_without_numpy(tmp_path):
    specs = [["cantor-fn", str(n)] for n in range(4)] + [["cantor-gn", str(n)] for n in range(4)]
    specs += [["notconverge"], ["arcs", "[[0.5, 1.0], [2.0, 2.5], [4.0, 6.0]]"]]

    def calls(tag):
        out = []
        for k, spec in enumerate(specs):
            path = str(tmp_path / f"{tag}{k}.json")
            out += [["generate", *spec], ["generate", *spec, "--out", path]]
            for mode in ("minimal", "maximal"):
                out += [["solve", path, "--mode", mode],
                        ["solve", path, "--mode", mode, "--render", str(tmp_path / f"{tag}{k}{mode}.svg")]]
        return out

    without = json.loads(_python(_WITHOUT_NUMPY, json.dumps(calls("a"))))
    import numpy  # noqa: F401  the reference calls run here, with numpy loaded

    with_numpy = [list(run(argv)[:2]) for argv in calls("b")]
    assert without == with_numpy
    assert all(code == 0 for code, _ in without)
    for a in sorted(tmp_path.glob("a*")):
        assert a.read_bytes() == (tmp_path / ("b" + a.name[1:])).read_bytes(), a.name


def test_trace_runs_without_numpy(tmp_path):
    # small data loads no numpy: the averages are plain floats, and the
    # bytes are those of the same calls with numpy loaded
    specs = {"caps": ["notconverge"], "f2": ["cantor-fn", "2"]}
    paths = {}
    for name, spec in specs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        assert run(["generate", *spec, "--out", paths[name]])[0] == 0
    ends = {"caps": [(2 * k + 1) * math.pi / 4 for k in range(4)],
            "f2": list(build_fn(2)._rad)}
    calls = []
    for name, path in paths.items():
        for x in (0.3, 1.5707963, 3.0, 4.0, 6.0):  # continuity points
            calls.append(["trace", path, repr(x)])
        for e in ends[name]:  # at and next to chord endpoints
            for dx in (0.0, 1e-5, -3e-4, 2e-3):
                calls.append(["trace", path, repr(e + dx), "--levels", "5"])
        calls.append(["trace", path, "1.0", "--r0", "0.5", "--seed", "3"])
    without = json.loads(_python(_WITHOUT_NUMPY, json.dumps(calls)))
    import numpy  # noqa: F401  the reference calls run here, with numpy loaded

    assert without == [list(run(argv)[:2]) for argv in calls]
    assert all(code == 0 for code, _ in without)
    averages = {a for _, out in without for a in json.loads(out)["averages"]}
    assert {"0", "1"} < averages  # continuity points, and crossed half-balls
