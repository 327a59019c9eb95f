"""Span tracing of lglab's public functions, from outside the package.

``Tracer.install`` replaces each traced function or method with a timing
wrapper.  A module-level function is replaced in every ``lglab`` module that
holds it by name (``analysis``, ``level_stack`` and ``cli`` import
``solve_binary`` directly, for example), so no call goes uncounted; methods
are replaced on their class.  ``uninstall`` restores the originals.

Each call of a recorded name keeps a span ``(id, name, start, end, parent,
op)`` in memory; ``write`` saves them at the end of the run.  The two exact
angle predicates (``Angle.sign`` and ``Angle.normalized``) run millions of
times in one pass, so they are counted and timed into their parent span
instead of keeping one record per call.  A name's self time is its duration
minus the time its traced children cover; inclusive times and call counts
are taken at the outermost call, so a recursive call (``quantize`` retrying
itself) is not counted twice.
"""

from __future__ import annotations

import json
import sys
import warnings
from collections import Counter, defaultdict
from functools import wraps
from math import comb
from time import perf_counter
from typing import Callable, Dict, List, Optional


def _dp_cells(n: int) -> int:
    return sum((n - span + 1) * span // 2 for span in range(2, n + 1, 2))


def _catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def _targets():
    """(layer, owner, attribute, recorded, counter) for every traced name."""
    from lglab import analysis, boundary_data, chord_solver, circle_geometry, cli, level_stack

    PCB = boundary_data.PiecewiseConstantBoundary
    CC = chord_solver.ChordConfiguration

    def breakpoints(c, args, kwargs, result):
        c["boundary_data.breakpoints_built"] += len(args[0].breakpoints)

    def dp(c, args, kwargs, result):
        c["chord_solver.dp_cells"] += _dp_cells(len(result.transitions))

    def enumerated(c, args, kwargs, result):
        c["chord_solver.configs_enumerated"] += _catalan(len(result[0].transitions) // 2)

    def points(c, args, kwargs, result):
        c["chord_solver.points_evaluated"] += len(result)

    def samples(c, args, kwargs, result):
        c["level_stack.samples_drawn"] += len(result)

    def slices(c, args, kwargs, result):
        c["level_stack.slices_solved"] += len(result.slices)

    scenarios = [
        "cantor_nonexistence_demo", "nonlin_demo", "nonlocality_demo", "monotone_pipeline",
        "trapezoid_check", "sin_meanval_check", "minmax_check", "oracle_check",
    ]
    return [
        ("circle_geometry", circle_geometry.Angle, "sign", False, None),
        ("circle_geometry", circle_geometry.Angle, "normalized", False, None),
        ("boundary_data", PCB, "__init__", True, breakpoints),
        ("boundary_data", PCB, "from_json_dict", True, None),
        ("boundary_data", boundary_data, "quantize", True, None),
        ("boundary_data", boundary_data, "cantor_stage", True, None),
        ("boundary_data", boundary_data, "build_fn", True, None),
        ("boundary_data", boundary_data, "build_gn", True, None),
        ("chord_solver", chord_solver, "solve_binary", True, dp),
        ("chord_solver", CC, "__init__", True, None),
        ("chord_solver", chord_solver, "enumerate_optimal", True, enumerated),
        ("chord_solver", chord_solver, "region_subset", True, None),
        ("chord_solver", CC, "evaluate_points", True, points),
        ("level_stack", level_stack, "disk_samples", True, samples),
        ("level_stack", level_stack, "solve_general", True, slices),
        ("level_stack", level_stack, "l1_distance", True, None),
        ("level_stack", level_stack, "bv_energy", True, None),
        ("analysis", analysis, "trace", True, None),
        *[("analysis", analysis, name, True, None) for name in scenarios],
        ("cli", cli, "main", True, None),
    ]


LAYERS = ("cli", "circle_geometry", "boundary_data", "chord_solver", "level_stack", "analysis")


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.layer_of: Dict[str, str] = {"bench.op": "bench"}
        self._stack: List[list] = []  # frames: [child seconds, span id of nearest record]
        self._active: Counter = Counter()
        self._op: Optional[int] = None
        self._undo: List[Callable[[], None]] = []
        self.t0 = perf_counter()

    # -- spans ---------------------------------------------------------------
    def _call(self, name: str, record: bool, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        parent_id = parent[1] if parent else None
        span_id = len(self.spans) if record else parent_id
        if record:
            self.spans.append(None)  # reserve the id; filled in on exit
        frame = [0.0, span_id]
        stack.append(frame)
        outermost = self._active[name] == 0
        self._active[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._active[name] -= 1
            dur = end - start
            if parent is not None:
                parent[0] += dur
            self.self_s[name] += dur - frame[0]
            if outermost:
                self.incl_s[name] += dur
                self.calls[name] += 1
            if record:
                self.spans[span_id] = (span_id, name, start - self.t0, end - self.t0, parent_id, self._op)

    def wrap(self, name: str, fn, record: bool = True, counter=None):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            result = tracer._call(name, record, fn, args, kwargs)
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    def run_op(self, op_id: int, fn):
        """Run one benchmark operation under a root span."""
        self._op = op_id
        try:
            return self._call("bench.op", True, fn, (), {})
        finally:
            self._op = None

    # -- patching -------------------------------------------------------------
    def install(self) -> None:
        targets = _targets()  # imports every traced module first
        modules = [m for k, m in list(sys.modules.items()) if k == "lglab" or k.startswith("lglab.")]
        for layer, owner, attr, record, counter in targets:
            name = f"{owner.__name__}.{attr}"
            self.layer_of[name] = layer
            if isinstance(owner, type):
                self._patch_method(owner, attr, name, record, counter)
            else:
                self._patch_function(modules, getattr(owner, attr), name, record, counter)

    def _patch_method(self, cls, attr, name, record, counter):
        orig = cls.__dict__[attr]
        if isinstance(orig, classmethod):
            new = classmethod(self.wrap(name, orig.__func__, record, counter))
        else:
            new = self.wrap(name, orig, record, counter)
        setattr(cls, attr, new)
        self._undo.append(lambda: setattr(cls, attr, orig))

    def _patch_function(self, modules, orig, name, record, counter):
        new = self.wrap(name, orig, record, counter)
        if name.endswith(".quantize"):
            new = self._count_retries(new)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._undo.append(lambda mod=mod, key=key: setattr(mod, key, orig))

    def _count_retries(self, fn):
        """quantize reports a refined retry only as a RuntimeWarning: count
        those at the outermost call, then issue them again unchanged."""
        tracer = self

        @wraps(fn)
        def counted(*args, **kwargs):
            if tracer._active["lglab.boundary_data.quantize"]:
                return fn(*args, **kwargs)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            for w in caught:
                if issubclass(w.category, RuntimeWarning) and "retrying" in str(w.message):
                    tracer.counts["boundary_data.quantize_retries"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return counted

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results --------------------------------------------------------------
    def layer_self(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for name, s in self.self_s.items():
            out[self.layer_of[name]] += s
        return out

    def metrics(self) -> Dict[str, float]:
        incl, calls, counts = self.incl_s, self.calls, self.counts
        scen = [n for n, layer in self.layer_of.items()
                if layer == "analysis" and n != "lglab.analysis.trace"]
        m = {
            "circle_geometry.sign_calls": calls["Angle.sign"],
            "circle_geometry.sign_s": incl["Angle.sign"],
            "circle_geometry.normalized_calls": calls["Angle.normalized"],
            "boundary_data.construct_s": incl["PiecewiseConstantBoundary.__init__"],
            "boundary_data.breakpoints_built": counts["boundary_data.breakpoints_built"],
            "boundary_data.quantize_s": incl["lglab.boundary_data.quantize"],
            "boundary_data.quantize_calls": calls["lglab.boundary_data.quantize"],
            "boundary_data.quantize_retries": counts["boundary_data.quantize_retries"],
            "chord_solver.solve_binary_s": incl["lglab.chord_solver.solve_binary"],
            "chord_solver.solve_binary_calls": calls["lglab.chord_solver.solve_binary"],
            "chord_solver.dp_cells": counts["chord_solver.dp_cells"],
            "chord_solver.config_init_s": incl["ChordConfiguration.__init__"],
            "chord_solver.config_inits": calls["ChordConfiguration.__init__"],
            "chord_solver.enumerate_s": incl["lglab.chord_solver.enumerate_optimal"],
            "chord_solver.configs_enumerated": counts["chord_solver.configs_enumerated"],
            "chord_solver.region_subset_s": incl["lglab.chord_solver.region_subset"],
            "chord_solver.region_subset_calls": calls["lglab.chord_solver.region_subset"],
            "chord_solver.evaluate_points_s": incl["ChordConfiguration.evaluate_points"],
            "chord_solver.points_evaluated": counts["chord_solver.points_evaluated"],
            "level_stack.disk_samples_s": incl["lglab.level_stack.disk_samples"],
            "level_stack.samples_drawn": counts["level_stack.samples_drawn"],
            "level_stack.solve_general_s": incl["lglab.level_stack.solve_general"],
            "level_stack.slices_solved": counts["level_stack.slices_solved"],
            "level_stack.l1_distance_s": incl["lglab.level_stack.l1_distance"],
            "analysis.trace_s": incl["lglab.analysis.trace"],
            "analysis.trace_calls": calls["lglab.analysis.trace"],
            "analysis.scenario_s": sum(incl[n] for n in scen),
        }
        for layer, s in self.layer_self().items():
            m[f"{layer}.self_s"] = s
        m["trace.spans"] = len(self.spans)
        return m

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["id", "name", "start_s", "end_s", "parent", "op"],
                    "spans": self.spans,
                    "aggregated": {
                        n: {"calls": self.calls[n], "self_s": self.self_s[n]}
                        for n in ("Angle.sign", "Angle.normalized")
                    },
                    "layer_of": self.layer_of,
                },
                fh,
            )
