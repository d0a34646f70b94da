"""Span tracing installed around the package's functions from outside.

The package itself is not instrumented. ``Tracer.install`` replaces
module-level functions (in every module that bound them at import time)
and a few class methods with wrappers that record spans and counters;
``Tracer.uninstall`` puts the originals back, so untimed and untraced
jobs run the unmodified code.

A span is ``(id, name, start, end, parent, job, thread, value)``. The
parent is the innermost open span of the same thread. ``value`` is an
optional number taken from the call's result (iterations, roots kept).
Counters count calls that are too frequent or too cheap for a span.
Everything stays in memory until ``write_spans`` is called at the end
of the run.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

PACKAGE = "linking_saddle"

# (module, attribute, span name, value taken from the result).
# Module-level functions are replaced in every package module that holds
# the same function object, because modules bind names at import time.
FUNCTION_SPANS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("functional", "evaluate_J", "functional.evaluate_J", None),
    ("functional", "riesz_gradient", "functional.riesz_gradient", None),
    ("solver", "_ray_argmax", "solver.ray_argmax", None),
    ("solver", "_flow_update", "solver.flow_update", None),
    ("solver", "_newton_step", "solver.newton_step", None),
    ("solver", "signflow_solve", "solver.signflow_solve", lambda rep: rep.iterations),
    ("solver", "newton_solve", "solver.newton_solve", lambda rep: rep.iterations),
    ("solver", "solve_saddle", "solver.solve_saddle", None),
    ("solver", "ps_monitor", "solver.ps_monitor", None),
    ("solver", "flow_map", "solver.flow_map", None),
    ("solver", "deformation_witness_search", "solver.witness_search", None),
    ("linking", "choose_radii", "linking.choose_radii", None),
    ("linking", "estimate_geometry", "linking.estimate_geometry", None),
    ("linking", "intersection_point", "linking.intersection_point", None),
    ("linking", "brouwer_degree_small", "linking.brouwer_degree_small", lambda rep: len(rep.roots)),
    ("linking", "_start_lattice", "linking.start_lattice", len),
)

# (module, class, method, span name)
METHOD_SPANS = (
    ("grid", "StiffnessOperator", "solve", "grid.solve"),
    ("grid", "StiffnessOperator", "apply", "grid.apply"),
    ("splitting", "ModalBasis", "coefficients", "splitting.coefficients"),
)

# Call counters without spans: (module, attribute, counter name).
FUNCTION_COUNTERS = (
    ("solver", "_ray_energy", "solver.ray_probes"),
)

# CLI stage spans wrap the names as bound in the cli module only.
CLI_STAGES = {
    "validate_hypotheses": "hypotheses",
    "_resolve_radii": "radii",
    "_frame_for": "geometry",
    "sample_sets": "geometry",
    "estimate_geometry": "geometry",
    "solve_saddle": "solve",
    "ps_monitor": "compactness",
    "minimax_consistency": "compactness",
    "shipped_deformations": "intersect",
    "intersection_point": "intersect",
    "brouwer_degree_small": "intersect",
    "homotopy_chart_map": "intersect",
    "displacement_residual": "intersect",
    "_refine_level": "refine_level",
    "write_csv": "write",
    "write_pgm": "write",
    "write_svg_trace": "write",
    "_write_run_manifest": "write",
}
STAGES = tuple(dict.fromkeys(CLI_STAGES.values()))

Span = Tuple[int, str, float, float, Optional[int], int, int, Optional[float]]


class Tracer:
    """In-memory span and counter recorder with install/uninstall of wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.job = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._counter_dicts: List[Dict[str, int]] = []
        self._registry_lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counts(self) -> Dict[str, int]:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(int)
            with self._registry_lock:
                self._counter_dicts.append(counts)
        return counts

    def count(self, name: str, amount: int = 1) -> None:
        # per-thread dicts: no read-modify-write is shared between threads
        self._counts()[name] += amount

    def counter_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        with self._registry_lock:
            dicts = list(self._counter_dicts)
        for counts in dicts:
            for name, value in list(counts.items()):
                totals[name] += value
        return dict(totals)

    def spanned(self, name: str, fn: Callable, value: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records one span named ``name``."""
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((span_id, name, start, end, parent, self.job,
                          threading.get_ident(), None if value is None else float(value(result))))
            return result

        return wrapper

    def counted(self, name: str, fn: Callable, amount: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call adds to counter ``name`` (1, or ``amount(*args)``)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name, 1 if amount is None else amount(*args, **kwargs))
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    self._set(module, attr, new)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {name: sys.modules[f"{PACKAGE}.{name}"]
                for name in ("grid", "functional", "solver", "linking",
                             "splitting", "state", "reporting", "cli")}
        for mod, attr, name, value in FUNCTION_SPANS:
            original = getattr(mods[mod], attr)
            self._replace_everywhere(original, self.spanned(name, original, value))
        for mod, attr, name in FUNCTION_COUNTERS:
            original = getattr(mods[mod], attr)
            self._replace_everywhere(original, self.counted(name, original))

        # homotopy_chart_map returns a closure; count calls of each closure
        factory = mods["linking"].homotopy_chart_map

        @functools.wraps(factory)
        def counting_factory(*args, **kwargs):
            return self.counted("linking.chart_map", factory(*args, **kwargs))

        self._replace_everywhere(factory, counting_factory)

        write = mods["reporting"].atomic_write_text
        self._replace_everywhere(write, self.counted(
            "reporting.bytes_written", write,
            amount=lambda path, text: len(text.encode("utf-8"))))

        for mod, cls_name, method, name in METHOD_SPANS:
            cls = getattr(mods[mod], cls_name)
            self._set(cls, method, self.spanned(name, cls.__dict__[method]))
        state_cls = mods["state"].StatePair
        self._set(state_cls, "__post_init__",
                  self.counted("state.pairs_built", state_cls.__dict__["__post_init__"]))

        # the SuperLU factorization is a cached_property built on the first solve
        op_cls = mods["grid"].StiffnessOperator
        factor = op_cls.__dict__["_factor"]
        traced_factor = type(factor)(self.spanned("grid.factor", factor.func))
        traced_factor.__set_name__(op_cls, "_factor")
        self._set(op_cls, "_factor", traced_factor)

        cli = mods["cli"]
        for attr, stage in CLI_STAGES.items():
            self._set(cli, attr, self.spanned(f"cli.stage.{stage}", getattr(cli, attr)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent",
                                            "job", "thread", "value"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span duration minus the part of it covered by its child spans.

    Children are merged as intervals clipped to the parent, so overlapping
    or nested children are never subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    out = {}
    for span_id, _, start, end, *_ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[span_id] = (end - start) - covered
    return out


def job_summary(spans: Iterable[Span], counters: Dict[str, int]) -> Dict[str, float]:
    """Per-layer figures of one job: ``<span>.calls``, ``.self_s``, ``.s``, plus counters."""
    spans = list(spans)
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    incl: Dict[str, float] = defaultdict(float)
    values: Dict[str, float] = defaultdict(float)
    for span in spans:
        name = span[1]
        calls[name] += 1
        self_s[name] += selfs[span[0]]
        values[name] += span[7] or 0.0
        # inclusive time counts only the outermost span of a name, so a
        # recursive or re-entered layer is not timed twice
        parent = span[4]
        nested = False
        while parent is not None and parent in by_id:
            if by_id[parent][1] == name:
                nested = True
                break
            parent = by_id[parent][4]
        if not nested:
            incl[name] += span[3] - span[2]
    out: Dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.s"] = incl[name]
        out[f"{name}.value"] = values[name]
    # flow steps attempted inside the adaptive flow minus those it accepted
    signflow_ids = {s[0] for s in spans if s[1] == "solver.signflow_solve"}
    tried_in_signflow = sum(1 for s in spans
                            if s[1] == "solver.flow_update" and s[4] in signflow_ids)
    out["solver.flow_rejected"] = tried_in_signflow - values["solver.signflow_solve"]
    degree_ids = {s[0] for s in spans if s[1] == "linking.brouwer_degree_small"}
    out["linking.degree.starts"] = sum(s[7] for s in spans
                                       if s[1] == "linking.start_lattice" and s[4] in degree_ids)
    for name, value in counters.items():
        out[f"{name}.count"] = value
    return out
