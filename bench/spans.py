"""Outside-in span recorder for the per-layer metrics.

The benchmark wraps the public entry points of every `algebroid` module
from here, without touching the program: module-level functions, public
methods and arithmetic dunders of the module's classes, and every other
namespace that bound one of those functions by `from .x import y` (for
example `cli.exactness_solve`) or holds it in a dict (`cli.COMMANDS`).
A layer is a module.  A call that crosses from one layer into another
opens a span; a call inside the same layer only counts, unless its entry
point carries a timed metric.  A layer's self time is the time of its
spans minus the part their child spans cover: every interval between two
span boundaries is charged to the layer of the innermost open span.

Spans stay in memory, aggregated per question (self time per layer and
the counters below), and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import types
import weakref
from collections import defaultdict
from time import perf_counter_ns
from typing import Dict, List

LAYERS = ("cli", "parser", "rings", "core", "forms", "linalg", "matched",
          "pbw", "cech", "connections")
OUTSIDE = "outside"         # time between questions, in the benchmark itself
DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
           "__mul__", "__rmul__", "__pow__", "__call__"}
# private entry points that only count: elements built, differentials
# applied and eliminations run
COUNT_ONLY = ("rings.RingElement.__init__", "forms.LForm._d_unchecked",
              "linalg.SparseSystem._eliminate")
# accessors and predicates that do no work of their own; wrapping them
# would cost more than they do, so their few instructions stay with the
# caller's self time
UNWRAPPED = {"rings.as_fraction", "rings.RingElement.is_zero",
             "rings.ChartRing.derivation_action", "core.Algebroid.basis_section",
             "core.Algebroid.structure_coefficients", "forms.sort_with_sign",
             "parser.Parser.peek", "parser.Parser.advance", "parser.Parser.accept",
             "parser.Parser.expect"}
# ring operations, for the branch-waste ratio of PBW rewriting
RING_OPS = {"rings.RingElement." + d for d in DUNDERS - {"__call__"}} | {
    "rings.ChartRing.derive", "rings.RingMap.__call__"}

CALL_METRICS = {
    "parser.parse_calls": ("parser.parse",),
    "parser.parse_word_calls": ("parser.parse_word",),
    "rings.mul_calls": ("rings.RingElement.__mul__", "rings.RingElement.__rmul__"),
    "rings.add_calls": ("rings.RingElement.__add__", "rings.RingElement.__radd__"),
    "rings.derive_calls": ("rings.ChartRing.derive",),
    "rings.map_calls": ("rings.RingMap.__call__",),
    "rings.elements_built": ("rings.RingElement.__init__",),
    "core.anchor_apply_calls": ("core.Algebroid.anchor_apply",),
    "core.bracket_calls": ("core.Algebroid.bracket",),
    "forms.d_calls": ("forms.LForm._d_unchecked",),
    "linalg.eliminations": ("linalg.SparseSystem._eliminate",),
    "matched.d_basis_calls": ("matched.DoubleComplexSlice.d1_of_basis",
                              "matched.DoubleComplexSlice.d2_of_basis"),
    "pbw.normal_form_calls": ("pbw.normal_form",),
}
# metric -> entry points whose inclusive time it sums (outermost calls)
TIME_METRICS = {
    "core.verify_ms": ("core.Algebroid.verify",),
    "forms.cohomology_ms": ("forms.truncated_cohomology",),
    "forms.exact_ms": ("forms.exactness_solve",),
    "linalg.rank_ms": ("linalg.SparseSystem.rank", "linalg.rank"),
    "linalg.solve_ms": ("linalg.SparseSystem.solve", "linalg.solve_linear"),
    "matched.compare_ms": ("matched.total_cohomology_compare",),
    "matched.commutation_ms": ("matched.DoubleComplexSlice.commutation_check",),
    "pbw.normal_form_ms": ("pbw.normal_form",),
    "pbw.confluence_ms": ("pbw.confluence_check",),
    "cech.coboundary_ms": ("cech.coboundary_test",),
    "cech.dims_ms": ("cech.line_bundle_cech_dims",),
}
TIMED = {key for keys in TIME_METRICS.values() for key in keys}


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module("algebroid." + layer)
                        for layer in LAYERS]
        self.namespaces = self.modules + [importlib.import_module("algebroid")]
        self.calls: Dict[str, int] = defaultdict(int)
        self.incl_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.extra: Dict[str, int] = defaultdict(int)
        self.layer = OUTSIDE              # layer of the innermost open span
        self.last = perf_counter_ns()     # when that layer last took over
        self.active: Dict[str, int] = defaultdict(int)
        self.nf_depth = 0
        self.systems = weakref.WeakSet()  # sparse systems eliminated so far
        self.patches: List[tuple] = []    # (owner, name, original)

    # -- installing -----------------------------------------------------------

    def entry_points(self):
        """(owner, attribute, layer, key) for every wrapped entry point."""
        for layer, mod in zip(LAYERS, self.modules):
            for name, val in vars(mod).items():
                if getattr(val, "__module__", None) != mod.__name__ or name[0] == "_":
                    continue
                if isinstance(val, types.FunctionType):
                    key = "%s.%s" % (layer, name)
                    if key not in UNWRAPPED:
                        yield mod, name, layer, key
                elif isinstance(val, type):
                    for attr, fn in vars(val).items():
                        key = "%s.%s.%s" % (layer, name, attr)
                        if (isinstance(fn, types.FunctionType) and key not in UNWRAPPED
                                and (attr[0] != "_" or attr in DUNDERS
                                     or key in COUNT_ONLY)):
                            yield val, attr, layer, key

    def install(self) -> None:
        rebind = {}
        for owner, attr, layer, key in self.entry_points():
            fn = getattr(owner, attr)
            wrapper = self.wrap(fn, layer, key)
            self.patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            if isinstance(owner, types.ModuleType):
                rebind[id(fn)] = wrapper
        for ns in self.namespaces:
            for name, val in list(vars(ns).items()):
                if id(val) in rebind:
                    self.patches.append((ns, name, val))
                    setattr(ns, name, rebind[id(val)])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in rebind:
                            self.patches.append((val, k, v))
                            val[k] = rebind[id(v)]

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self.patches):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self.patches.clear()

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, fn, layer: str, key: str):
        tr = self
        calls = self.calls
        if key == "linalg.SparseSystem._eliminate":
            def eliminate(system, *args, **kwargs):
                calls[key] += 1
                result = fn(system, *args, **kwargs)
                tr.count_elimination(system, result[0])
                return result
            return eliminate
        if key in COUNT_ONLY:
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        timed = key in TIMED
        ring_op = key in RING_OPS
        is_mul = key in ("rings.RingElement.__mul__", "rings.RingElement.__rmul__")
        is_nf = key == "pbw.normal_form"
        self_ns, extra, clock = self.self_ns, self.extra, perf_counter_ns

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if ring_op:
                if tr.nf_depth:
                    extra["pbw.ring_ops"] += 1
                if is_mul:
                    other = args[1]
                    extra["rings.mul_term_pairs"] += len(args[0].terms) * (
                        len(other.terms) if hasattr(other, "terms") else 1)
            outer = tr.layer
            if outer == layer and not timed:
                return fn(*args, **kwargs)
            # the interval since the last switch belongs to the caller's layer
            t0 = clock()
            self_ns[outer] += t0 - tr.last
            tr.layer, tr.last = layer, t0
            if timed:
                tr.active[key] += 1
            if is_nf:
                tr.nf_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self_ns[layer] += t1 - tr.last
                tr.layer, tr.last = outer, t1
                if timed:
                    tr.active[key] -= 1
                    if not tr.active[key]:
                        tr.incl_ns[key] += t1 - t0
                if is_nf:
                    tr.nf_depth -= 1
            if is_nf:
                extra["pbw.terms_out"] += len(result.terms)
            return result
        return wrapper

    def count_elimination(self, system, pivots) -> None:
        self.extra["linalg.cols"] += system.ncols
        self.extra["linalg.nnz"] += sum(len(row) for row in system.rows)
        self.extra["linalg.rank"] += len(pivots)
        if system not in self.systems:
            self.systems.add(system)
            self.extra["linalg.systems"] += 1

    # -- per-question records ------------------------------------------------------

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "incl": dict(self.incl_ns),
                "self": dict(self.self_ns), "extra": dict(self.extra)}

    def forget_open_spans(self) -> None:
        """Forget spans left open by a question that was cut off."""
        self.layer = OUTSIDE
        self.active.clear()
        self.nf_depth = 0


def _diff(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def question_record(before: dict, after: dict) -> dict:
    """Counters and layer self times of one question, from snapshots."""
    return {part: _diff(after[part], before[part]) for part in after}


def layer_metrics(records: List[dict], wall_ns: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass from its question records."""
    calls: Dict[str, int] = defaultdict(int)
    incl: Dict[str, int] = defaultdict(int)
    self_ns: Dict[str, int] = defaultdict(int)
    extra: Dict[str, int] = defaultdict(int)
    for rec in records:
        for src, dst in ((rec["calls"], calls), (rec["incl"], incl),
                         (rec["self"], self_ns), (rec["extra"], extra)):
            for k, v in src.items():
                dst[k] += v
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[layer + ".self_ms"] = self_ns[layer] / 1e6
    out["cli.calls"] = sum(v for k, v in calls.items() if k.startswith("cli."))
    out["connections.calls"] = sum(v for k, v in calls.items()
                                   if k.startswith("connections."))
    for metric, keys in CALL_METRICS.items():
        out[metric] = sum(calls[k] for k in keys)
    for metric, keys in TIME_METRICS.items():
        out[metric] = sum(incl[k] for k in keys) / 1e6
    out["rings.mul_term_pairs"] = extra["rings.mul_term_pairs"]
    out["linalg.cols"] = extra["linalg.cols"]
    out["linalg.nnz"] = extra["linalg.nnz"]
    out["linalg.rank_per_col"] = _ratio(extra["linalg.rank"], extra["linalg.cols"])
    out["linalg.elims_per_system"] = _ratio(out["linalg.eliminations"],
                                            extra["linalg.systems"])
    out["pbw.terms_out"] = extra["pbw.terms_out"]
    out["pbw.ring_ops_per_term"] = _ratio(extra["pbw.ring_ops"], extra["pbw.terms_out"])
    for n in (4, 5, 6):
        rung = [rec["extra"] for rec in records if rec["kind"] == "weyl_n%d" % n]
        out["pbw.ring_ops_per_term_n%d" % n] = _ratio(
            sum(e.get("pbw.ring_ops", 0) for e in rung),
            sum(e.get("pbw.terms_out", 0) for e in rung))
    out["trace.attributed_ratio"] = _ratio(sum(self_ns[layer] for layer in LAYERS),
                                           wall_ns)
    return out


def unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if "ratio" in metric or "_per_" in metric:
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 where the pass has nothing to divide by."""
    return num / den if den else 0.0
