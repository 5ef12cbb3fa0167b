"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions and methods of the `homtt`
modules with wrappers, in the traced worker process only.  A span is
recorded for the outermost call of each spanned name: (name, start, end,
parent span, operation id).  A call made while a span of the same name is
open is counted but not spanned, so same-name spans never nest and
summing their durations gives inclusive time without double counting.
Counted-only names cost one dictionary increment per call.

Self time of a span is its duration minus the durations of its direct
child spans; children of one span are disjoint because spans follow the
call stack.  `metrics()` turns spans and counts into the per-layer
metrics, normalised per operation.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (module, attribute path): spanned callables; the span is named
# "<module>.<last attribute>"
SPANNED = [
    ("cli", "run"),
    ("parser", "parse_dtt"), ("parser", "parse_fincat"),
    ("kernel", "reduce"),
    ("checker", "check_source"), ("checker", "nf"),
    ("fincat", "groth"), ("fincat", "relabel"), ("fincat", "hom_functor"),
    ("fincat", "pullback_cat"), ("fincat", "functor_compose"),
    ("fincat", "FinCat.validate"), ("fincat", "has_cocartesian_lifts"),
    ("interp", "verify_soundness"), ("interp", "extend"),
    ("wfs", "factor"), ("wfs", "alpha_iso"), ("wfs", "opfib_lift"),
    ("wfs", "brute_force_lifts"),
    ("dspace", "from_pv"), ("dspace", "analyze"), ("dspace", "deadlocks"),
]

# counted-only callables, named "<module>.<attribute path>"
COUNTED = [
    ("kernel", "shift"), ("kernel", "instantiate_closed"),
    ("checker", "infer_term"), ("checker", "check_term"),
    ("checker", "def_equal"), ("checker", "def_equal_types"),
    ("interp", "Interpreter.term"), ("interp", "Interpreter.type"),
    ("interp", "Interpreter.context"), ("interp", "Interpreter.extensions"),
    ("interp", "Interpreter._term"), ("interp", "Interpreter._type"),
    ("interp", "Interpreter._data"), ("interp", "ElimWitness.__init__"),
    ("fincat", "Functor.validate"),
]

MODULES = ("cli", "parser", "kernel", "checker", "fincat", "interp", "wfs",
           "dspace")

# which layers should carry most of each workload's time
PREDICTED = {
    "check-terms": ("kernel", "checker", "parser"),
    "interp-scenarios": ("fincat", "interp"),
    "wfs-certify": ("wfs", "fincat"),
    "pv-grids": ("dspace",),
}


def _resolve(module, path):
    owner = importlib.import_module(f"homtt.{module}")
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = Counter()
        self.active = Counter()
        self.stack = []
        self.op = -1
        self.missing = []
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn):
        spans, counts, active, stack = (self.spans, self.counts, self.active,
                                        self.stack)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if active[name]:
                return fn(*args, **kwargs)
            active[name] = 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] = 0
                spans[idx] = (name, start, end, parent, tracer.op)
        return wrapper

    def _counted(self, name, fn):
        counts, active = self.counts, self.active

        def wrapper(*args, **kwargs):
            counts[name] += 1
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[name] -= 1
        return wrapper

    def _wrap(self, module, path, make):
        """Replace homtt.<module>.<path> by make(original)."""
        try:
            owner, attr = _resolve(module, path)
            fn = owner.__dict__[attr]
        except (AttributeError, KeyError):
            # a renamed layer reads as zero; the report lists it
            self.missing.append(f"{module}.{path}")
            return
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def install(self):
        for module, path in SPANNED:
            name = f"{module}.{path.split('.')[-1]}"
            self._wrap(module, path, lambda fn, n=name: self._spanned(n, fn))
        for module, path in COUNTED:
            name = f"{module}.{path}"
            self._wrap(module, path, lambda fn, n=name: self._counted(n, fn))
        self._hooks()

    def _hooks(self):
        """Wrappers that read arguments or results: sizes and outcomes."""
        counts, maxima, active = self.counts, self.maxima, self.active

        def parse(fn):
            def hook(text, *args, **kwargs):
                counts["parser.bytes"] += len(text.encode("utf-8"))
                return fn(text, *args, **kwargs)
            return hook
        self._wrap("parser", "parse_dtt", parse)
        self._wrap("parser", "parse_fincat", parse)

        fincat = importlib.import_module("homtt.fincat")

        def fincat_init(init):
            def hook(cat, *args, **kwargs):
                try:
                    init(cat, *args, **kwargs)
                except fincat.SizeCapError:
                    counts["fincat.size_cap_refusals"] += 1
                    raise
                counts["fincat.categories_built"] += 1
                counts["fincat.morphisms_built"] += len(cat.morphisms)
                maxima["fincat.max_objects"] = max(
                    maxima["fincat.max_objects"], len(cat.objects))
                maxima["fincat.max_morphisms"] = max(
                    maxima["fincat.max_morphisms"], len(cat.morphisms))
            return hook
        self._wrap("fincat", "FinCat.__init__", fincat_init)

        def extend(fn):
            def hook(*args, **kwargs):
                # extend under Interpreter._data builds a context: a miss
                if active["interp.Interpreter._data"]:
                    counts["interp.context_misses"] += 1
                return fn(*args, **kwargs)
            return hook
        self._wrap("interp", "extend", extend)

        def functor_validate(fn):
            def hook(*args, **kwargs):
                if active["wfs.brute_force_lifts"]:
                    counts["wfs.lift_candidates"] += 1
                return fn(*args, **kwargs)
            return hook
        self._wrap("fincat", "Functor.validate", functor_validate)

        def brute(fn):
            def hook(*args, **kwargs):
                found = fn(*args, **kwargs)
                counts["wfs.lifts_found"] += len(found)
                return found
            return hook
        self._wrap("wfs", "brute_force_lifts", brute)

        def analyze(fn):
            def hook(space, *args, **kwargs):
                report = fn(space, *args, **kwargs)
                cells = 1
                for n in space.shape:
                    cells *= n
                counts["dspace.cells"] += cells
                counts["dspace.reachable_cells"] += len(report.reachable)
                return report
            return hook
        self._wrap("dspace", "analyze", analyze)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")

    def metrics(self, workload, ops):
        """Per-layer metrics, per operation where they are totals."""
        inclusive, self_time = Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            inclusive[name] += end - start
            self_time[name] += end - start - child[i]
        c = self.counts
        per_op = max(ops, 1)
        total = inclusive["cli.run"] or 1.0
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def per(name, value, unit):
            put(name, value / per_op, unit)

        per("cli.run.calls", c["cli.run"], "count/op")
        per("cli.run.self_s", self_time["cli.run"], "s/op")
        per("parser.parse_dtt.s", inclusive["parser.parse_dtt"], "s/op")
        per("parser.parse_fincat.s", inclusive["parser.parse_fincat"], "s/op")
        parse_s = inclusive["parser.parse_dtt"] + inclusive["parser.parse_fincat"]
        put("parser.bytes_per_s", c["parser.bytes"] / parse_s if parse_s
            else 0.0, "B/s")
        per("kernel.reduce.calls", c["kernel.reduce"], "count/op")
        per("kernel.reduce.s", inclusive["kernel.reduce"], "s/op")
        per("kernel.shift.calls", c["kernel.shift"], "count/op")
        per("kernel.instantiate_closed.calls", c["kernel.instantiate_closed"],
            "count/op")
        per("checker.check_source.self_s", self_time["checker.check_source"],
            "s/op")
        per("checker.infer_term.calls", c["checker.infer_term"], "count/op")
        per("checker.nf.calls", c["checker.nf"], "count/op")
        per("checker.nf.s", inclusive["checker.nf"], "s/op")
        per("checker.check_term.calls", c["checker.check_term"], "count/op")
        per("checker.def_equal.calls", c["checker.def_equal"], "count/op")
        per("checker.def_equal_types.calls", c["checker.def_equal_types"],
            "count/op")
        for fn in ("groth", "relabel", "hom_functor", "pullback_cat",
                   "functor_compose", "validate"):
            per(f"fincat.{fn}.s", inclusive[f"fincat.{fn}"], "s/op")
        per("fincat.validate.calls", c["fincat.validate"], "count/op")
        per("fincat.categories_built", c["fincat.categories_built"],
            "count/op")
        per("fincat.morphisms_built", c["fincat.morphisms_built"], "count/op")
        put("fincat.max_objects", self.maxima["fincat.max_objects"], "count")
        put("fincat.max_morphisms", self.maxima["fincat.max_morphisms"],
            "count")
        put("fincat.size_cap_refusals", c["fincat.size_cap_refusals"],
            "count")
        per("interp.verify_soundness.self_s",
            self_time["interp.verify_soundness"], "s/op")
        per("interp.extend.s", inclusive["interp.extend"], "s/op")
        lookups = sum(c[f"interp.Interpreter.{m}"]
                      for m in ("term", "type", "context", "extensions"))
        misses = (c["interp.Interpreter._term"] + c["interp.Interpreter._type"]
                  + c["interp.context_misses"])
        put("interp.cache_hit_ratio", 1 - misses / lookups if lookups else 0.0,
            "ratio")
        per("interp.witnesses", c["interp.ElimWitness.__init__"], "count/op")
        for fn in ("factor", "alpha_iso", "opfib_lift", "brute_force_lifts"):
            per(f"wfs.{fn}.s", inclusive[f"wfs.{fn}"], "s/op")
        per("wfs.lift_candidates", c["wfs.lift_candidates"], "count/op")
        put("wfs.lift_hit_ratio", c["wfs.lifts_found"] / c["wfs.lift_candidates"]
            if c["wfs.lift_candidates"] else 0.0, "ratio")
        for fn in ("from_pv", "analyze", "deadlocks"):
            per(f"dspace.{fn}.s", inclusive[f"dspace.{fn}"], "s/op")
        per("dspace.cells", c["dspace.cells"], "count/op")
        per("dspace.reachable_cells", c["dspace.reachable_cells"], "count/op")
        share = Counter()
        for name, t in self_time.items():
            share[name.split(".")[0]] += t / total
        for m in MODULES:
            put(f"split.{m}", share[m], "ratio")
        put("split.predicted_share",
            sum(share[m] for m in PREDICTED[workload]), "ratio")
        put("trace.spans", len(self.spans), "count")
        return out
