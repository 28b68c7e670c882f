"""Out-of-band tracing of the quasifold layers, from outside the package.

The tracer replaces public stage functions at the names their callers look
them up by (``cli.validate``, ``documents.cocycle_check``,
``polytopes.enumerate_vertices``, ...) with wrappers that record a span,
and counts calls on the public ``Scalar``, ``Matrix`` and
``GroupMembership`` methods.  Nothing under ``src/`` changes and no report
byte changes: wrappers pass arguments and results through untouched.

A span is [id, parent id, name, layer, start, end]; the spans and counts
of one report form its record, to which the benchmark adds the report's
id.  Records stay in memory until the benchmark writes them to a sidecar
file.  A layer's self
time is its spans' durations minus the parts covered by child spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

LAYERS = ("cli", "documents", "polytopes", "triples", "atlas", "verify")
SCALAR_KINDS = ("rational", "number_field", "rational_function")
SCALAR_OPS = ("add", "sub", "mul", "div", "inverse", "eq", "is_zero", "sign",
              "eval")
MATRIX_OPS = ("matmul", "inverse", "solve", "rank", "eq")

# Scalar method -> counted operation.  Reflected operators count as the
# operation they implement; a call a method makes to another public method
# (a division multiplies by an inverse) counts as well, so ``inverse``
# counts every extended-Euclid inversion however it was reached.
_SCALAR_METHODS = {
    "__add__": "add", "__radd__": "add",
    "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div",
    "inverse": "inverse", "__eq__": "eq", "is_zero": "is_zero",
    "sign": "sign", "eval_numeric": "eval",
}
_MATRIX_METHODS = {"__matmul__": "matmul", "inverse": "inverse",
                   "solve": "solve", "rank": "rank", "__eq__": "eq"}


class _JsonProxy:
    """Stands in for the ``json`` module inside ``quasifold.cli`` so the
    JSON rendering call can carry a span; every other name passes through."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans and counters for one benchmark run; install() patches,
    uninstall() restores every patched attribute."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._spans = []
        self._stack = []
        self.counts = Counter()
        self._patches = []

    # -- report lifetime ----------------------------------------------------

    def begin_report(self):
        self._spans = []
        self._stack = []
        self.counts = Counter()

    def end_report(self):
        """The report's record: its spans and its counts."""
        return {"spans": self._spans, "counts": dict(self.counts)}

    def call(self, name, layer, fn, *args, **kwargs):
        """Run fn inside a span; used for the benchmark's root span."""
        return self._spanned(name, layer, fn)(*args, **kwargs)

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _spanned(self, name, layer, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(tracer._spans),
                    tracer._stack[-1][0] if tracer._stack else None,
                    name, layer, tracer.clock(), None]
            tracer._spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = tracer.clock()
                tracer._stack.pop()
            if after is not None:
                after(tracer.counts, result)
            return result
        return wrapper

    def _span_function(self, module, attr, layer, after=None):
        fn = module.__dict__[attr]
        name = f"{layer}.{getattr(fn, '__name__', attr)}"
        self._patch(module, attr, self._spanned(name, layer, fn, after))

    def _hook(self, owner, attr, after):
        """Call after(counts, result) when owner.attr returns; no span."""
        fn = owner.__dict__[attr]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(tracer.counts, result)
            return result
        self._patch(owner, attr, wrapper)

    def _count_methods(self, cls, methods, key_of):
        """Count every call of the given methods under key_of(self, op)."""
        tracer = self
        for attr, op in methods.items():
            fn = cls.__dict__[attr]

            def wrapper(obj, *args, _fn=fn, _op=op, **kwargs):
                tracer.counts[key_of(obj, _op)] += 1
                return _fn(obj, *args, **kwargs)
            functools.update_wrapper(wrapper, fn)
            self._patch(cls, attr, wrapper)

    def install(self):
        import json as json_module

        from quasifold import (atlas, cli, documents, gallery, linalg,
                               polytopes, scalars, triples, verify)

        span, hook, tracer = self._span_function, self._hook, self
        # documents: loading, section assembly, rendering
        span(cli, "load_document", "documents")
        span(gallery, "load_document", "documents")
        span(cli, "document_to_triple", "documents")
        for attr in ("validation_section", "polytope_section",
                     "atlas_section", "verification_section",
                     "build_report", "render_text_report"):
            span(cli, attr, "documents")
        dumps = self._spanned("documents.render_json", "documents",
                              json_module.dumps)
        self._patch(cli, "json", _JsonProxy(json_module, dumps))

        # polytopes: normal fan and vertex enumeration
        span(documents, "to_triple", "polytopes")
        span(polytopes, "normal_fan", "polytopes")
        enumerate_vertices = polytopes.enumerate_vertices

        @functools.wraps(enumerate_vertices)
        def counted_enumerate(*args, **kwargs):
            solves = tracer.counts["linalg.solve"]
            result = enumerate_vertices(*args, **kwargs)
            tracer.counts["polytopes.solves"] += (
                tracer.counts["linalg.solve"] - solves)
            tracer.counts["polytopes.vertices"] += len(result)
            return result
        self._patch(polytopes, "enumerate_vertices", self._spanned(
            "polytopes.enumerate_vertices", "polytopes", counted_enumerate))

        # triples: validation and witness recovery
        span(cli, "validate", "triples")
        span(documents, "with_recovered_witnesses", "triples")
        span(polytopes, "with_recovered_witnesses", "triples")
        span(triples, "ray_membership", "triples",
             lambda counts, result: counts.update(["triples.witnesses_recovered"]))

        def searched(counts, result):
            # ray_membership searches (2 * box + 1) ** len(kernel) points;
            # its default box is 10 and no caller passes another
            if result is not None:
                counts["triples.witness_candidates"] += 21 ** len(result[1])
        hook(triples, "solve_general", searched)

        # atlas: compile, charts, transitions, relations, cocycle
        compile_fn = atlas.Atlas.__dict__["compile"].__func__
        self._patch(atlas.Atlas, "compile", classmethod(
            self._spanned("atlas.compile", "atlas", compile_fn)))
        span(atlas, "build_chart", "atlas",
             lambda counts, result: counts.update(["atlas.charts"]))
        span(atlas, "transition_map", "atlas",
             lambda counts, result: counts.update(["atlas.transitions"]))
        span(atlas, "relations", "atlas")

        def cocycle_done(counts, result):
            counts["atlas.identities"] += (result.pairs_checked
                                           + result.triples_checked)
        span(documents, "cocycle_check", "atlas", cocycle_done)
        span(documents, "orbit_report", "atlas")

        # verify: the four checks and the membership tables
        def verified(counts, summary):
            for name, report in summary.reports.items():
                counts["verify.trials"] += report.trials
                if name != "connecting_element":
                    counts["verify.membership_trials"] += report.trials
                counts["verify.search_exhausted"] += sum(
                    1 for f in report.failures if f.kind == "search-exhausted")
        span(cli, "verify_triple", "verify", verified)
        for attr in ("check_branch_invariance", "check_transition_equivariance",
                     "check_factorization", "check_connecting_element"):
            span(verify, attr, "verify")

        def found(counts, result):
            counts["verify.membership_finds"] += 1
            if result[0] is not None:
                counts["verify.witnesses_found"] += 1
        hook(verify.GroupMembership, "__init__",
             lambda counts, result: counts.update(["verify.membership_tables"]))
        hook(verify.GroupMembership, "find", found)

        # linalg and scalars: operation counts only
        matrix_keys = {op: f"linalg.{op}" for op in MATRIX_OPS}
        scalar_keys = {(kind, op): f"scalars.{kind}.{op}"
                       for kind in SCALAR_KINDS for op in SCALAR_OPS}
        self._count_methods(linalg.Matrix, _MATRIX_METHODS,
                            lambda matrix, op: matrix_keys[op])
        self._count_methods(scalars.Scalar, _SCALAR_METHODS,
                            lambda scalar, op: scalar_keys[scalar.domain.kind, op])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# metrics derived from one report's spans and counts
# ---------------------------------------------------------------------------

def merge(records):
    """One record for several reports: spans renumbered, counts summed."""
    spans, counts = [], Counter()
    import_s = report_bytes = 0
    for record in records:
        offset = len(spans)
        spans += [[sid + offset, None if parent is None else parent + offset,
                   *rest] for sid, parent, *rest in record["spans"]]
        counts.update(record["counts"])
        import_s += record.get("import_s", 0.0)
        report_bytes += record.get("report_bytes", 0)
    return {"spans": spans, "counts": counts, "import_s": import_s,
            "report_bytes": report_bytes}


def _durations(spans, name):
    return sum(end - start for _, _, n, _, start, end in spans if n == name)


def self_times(spans):
    """Seconds per layer, each span minus its direct children."""
    child = Counter()
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out = Counter()
    for sid, _, _, layer, start, end in spans:
        out[layer] += (end - start) - child[sid]
    return out


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def report_metrics(record):
    """Every per-layer metric of one record (0 where the layer did not run)."""
    spans, counts = record["spans"], Counter(record["counts"])
    selfs = self_times(spans)
    cocycle_s = _durations(spans, "atlas.cocycle_check")
    m = {
        "cli.import_s": record.get("import_s", 0.0),
        "cli.run_self_s": selfs["cli"],
        "documents.load_s": _durations(spans, "documents.load_document"),
        "documents.atlas_section_s": _durations(spans,
                                                "documents.atlas_section"),
        "documents.render_s": (_durations(spans, "documents.render_text_report")
                               + _durations(spans, "documents.render_json")),
        "documents.report_bytes": record.get("report_bytes", 0),
        "polytopes.enumerate_vertices_s": _durations(
            spans, "polytopes.enumerate_vertices"),
        "polytopes.solves": counts["polytopes.solves"],
        "polytopes.vertices": counts["polytopes.vertices"],
        "polytopes.solve_yield": _ratio(counts["polytopes.vertices"],
                                        counts["polytopes.solves"]),
        "triples.validate_s": _durations(spans, "triples.validate"),
        "triples.witness_recovery_s": _durations(
            spans, "triples.with_recovered_witnesses"),
        "triples.witness_candidates": counts["triples.witness_candidates"],
        "triples.witness_yield": _ratio(
            counts["triples.witnesses_recovered"],
            counts["triples.witness_candidates"]),
        "atlas.compile_s": _durations(spans, "atlas.compile"),
        "atlas.charts": counts["atlas.charts"],
        "atlas.transitions": counts["atlas.transitions"],
        "atlas.cocycle_s": cocycle_s,
        "atlas.identities": counts["atlas.identities"],
        "atlas.identities_per_s": _ratio(counts["atlas.identities"],
                                         cocycle_s),
        "verify.verify_s": _durations(spans, "verify.verify_triple"),
        "verify.trials": counts["verify.trials"],
        "verify.membership_tables": counts["verify.membership_tables"],
        "verify.membership_finds": counts["verify.membership_finds"],
        "verify.search_exhausted": counts["verify.search_exhausted"],
        "verify.witness_yield": _ratio(
            counts["verify.witnesses_found"],
            counts["verify.membership_trials"]),
    }
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = selfs[layer]
    for op in MATRIX_OPS:
        m[f"linalg.{op}"] = counts[f"linalg.{op}"]
    for kind in SCALAR_KINDS:
        for op in SCALAR_OPS:
            key = f"scalars.{kind}.{op}"
            m[key] = counts[key]
    return m


def per_layer_units():
    """(name, unit) of every per-layer metric, in reporting order."""
    sample = report_metrics({"spans": [], "counts": {}})
    units = {}
    for name in sample:
        if name.endswith("_per_s"):
            units[name] = "1/s"
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_yield"):
            units[name] = "ratio"
        elif name.endswith("_bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    units["trace.overhead_s"] = "s"
    return units
