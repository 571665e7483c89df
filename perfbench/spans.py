"""Spans and counters recorded around the calls into each aperykit module.

Nothing inside the package changes: the tracer swaps the public functions
of each module for wrappers, in every aperykit namespace that holds them.
That includes names an importer re-binds (``aperykit.apery.buchberger``,
``aperykit.cli.buchberger``, ``aperykit.affine.buchberger``,
``aperykit.homology.contains``), so a call is seen whichever module makes
it.  Entry functions get a span; hot leaf functions get a count only, which
keeps the tracing overhead small enough to report.

Spans stay in memory as ``[name, parent, query, start_ns, end_ns]`` and are
written out once the run ends.  A span's self time is its duration minus
the part of it covered by its child spans.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# (metric name, module, attribute) of every function that gets a span.
SPAN_TARGETS = (
    ("cli.main", "aperykit.cli", "main"),
    ("groebner.buchberger", "aperykit.groebner", "buchberger"),
    ("apery.apery_delta", "aperykit.apery", "apery_delta"),
    ("apery.extremal_set", "aperykit.apery", "extremal_set"),
    ("apery.type_set", "aperykit.apery", "type_set"),
    ("apery.classify", "aperykit.apery", "classify"),
    ("homology.pf_via_homology", "aperykit.homology", "pf_via_homology"),
    ("homology.build_delta", "aperykit.homology", "build_delta"),
    ("homology.reduced_homology_ranks", "aperykit.homology", "reduced_homology_ranks"),
    ("affine.validate_lambda", "aperykit.affine", "validate_lambda"),
    ("affine.apery_affine", "aperykit.affine", "apery_affine"),
    ("semigroup.gaps", "aperykit.semigroup", "gaps"),
    ("semigroup.apery_bruteforce", "aperykit.semigroup", "apery_bruteforce"),
    ("semigroup.typeset_bruteforce", "aperykit.semigroup", "typeset_bruteforce"),
    ("semigroup.selmer_invariants", "aperykit.semigroup", "selmer_invariants"),
)
# The constructor is patched on the class, so every importer sees it.
CONSTRUCTOR_SPAN = "semigroup.NumericalSemigroup"
# The root span the harness opens around each query.
QUERY_SPAN = "query"
SPAN_NAMES = (QUERY_SPAN, CONSTRUCTOR_SPAN) + tuple(t[0] for t in SPAN_TARGETS)

# Reducer calls are attributed to the innermost of these spans.
REDUCE_BY_SPAN = {
    "groebner.buchberger": "groebner.reduce.calls",
    "apery.apery_delta": "apery.scan_steps",
    "apery.classify": "apery.classify_reduces",
}
REDUCE_OTHER = "groebner.reduce.calls_other"
COUNT_NAMES = tuple(REDUCE_BY_SPAN.values()) + (
    REDUCE_OTHER,
    "groebner.reducer_builds",
    "apery.divides.calls",
    "semigroup.contains.calls",
    "orders.key.calls",
)


def self_times(spans) -> dict[int, int]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` holds ``[name, parent, query, start, end]`` records, where
    ``parent`` indexes the enclosing span or is None.  Child intervals are
    merged before subtraction, so overlapping children are not counted
    twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for rec in spans:
        if rec[1] is not None:
            children[rec[1]].append((rec[3], rec[4]))
    out = {}
    for idx, rec in enumerate(spans):
        start, end = rec[3], rec[4]
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[idx] = (end - start) - covered
    return out


class Tracer:
    """In-memory spans, call counts and output-derived work counts."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.work: Counter = Counter()
        self.query = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append([name, parent, self.query, self.clock(), 0])
        self.stack.append(idx)
        return idx

    def open_query(self, query) -> int:
        """Open the root span of one query; later spans carry its id."""
        self.query = query
        return self.open(QUERY_SPAN)

    def close(self, idx: int) -> None:
        self.spans[idx][4] = self.clock()
        self.stack.pop()

    def innermost(self, names) -> str | None:
        """Name of the innermost open span that is one of ``names``."""
        spans = self.spans
        for idx in reversed(self.stack):
            name = spans[idx][0]
            if name in names:
                return name
        return None

    def spanned(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------
    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "aperykit" or modname.startswith("aperykit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap the package's entry and leaf functions; undo with ``uninstall``."""
        import aperykit.affine
        import aperykit.apery
        import aperykit.cli
        import aperykit.groebner
        import aperykit.homology
        import aperykit.orders
        import aperykit.semigroup

        hooks = {
            "groebner.buchberger": _on_basis,
            "apery.type_set": _on_type_report,
            "homology.build_delta": _on_complex,
            "homology.pf_via_homology": _on_pf,
            "affine.apery_affine": _on_affine_report,
        }
        for name, modname, attr in SPAN_TARGETS:
            original = getattr(sys.modules[modname], attr)
            self._rebind_everywhere(original, self.spanned(name, original, hooks.get(name)))

        cls = aperykit.semigroup.NumericalSemigroup
        self._set(cls, "__init__", self.spanned(CONSTRUCTOR_SPAN, cls.__init__))

        reducer = aperykit.groebner.PackedReducer
        reduce_packed = reducer.reduce_packed
        counts = self.counts
        innermost = self.innermost
        span_keys = frozenset(REDUCE_BY_SPAN)

        def counted_reduce(inst, v):
            counts[REDUCE_BY_SPAN.get(innermost(span_keys), REDUCE_OTHER)] += 1
            return reduce_packed(inst, v)

        self._set(reducer, "reduce_packed", counted_reduce)
        for_basis = reducer.__dict__["for_basis"].__func__
        self._set(
            reducer,
            "for_basis",
            classmethod(self.counted("groebner.reducer_builds", for_basis)),
        )
        divides = aperykit.apery.divides
        self._set(aperykit.apery, "divides", self.counted("apery.divides.calls", divides))
        contains = aperykit.semigroup.contains
        self._rebind_everywhere(contains, self.counted("semigroup.contains.calls", contains))
        order_cls = aperykit.orders.OrderSpec
        self._set(order_cls, "key", self.counted("orders.key.calls", order_cls.key))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def layer_metrics(self, queries: int) -> dict[str, tuple[float, str]]:
        """Per-query self time and calls per span, counts and work ratios."""
        if queries < 1:
            raise ValueError("need at least one traced query")
        selfs = self_times(self.spans)
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for idx, rec in enumerate(self.spans):
            self_ns[rec[0]] += selfs[idx]
            calls[rec[0]] += 1
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_ms"] = (self_ns[name] / 1e6 / queries, "ms/query")
            out[f"{name}.calls"] = (calls[name] / queries, "1/query")
        for name in COUNT_NAMES:
            out[name] = (self.counts[name] / queries, "1/query")
        w = self.work
        bb_calls = calls["groebner.buchberger"]
        elems = w["groebner.basis_elems"]
        out["groebner.basis_elems"] = (_ratio(elems, bb_calls), "count")
        out["groebner.pairs_per_elem"] = (
            _ratio(self.counts["groebner.reduce.calls"] / 2, elems),
            "ratio",
        )
        out["apery.type_set.orderings"] = (
            _ratio(w["apery.type_set.orderings"], calls["apery.type_set"]),
            "count",
        )
        out["homology.faces"] = (
            _ratio(w["homology.faces"], calls["homology.build_delta"]),
            "count",
        )
        out["homology.pf_hit_ratio"] = (
            _ratio(w["homology.pf_found"], w["homology.gaps_tested"]),
            "ratio",
        )
        out["affine.face_points"] = (
            _ratio(w["affine.face_points"], calls["affine.apery_affine"]),
            "count",
        )
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON document, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "query", "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _on_basis(tracer, basis) -> None:
    tracer.work["groebner.basis_elems"] += len(basis.elements)


def _on_type_report(tracer, report) -> None:
    tracer.work["apery.type_set.orderings"] += len(report.extremal_sets)


def _on_complex(tracer, complex_) -> None:
    tracer.work["homology.faces"] += len(complex_.faces)
    # pf_via_homology builds one complex per gap it tests
    if tracer.innermost(("homology.pf_via_homology",)):
        tracer.work["homology.gaps_tested"] += 1


def _on_pf(tracer, pf) -> None:
    tracer.work["homology.pf_found"] += len(pf)


def _on_affine_report(tracer, report) -> None:
    tracer.work["affine.face_points"] += len(report.elements)
