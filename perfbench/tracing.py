"""Spans around starendo's layers, recorded from outside the package.

Each public function is wrapped at the name its caller looks it up by (for
example ``starendo.cli.enumerate_class`` for the CLI and
``starendo.enumerate_class`` for the benchmark's own calls), so no program
code changes.  Spans stay in memory; the worker hands them to the parent
process, which writes them out when the run ends.

A span is the list ``[name, start, end, parent, op, extra]``: times from
the tracer's clock (``time.perf_counter`` less the speed probe's time), ``parent`` the index of the enclosing span or -1,
``op`` the id of the operation it belongs to, ``extra`` a dict of counts
observed at that boundary or None.
"""

from __future__ import annotations

import time
from collections import defaultdict

NAME, START, END, PARENT, OP, EXTRA = range(6)

# Span names, one per layer boundary; each also gets a call count.
SPAN_NAMES = (
    "bench.op",
    "cli.main",
    "graphs.enumerate_class",
    "graphs.is_regular_monoid",
    "monoid.from_elements",
    "monoid.is_generating_set",
    "monoid.rank_exact",
    "verify.verify_presentation",
    "verify.satisfies_relations",
    "congruence.enumerate_quotient",
    "wordclosure.word_closure_size",
    "presentations.build",
)


class Tracer:
    """Records nested spans; one instance per worker process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: str | None = None

    def call(self, name, fn, args=(), kwargs=None, observe=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = self.clock()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            rec[END] = self.clock()
            self._stack.pop()
        if observe is not None:
            rec[EXTRA] = observe(args, kwargs or {}, result)
        return result

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def install(tracer: Tracer, se) -> None:
    """Wrap every traced function of the imported package ``se``."""
    cold_degrees: set[int] = set()

    def scan(args, kwargs, result):
        # _class_census is cached per degree for the life of the process:
        # the first enumerate_class call at a degree scans all n^n maps.
        n = args[0]
        if n in cold_degrees:
            return None
        cold_degrees.add(n)
        return {"scan_maps": n ** n}

    def quotient(args, kwargs, result):
        if isinstance(result, se.CongruenceTable):
            return {"classes_final": result.size}
        return {"classes_reached": result.classes_reached}

    enumerate_class = tracer.wrap("graphs.enumerate_class", se.graphs.enumerate_class, scan)
    is_generating_set = tracer.wrap("monoid.is_generating_set", se.monoid.is_generating_set)
    verify_presentation = tracer.wrap("verify.verify_presentation",
                                      se.verify.verify_presentation)
    for namespace in (se, se.cli):
        namespace.enumerate_class = enumerate_class
        namespace.verify_presentation = verify_presentation
    se.cli.is_generating_set = is_generating_set
    se.verify.is_generating_set = is_generating_set
    se.cli.main = tracer.wrap("cli.main", se.cli.main)
    se.cli.rank_exact = tracer.wrap("monoid.rank_exact", se.monoid.rank_exact)
    se.is_regular_monoid = tracer.wrap(
        "graphs.is_regular_monoid", se.graphs.is_regular_monoid,
        lambda args, kwargs, result: {"regular_elements": len(args[0])})
    se.verify.satisfies_relations = tracer.wrap("verify.satisfies_relations",
                                                se.verify.satisfies_relations)
    se.verify.enumerate_quotient = tracer.wrap(
        "congruence.enumerate_quotient", se.congruence.enumerate_quotient, quotient)
    se.word_closure_size = tracer.wrap("wordclosure.word_closure_size",
                                       se.wordclosure.word_closure_size)
    for key, builder in list(se.cli.PRESENTATION_BUILDERS.items()):
        se.cli.PRESENTATION_BUILDERS[key] = tracer.wrap("presentations.build", builder)

    from_elements = se.TransformationMonoid.from_elements.__func__

    def traced_from_elements(cls, *args, **kwargs):
        return tracer.call("monoid.from_elements", from_elements, (cls, *args), kwargs,
                           lambda a, k, result: {"closure_elements": len(result)})

    se.TransformationMonoid.from_elements = classmethod(traced_from_elements)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START]) - _covered(children[i], s[START], s[END])
        for i, s in enumerate(spans)
    ]


def uncovered(spans: list[list], lo: float, hi: float) -> float:
    """Time in [lo, hi] that no root span covers."""
    roots = [(s[START], s[END]) for s in spans if s[PARENT] < 0]
    return (hi - lo) - _covered(roots, lo, hi)


# Per-layer metric -> (unit, (aggregate, key)).  Aggregates over one pass:
# "self" and "total" sum the self and inclusive times of the spans named
# key, "calls" counts them, "extra" sums the count key observed at span
# boundaries, and "total_with" sums the inclusive times of the spans that
# observed key.  A layer the workload never calls reads 0.
LAYER_METRICS = {
    "graphs.enumerate_self_s": ("s", ("self", "graphs.enumerate_class")),
    "graphs.scan_maps": ("count", ("extra", "scan_maps")),
    "monoid.from_elements_s": ("s", ("total", "monoid.from_elements")),
    "monoid.closure_elements": ("count", ("extra", "closure_elements")),
    "monoid.gencheck_s": ("s", ("total", "monoid.is_generating_set")),
    "monoid.rank_s": ("s", ("total", "monoid.rank_exact")),
    "graphs.regular_s": ("s", ("total", "graphs.is_regular_monoid")),
    "graphs.regular_elements": ("count", ("extra", "regular_elements")),
    "congruence.verified_s": ("s", ("total_with", "classes_final")),
    "congruence.exceeded_s": ("s", ("total_with", "classes_reached")),
    "congruence.classes_final": ("count", ("extra", "classes_final")),
    "congruence.classes_reached": ("count", ("extra", "classes_reached")),
    "wordclosure.size_s": ("s", ("total", "wordclosure.word_closure_size")),
    "wordclosure.calls": ("count", ("calls", "wordclosure.word_closure_size")),
    "verify.self_s": ("s", ("self", "verify.verify_presentation")),
    "verify.relations_s": ("s", ("total", "verify.satisfies_relations")),
    "presentations.build_s": ("s", ("self", "presentations.build")),
    "cli.self_s": ("s", ("self", "cli.main")),
    "bench.self_s": ("s", ("self", "bench.op")),
}


def layer_metrics(spans: list[list], wall_lo: float, wall_hi: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, plus ``calls.<span>`` counts.

    Also returns ``trace.unaccounted_s``: the traced wall time minus the
    self times of all spans and the time no span covers, which is zero up to
    rounding when the spans nest properly.
    """
    selfs = self_times(spans)
    agg = {key: defaultdict(float) for key in ("self", "total", "calls", "extra", "total_with")}
    for s, own in zip(spans, selfs):
        name, duration = s[NAME], s[END] - s[START]
        agg["self"][name] += own
        agg["total"][name] += duration
        agg["calls"][name] += 1
        for key, value in (s[EXTRA] or {}).items():
            agg["extra"][key] += value
            agg["total_with"][key] += duration
    out = {metric: agg[kind][key] for metric, (_, (kind, key)) in LAYER_METRICS.items()}
    for name in SPAN_NAMES:
        out[f"calls.{name}"] = agg["calls"][name]
    out["trace.unaccounted_s"] = (
        (wall_hi - wall_lo) - sum(selfs) - uncovered(spans, wall_lo, wall_hi)
    )
    return out
