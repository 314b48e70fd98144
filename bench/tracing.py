"""In-process tracing of kpflows from outside the package.

Public functions are wrapped at the names their callers look up, so no file
of the package changes.  Calls that happen a few times per request become
spans (name, parent, request, start, end); calls that happen once per flow
become counters (calls, seconds), because a span each would cost more than
the call.  Per-layer metrics are derived from one traced pass.
"""

from __future__ import annotations

import contextlib
import math
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Iterator

# name each caller looks up -> (span name, tally of len(result) or None)
CLI_SPANS = {
    "count": ("counting.count", None),
    "brute_force_count": ("counting.brute_force_count", None),
    "enumerate_flows": ("counting.enumerate_flows", "counting.flows_listed"),
    "verify_identity_a": ("identities.verify_identity_a", None),
    "verify_identity_c": ("identities.verify_identity_c", None),
    "report_json_dict": ("identities.report_json_dict", None),
    "generate_bv_family": ("identities.generate_bv_family", None),
    "count_via_partial": ("partial_flows.count_via_partial", None),
    "enumerate_partial_flows": ("partial_flows.enumerate_partial_flows",
                                "partial_flows.partial_flows_listed"),
    "materialize_fiber": ("partial_flows.materialize_fiber", "partial_flows.fiber_flows"),
    "catalan_graph": ("catalan.catalan_graph", None),
    "catalan_netflow": ("catalan.catalan_netflow", None),
    "catalan_product": ("catalan.catalan_product", None),
}
IDENTITIES_SPANS = {
    "bv_hypothesis": ("graphs.bv_hypothesis", None),
    "delete_edges": ("graphs.delete_edges", None),
}
PARTIAL_FLOWS_SPANS = {"enumerate_partial_flows": CLI_SPANS["enumerate_partial_flows"]}
PARTIAL_FLOWS_COUNTERS = {
    "extend_with_index": "partial_flows.extend_with_index",
    "bv_hypothesis": "graphs.bv_hypothesis",
    "delete_edges": "graphs.delete_edges",
}


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, request, start, end]
        self._stack: list[int] = []
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0.0])  # [calls, seconds]
        self.tallies: Counter[str] = Counter()
        self.request = ""
        self.missing: list[str] = []  # listed names instrument() could not wrap

    def span(self, name: str, fn: Callable, tally: str | None = None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            rec = [name, parent, self.request, perf_counter(), 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                self._stack.pop()
            if tally:
                self.tallies[tally] += len(result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        stats = self.counters[name]

        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stats[0] += 1
                stats[1] += perf_counter() - t0

        return counted


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Install the tracer's wrappers; restore every patched name on exit.

    ``verify_identity_a``/``_c`` bind ``counter=count`` when defined, so the
    count they use is interposed through their ``__defaults__``.  A listed
    name the package no longer has, or a verifier whose defaults hold no
    ``counting.count``, is added to ``tracer.missing``: its layer would read
    as zero, so the run must not count as correct.
    """
    import kpflows.cli as cli
    import kpflows.counting as counting
    import kpflows.identities as identities
    import kpflows.partial_flows as partial_flows
    from kpflows.graphs import SignedMultigraph

    saved: list[tuple[object, str, object]] = []

    def patch(obj: object, attr: str, new: object, old: object) -> None:
        saved.append((obj, attr, old))
        setattr(obj, attr, new)

    def lookup(obj, attr: str):
        if attr not in vars(obj):
            tracer.missing.append(f"{obj.__name__}.{attr}")
        return vars(obj).get(attr)

    try:
        for module, spans in ((cli, CLI_SPANS), (identities, IDENTITIES_SPANS),
                              (partial_flows, PARTIAL_FLOWS_SPANS)):
            for attr, (name, tally) in spans.items():
                if (old := lookup(module, attr)) is not None:
                    patch(module, attr, tracer.span(name, old, tally), old)
        for attr, name in PARTIAL_FLOWS_COUNTERS.items():
            if (old := lookup(partial_flows, attr)) is not None:
                patch(partial_flows, attr, tracer.counter(name, old), old)
        traced_count = tracer.span("counting.count", counting.count)
        for attr in ("verify_identity_a", "verify_identity_c"):
            if (fn := lookup(identities, attr)) is None:
                continue
            defaults = fn.__defaults__ or ()
            if not any(d is counting.count for d in defaults):
                tracer.missing.append(f"counting.count as a default of {fn.__qualname__}")
                continue
            new = tuple(traced_count if d is counting.count else d for d in defaults)
            patch(fn, "__defaults__", new, defaults)
        if isinstance(old := lookup(SignedMultigraph, "from_json_dict"), staticmethod):
            patch(SignedMultigraph, "from_json_dict",
                  staticmethod(tracer.span("graphs.from_json_dict", old.__func__)), old)
        elif old is not None:
            tracer.missing.append("SignedMultigraph.from_json_dict as a staticmethod")
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _prefix_sum(times: dict[str, float], prefix: str) -> float:
    return sum((t for name, t in times.items() if name.startswith(prefix)), 0.0)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times (s) and exact counts of one traced pass."""
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    count_durations = []
    child_time = [0.0] * len(tracer.spans)
    for name, parent, _req, start, end in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    for idx, (name, _parent, _req, start, end) in enumerate(tracer.spans):
        total[name] += end - start
        self_time[name] += end - start - child_time[idx]
        calls[name] += 1
        if name == "counting.count":
            count_durations.append(end - start)
    ctr = tracer.counters
    verify = ("identities.verify_identity_a", "identities.verify_identity_c")
    bv, de = "graphs.bv_hypothesis", "graphs.delete_edges"  # spans plus counters
    return {
        "counting.count_s": total["counting.count"],
        "counting.count_calls": calls["counting.count"],
        "counting.count_p50_s": _percentile(count_durations, 0.5),
        "counting.count_p90_s": _percentile(count_durations, 0.9),
        "counting.brute_force_count_s": total["counting.brute_force_count"],
        "counting.enumerate_flows_s": total["counting.enumerate_flows"],
        "counting.flows_listed": tracer.tallies["counting.flows_listed"],
        "partial_flows.enumerate_partial_flows_s": total["partial_flows.enumerate_partial_flows"],
        "partial_flows.partial_flows_listed": tracer.tallies["partial_flows.partial_flows_listed"],
        "partial_flows.count_via_partial_self_s": self_time["partial_flows.count_via_partial"],
        "partial_flows.materialize_fiber_s": total["partial_flows.materialize_fiber"],
        "partial_flows.extend_with_index_calls": ctr["partial_flows.extend_with_index"][0],
        "partial_flows.fiber_flows": tracer.tallies["partial_flows.fiber_flows"],
        "graphs.bv_hypothesis_s": total[bv] + ctr[bv][1],
        "graphs.bv_hypothesis_calls": calls[bv] + ctr[bv][0],
        "graphs.delete_edges_s": total[de] + ctr[de][1],
        "graphs.delete_edges_calls": calls[de] + ctr[de][0],
        "graphs.from_json_dict_s": total["graphs.from_json_dict"],
        "cli.run_cli_s": total["cli.run_cli"],
        "cli.self_s": self_time["cli.run_cli"],
        "identities.verify_s": sum((total[v] for v in verify), 0.0),
        "identities.verify_calls": sum(calls[v] for v in verify),
        "identities.self_s": _prefix_sum(self_time, "identities."),
        "identities.generate_bv_family_s": total["identities.generate_bv_family"],
        "identities.generate_bv_family_calls": calls["identities.generate_bv_family"],
        "identities.report_json_dict_s": total["identities.report_json_dict"],
        "catalan.s": _prefix_sum(total, "catalan."),
        "trace.spans": len(tracer.spans),
    }
