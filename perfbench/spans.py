"""Per-layer tracing from the outside: wrap each layer's public functions
where their callers look them up, record spans in memory, restore the
original bindings afterwards.

A span is (id, name, layer, start_ns, end_ns, parent id, request id,
thread id, span_terms).  The parent is the innermost open span of the
same thread; a span opened by one of the CLI's pool threads with nothing
open on that thread takes the request's ``main`` span as its parent.
Each call of ``main`` starts a new request id, and every span carries the
id of the request in flight.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "lattice", "numerics", "continuous", "asymptotics", "binom_expansion")

# (module, name bound there, layer of the function).  ``lookback.cli.*``
# covers everything the CLI calls into; the lattice and asymptotics
# entries catch the calls those modules make into lower layers.
BINDINGS = (
    ("lookback.cli", "main", "cli"),
    ("lookback.cli", "price_closed", "lattice"),
    ("lookback.cli", "price_closed_reduced", "lattice"),
    ("lookback.cli", "price_backward_induction", "lattice"),
    ("lookback.cli", "bs_price", "continuous"),
    ("lookback.cli", "expansion_coeffs", "asymptotics"),
    ("lookback.cli", "expansion_price", "asymptotics"),
    ("lookback.cli", "cdf_expansion", "binom_expansion"),
    ("lookback.cli", "binom_cdf_exact", "numerics"),
    ("lookback.lattice", "binom_cdf_exact", "numerics"),
    ("lookback.lattice", "binom_cdf_complement", "numerics"),
    ("lookback.lattice", "binom_pmf", "numerics"),
    ("lookback.lattice", "tree_params", "lattice"),
    ("lookback.asymptotics", "price_closed_reduced", "lattice"),
    ("lookback.asymptotics", "tree_params", "lattice"),
    ("lookback.asymptotics", "bs_price", "continuous"),
    ("lookback.asymptotics", "bs_terms", "continuous"),
    ("lookback.asymptotics", "d_values", "continuous"),
    ("lookback.asymptotics", "kappa_n", "asymptotics"),
)


def span_terms(name: str, args: tuple) -> int:
    """Index range a numerics call covers: j+1 (lower CDF), n-j (upper), 1 (pmf)."""
    n, _, j = args[:3]
    if name == "binom_pmf":
        return 1 if 0 <= j <= n else 0
    if not 0 <= j < n:
        return 0
    return j + 1 if name == "binom_cdf_exact" else n - j


class Tracer:
    """Holds the spans of one traced pass; ``install``/``restore`` swap the
    wrappers in and out of the bindings above."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request_id = -1
        self._root = None
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, local, ids = self.spans, self._local, self._ids
        counts_terms = layer == "numerics"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else (None if name == "main" else self._root)
            if name == "main":
                self._root = sid
                self.request_id = next(self._requests)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                terms = span_terms(name, args) if counts_terms else 0
                spans.append((sid, name, layer, start, end, parent, self.request_id,
                              threading.get_ident(), terms))

        return wrapper

    def install(self) -> None:
        import importlib

        for module_name, name, layer in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(original, name, layer))

    def restore(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> self time in ns.

    Each instant of a request is split equally among the innermost spans
    open at that instant (open spans with no open child).  On one thread
    this is the span's duration minus the union of its children; where the
    CLI's pool threads overlap, the parallel spans share the wall time
    instead of each counting all of it, so a request's self times add up
    to its ``main`` span.
    """
    by_request = defaultdict(list)
    for span in spans:
        by_request[span[6]].append(span)
    selfs = {span[0]: 0.0 for span in spans}
    for group in by_request.values():
        parents = {sid: parent for sid, _, _, _, _, parent, *_ in group}
        # at equal times starts sort first, so a span of zero length closes
        events = sorted([(start, 0, sid) for sid, _, _, start, *_ in group]
                        + [(end, 1, sid) for sid, _, _, _, end, *_ in group])
        open_children = defaultdict(int)
        active: set[int] = set()
        prev = None
        for t, is_end, sid in events:
            if active and t > prev:
                inner = [a for a in active if not open_children[a]]
                share = (t - prev) / len(inner)
                for a in inner:
                    selfs[a] += share
            step = -1 if is_end else 1
            (active.discard if is_end else active.add)(sid)
            if parents[sid] is not None:
                open_children[parents[sid]] += step
            prev = t
    return selfs


def accounting_errors(spans: list[tuple], selfs: dict[int, float]) -> list[str]:
    """Per request, check that the span tree adds up to its ``main`` span.

    Every span must lie inside its parent and carry its parent's request
    id.  The layers' self times plus cli's must sum to main's duration,
    and cli's own share must be main's duration minus the union, not the
    sum, of its children's intervals (the pool runs them in parallel).
    """
    by_id = {s[0]: s for s in spans}
    by_request = defaultdict(list)
    for s in spans:
        by_request[s[6]].append(s)
    errors = []
    for rid, group in by_request.items():
        roots = [s for s in group if s[5] is None]
        if len(roots) != 1 or roots[0][1] != "main":
            errors.append(f"request {rid}: {len(roots)} root spans")
            continue
        root = roots[0]
        for sid, name, _, start, end, parent, req, *_ in group:
            if parent is None:
                continue
            p = by_id.get(parent)
            if p is None or p[6] != req or start < p[3] or end > p[4]:
                errors.append(f"request {rid}: {name} escapes its parent")
        duration = root[4] - root[3]
        total = sum(selfs[s[0]] for s in group)
        if abs(total - duration) > 1e-9 * duration + 1.0:
            errors.append(f"request {rid}: self times sum to {total} ns, main is {duration} ns")
        union = _union_ns([(s[3], s[4]) for s in group if s[5] == root[0]])
        if selfs[root[0]] != duration - union:
            errors.append(f"request {rid}: cli self {selfs[root[0]]} ns != "
                          f"main {duration} - union of children {union}")
    return errors


def layer_metrics(spans: list[tuple], selfs: dict[int, int]) -> dict[str, float]:
    """The per-layer counts and self times of a traced pass."""
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    cdf_calls = pmf_calls = terms = 0
    for sid, name, layer, *_, n_terms in spans:
        calls[layer] += 1
        self_ns[layer] += selfs[sid]
        if layer == "numerics":
            terms += n_terms
            if name == "binom_pmf":
                pmf_calls += 1
            else:
                cdf_calls += 1
    out = {"cli.requests": calls["cli"], "cli.self_s": self_ns["cli"] / 1e9}
    for layer in LAYERS[1:]:
        if layer == "numerics":
            out["numerics.cdf_calls"] = cdf_calls
            out["numerics.pmf_calls"] = pmf_calls
            out["numerics.span_terms"] = terms
            out["numerics.self_s"] = self_ns[layer] / 1e9
            out["numerics.ns_per_span_term"] = self_ns[layer] / terms if terms else 0.0
        else:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
    return out
