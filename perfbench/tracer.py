"""Span tracer that wraps durfee's public functions from outside.

Each wrapper is installed at every module binding its callers look up
(cli imports verify from conjecture, conjecture imports milnor_number from
invariants, and so on), so the library itself is never edited.  Spans are
kept in memory as (id, parent, op, name, start, end) and written out by
the caller at the end; per-name calls, inclusive and self seconds are
accumulated as the spans close.  Inclusive time counts only the outermost
span of a name, so a recursive call is not counted twice.  Pool workers
of search --jobs K would run the wrappers in their own memory, so their
spans would be lost; the workloads run every search at --jobs 1.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []
        self._open: Counter = Counter()
        self._next_id = 0
        self._patched: list[tuple] = []

    # spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self.calls[name] += 1
        self._open[name] += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next_id, parent, name, 0.0, perf_counter()])
        self._next_id += 1

    def leave(self) -> None:
        end = perf_counter()
        span_id, parent, name, child, start = self._stack.pop()
        duration = end - start
        self._open[name] -= 1
        if not self._open[name]:
            self.inclusive[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((span_id, parent, self.op, name, start, end))

    def call(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave()

    # wrappers ------------------------------------------------------------

    def _span(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _route(self, fn, prefix):
        """A span named by the route: the method argument or its default."""
        default = fn.__defaults__[0]

        @functools.wraps(fn)
        def wrapper(spec, method=default):
            value = self.call(prefix + method, fn, spec, method)
            self.maxima["invariants.result_bits.max"] = max(
                self.maxima["invariants.result_bits.max"], abs(value).bit_length())
            return value
        return wrapper

    def _counted(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _yield_counted(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[key] += 1
                yield item
        return wrapper

    def _emit(self, fn):
        """cli.emit, counting the bytes written to the captured streams."""
        @functools.wraps(fn)
        def wrapper(doc, fmt, out=None, err=None):
            streams = (sys.stdout if out is None else out, sys.stderr if err is None else err)
            before = [s.tell() for s in streams]
            self.call("cli.emit", fn, doc, fmt, out, err)
            self.counts["cli.emit.bytes"] += sum(
                len(s.getvalue()[b:].encode()) for s, b in zip(streams, before))
        return wrapper

    def _mul(self, fn):
        @functools.wraps(fn)
        def wrapper(a, b):
            self.maxima["series.mul.max_order"] = max(self.maxima["series.mul.max_order"], a.order)
            return self.call("series.mul", fn, a, b)
        return wrapper

    # installation --------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        if attr not in vars(owner):
            raise LookupError(f"cannot trace {owner.__name__}.{attr}: no such binding")
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public functions at every binding the ops look them up."""
        from durfee import bounds, cli, conjecture, exactmath, invariants, series

        plan = [
            ((cli,), "emit", self._emit(cli.emit)),
            ((cli,), "search", self._span(conjecture.search, "conjecture.search")),
            ((cli,), "trace_ratio", self._span(conjecture.trace_ratio, "conjecture.trace_ratio")),
            ((cli,), "invariant_report",
             self._span(invariants.invariant_report, "invariants.invariant_report")),
            ((cli, conjecture), "verify", self._span(conjecture.verify, "conjecture.verify")),
            ((conjecture,), "bound_coefficient",
             self._span(bounds.bound_coefficient, "bounds.bound_coefficient")),
            ((conjecture, invariants), "milnor_number",
             self._route(invariants.milnor_number, "invariants.mu.")),
            ((conjecture, invariants), "geometric_genus",
             self._route(invariants.geometric_genus, "invariants.pg.")),
            ((invariants,), "milnor_fiber_euler",
             self._span(invariants.milnor_fiber_euler, "invariants.milnor_fiber_euler")),
            ((invariants, bounds), "compositions",
             self._yield_counted(exactmath.compositions, "exactmath.compositions.yielded")),
            ((invariants,), "binomial", self._counted(exactmath.binomial, "exactmath.binomial.calls")),
            ((bounds,), "stirling2", self._span(exactmath.stirling2, "exactmath.stirling2")),
        ]
        ts = series.TruncatedSeries
        plan += [
            ((ts,), "__mul__", self._mul(vars(ts)["__mul__"])),
            ((ts,), "inverse", self._span(vars(ts)["inverse"], "series.inverse")),
            ((ts,), "__pow__", self._span(vars(ts)["__pow__"], "series.pow")),
        ]
        for owners, attr, wrapper in plan:
            for owner in owners:
                self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original binding back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # results -------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Every recorded figure, keyed as name.calls / .s / .self_s, counters and maxima."""
        out: dict[str, float] = {}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = self.inclusive[name]
            out[f"{name}.self_s"] = self.self_time[name]
        out.update(self.counts)
        out.update(self.maxima)
        return out
