"""In-memory timing spans for the benchmark's traced run.

Spans nest on a stack.  A span's duration excludes any interval spent in
`Tracer.paused()` (the tracer's own bookkeeping), and its self time is that
duration minus the durations of its direct children.  Calls within one
thread are strictly nested, so direct children never overlap and their sum
is the part of the interval they cover.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    """Records spans around wrapped callables and keeps them in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._open: list = []
        self._paused = False

    @contextmanager
    def span(self, name: str, layer: str, attrs: dict | None = None):
        """Record one span; yields its record (None while paused)."""
        if self._paused:
            yield None
            return
        rec = {"id": len(self.spans),
               "parent": self._open[-1]["id"] if self._open else None,
               "name": name, "layer": layer, "attrs": dict(attrs or {}),
               "error": None, "start": self.clock(), "end": None,
               "dur_s": None, "self_s": None,
               "_child": 0.0, "_excluded": 0.0}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = self.clock()
            self._open.pop()
            dur = rec["end"] - rec["start"] - rec.pop("_excluded")
            rec["dur_s"] = dur
            rec["self_s"] = dur - rec.pop("_child")
            if self._open:
                self._open[-1]["_child"] += dur

    @contextmanager
    def paused(self):
        """Run tracer bookkeeping: nothing is recorded, and the interval is
        taken out of every open span."""
        if self._paused:
            yield
            return
        self._paused = True
        t0 = self.clock()
        try:
            yield
        finally:
            dt = self.clock() - t0
            self._paused = False
            for rec in self._open:
                rec["_excluded"] += dt

    def wrap(self, fn, name: str, layer: str, attrs=None, result=None):
        """`fn` recorded as span `name`.

        attrs(*args, **kwargs) -> dict is read before the call; result(rec,
        out, args, kwargs) runs paused after it, may fill rec["attrs"] (rec
        is None while paused) and returns what the caller receives.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                out = fn(*args, **kwargs)
                rec = None
            else:
                extra = attrs(*args, **kwargs) if attrs else None
                with self.span(name, layer, extra) as rec:
                    out = fn(*args, **kwargs)
            if result is None:
                return out
            with self.paused():
                return result(rec, out, args, kwargs)
        return traced

    def patch(self, owner, attr: str, name: str, layer: str, **hooks):
        """Replace owner.attr, the name callers look up, by its traced form."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, layer,
                                       **hooks))

    def finished(self) -> list:
        """The spans that have closed, in start order."""
        return [rec for rec in self.spans if rec["end"] is not None]
