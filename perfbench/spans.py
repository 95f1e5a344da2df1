"""Spans recorded from the benchmark's own code around calls into mixedfbm.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span or None, ``op`` the operation number the span belongs to
(None during set-up, "sweep" in the traced layer sweep).  Spans stay in
memory and are written out once, when the run ends.  A disabled tracer
records nothing, so the untraced run pays one no-op context per call.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.op = None
        self._open: list = []

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, module, attr: str, name: str, keep: list | None = None):
        """Record a span around every call of ``module.attr``.

        Only callers that look the name up in ``module`` at call time
        see the wrapper, so wrap the module that makes the call (for
        example ``harness.solve_second_kind``).  Results are appended to
        ``keep`` when given.
        """
        if not self.enabled:
            return
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._span(name):
                out = fn(*args, **kwargs)
            if keep is not None:
                keep.append(out)
            return out

        setattr(module, attr, traced)

    def seen(self, name: str) -> bool:
        return any(s[0] == name for s in self.spans)

    def durations(self, name: str) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def summary(self, names) -> dict:
        """Median wall time per call and call count for each span name."""
        out = {}
        for name in names:
            d = self.durations(name)
            out[name] = (statistics.median(d) if d else 0.0, len(d))
        return out

    def records(self) -> list:
        keys = ("name", "start", "end", "parent", "op")
        return [dict(zip(keys, s)) for s in self.spans]
