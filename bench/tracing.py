"""Spans around calls into dynmatch's layers, recorded from outside the package.

A span is (id, name, parent, start, end) plus a few attributes recorded at
the boundary (policy, horizon, agent count, LP rows). Spans stay in memory
and are written out once, when the traced process ends. A span's self time
is its duration minus that of its child spans; calls are sequential, so the
children never overlap.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def current(self) -> dict | None:
        """The innermost open span, if any."""
        return self.spans[self._stack[-1]] if self._stack else None

    def wrap(self, module, attr: str, name: str, attrs=None, result_attrs=None) -> None:
        """Replace module.attr with a traced call of the same function.

        attrs(*args, **kwargs) and result_attrs(result) return extra span
        attributes taken from the call's arguments and its result.
        """
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})) as rec:
                result = inner(*args, **kwargs)
                if result_attrs:
                    rec.update(result_attrs(result))
                return result

        setattr(module, attr, traced)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
