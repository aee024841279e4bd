"""In-memory call tracing for the benchmark's traced runs.

Public functions are wrapped where their callers look them up (a module
that imports a function by name calls its own binding, so that binding is
the one replaced).  Each call records a span: name, start, end, parent and
the exception type it raised, if any.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0
    errors: dict = field(default_factory=lambda: defaultdict(int))


class Tracer:
    """Wraps ``(owner, attribute)`` targets and records a span per call."""

    def __init__(self, targets):
        # targets: (owner, attribute, span name, work function or None)
        self._targets = list(targets)
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[list] = []  # [name, start, end, parent, error, work]
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, work_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None,
                    work_fn(*args) if work_fn else 0.0]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc)
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, work_fn in self._targets:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig, work_fn))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def span(self, name: str):
        """Context manager recording a span around the benchmark's own code."""
        return _Region(self, name)

    def stats(self) -> dict[str, SpanStats]:
        """Per-name call counts, inclusive and self time, work and errors."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, SpanStats] = defaultdict(SpanStats)
        for i, (name, start, end, _, err, work) in enumerate(self.spans):
            st = out[name]
            st.calls += 1
            st.total_s += end - start
            st.self_s += end - start - child_s[i]
            st.work += work
            if err is not None:
                st.errors[err] += 1
        return out

    def calls_under(self, name: str, parent_name: str, ok_only: bool = False) -> int:
        """Calls of ``name`` made directly from ``parent_name``."""
        return sum(
            1
            for n, _, _, parent, err, _ in self.spans
            if n == name and parent >= 0 and self.spans[parent][0] == parent_name
            and not (ok_only and err is not None)
        )

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "parent", "start_s", "end_s", "error"])
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, err, _) in enumerate(self.spans):
                w.writerow([i, name, parent, f"{start - t0:.9f}", f"{end - t0:.9f}",
                            err.__name__ if err else ""])


class _Region:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._span = [name, 0.0, 0.0, -1, None, 0.0]

    def __enter__(self):
        t = self._tracer
        self._span[3] = t._stack[-1] if t._stack else -1
        t._stack.append(len(t.spans))
        t.spans.append(self._span)
        self._span[1] = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._span[2] = time.perf_counter()
        self._span[4] = exc_type
        self._tracer._stack.pop()
        return False
