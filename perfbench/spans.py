"""In-memory span recorder installed from outside the package.

``Recorder.wrap`` replaces a function or method at the name its caller looks
up (a module global such as ``vadasr.trainer.forward`` or a class attribute
such as ``ModelScorer.__call__``) with a wrapper that records one span per
call: name, start, end, parent span and request id. ``uninstall`` puts every
original back. Nothing is installed unless a traced run asks for it.

A span's self time is its duration minus the durations of its direct
children; summed over all spans this equals the duration of the root spans.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.request_ids: list[int] = []
        self.request_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- installation

    def wrap(self, owner, attr: str, name: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``. ``before(args)`` runs ahead of the span (it may set
        ``request_id``); ``after(args, result)`` runs once it has ended."""
        orig = getattr(owner, attr)
        names, starts, ends = self.names, self.starts, self.ends
        parents, rids, stack = self.parents, self.request_ids, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            rids.append(self.request_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = orig(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        self._installed.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span (for functions called
        so often that a span would distort their caller's time)."""
        orig = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        self._installed.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    @property
    def installed(self) -> bool:
        return bool(self._installed)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)

    # -- summaries

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, total self seconds)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, d, s in zip(self.names, self.durations(), self.self_times()):
            row = out[name]
            row[0] += 1
            row[1] += d
            row[2] += s
        return {k: tuple(v) for k, v in out.items()}

    def self_by_layer(self) -> dict[str, float]:
        """Self seconds per layer, the layer being a span name's first part."""
        out: dict[str, float] = defaultdict(float)
        for name, s in zip(self.names, self.self_times()):
            out[name.split(".", 1)[0]] += s
        return dict(out)

    def root_seconds(self) -> float:
        return sum(e - s for s, e, p in zip(self.starts, self.ends,
                                            self.parents) if p < 0)

    def write_jsonl(self, path, origin: float) -> None:
        """One JSON object per span, times in microseconds from ``origin``."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name,
                    "start_us": round((self.starts[i] - origin) * 1e6, 1),
                    "end_us": round((self.ends[i] - origin) * 1e6, 1),
                    "parent": self.parents[i],
                    "request": self.request_ids[i]}) + "\n")
