"""Traced replay: per-layer spans recorded from the benchmark's own files.

The program itself is not instrumented.  Instead, the traced run
replays a workload's inputs through the layers' public functions, one
call per span, in the order the server (or a campaign unit) makes them.
Each span records its name, start, end, parent span and request id; the
spans stay in memory and are written out once, at exit.

The same replay runs once without spans (:class:`NullSpans`), so the
cost of recording them is measured rather than guessed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

__all__ = ["NullSpans", "Spans"]


class Spans:
    """In-memory span log: ``[name, start, end, parent, request_id]``."""

    enabled = True

    def __init__(self) -> None:
        self.records: List[list] = []

    def open(self, name: str, rid: str, parent: Optional[int] = None) -> int:
        self.records.append([name, perf_counter(), 0.0, parent, rid])
        return len(self.records) - 1

    def close(self, index: int) -> None:
        self.records[index][2] = perf_counter()

    def call(
        self,
        name: str,
        rid: str,
        parent: Optional[int],
        fn: Callable,
        *args,
        **kwargs,
    ):
        """Run ``fn(*args, **kwargs)`` inside one span; return its result."""
        start = perf_counter()
        result = fn(*args, **kwargs)
        self.records.append([name, start, perf_counter(), parent, rid])
        return result

    def durations(self, name: str) -> List[float]:
        """Every duration (seconds) recorded under ``name``."""
        return [end - start for n, start, end, _, _ in self.records if n == name]

    def median_us(self, name: str) -> float:
        values = self.durations(name)
        return statistics.median(values) * 1e6 if values else 0.0

    def by_request(self, names) -> Dict[str, float]:
        """Per request id: summed duration (seconds) of spans in ``names``."""
        wanted = set(names)
        sums: Dict[str, float] = {}
        for name, start, end, _, rid in self.records:
            if name in wanted:
                sums[rid] = sums.get(rid, 0.0) + (end - start)
        return sums

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "request_id"],
                    "spans": self.records,
                },
                handle,
            )


class NullSpans:
    """The same calls with nothing recorded (the untraced replay)."""

    enabled = False

    def open(self, name: str, rid: str, parent: Optional[int] = None) -> int:
        return -1

    def close(self, index: int) -> None:
        pass

    def call(self, name, rid, parent, fn, *args, **kwargs):
        return fn(*args, **kwargs)
