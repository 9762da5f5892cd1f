"""In-memory span recorder for the traced benchmark run.

Spans sit around calls into the program made by the benchmark's own files;
nothing inside ``repro`` is instrumented.  Each span records its name, start,
end, parent and the run id.  Spans are kept in memory and written out once,
when the run ends.  An untraced run uses a :class:`Tracer` built with
``enabled=False``, whose ``span`` is a no-op context manager.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
import uuid
from typing import Dict, List

#: Throwaway spans timed to estimate the cost of one recorded span.
OVERHEAD_SAMPLES = 2000


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: List[Dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = {"id": uuid.uuid4().hex[:16], "name": name,
                  "parent": stack[-1]["id"] if stack else None,
                  "run_id": self.run_id, "start": time.perf_counter(),
                  "end": None}
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> Dict[str, float]:
        """Per span id: its duration minus the part of it that its child
        spans cover."""
        children: Dict[str, List[Dict]] = {}
        for span in self.spans:
            children.setdefault(span["parent"], []).append(span)
        result = {}
        for span in self.spans:
            covered, reach = 0.0, span["start"]
            for child in sorted(children.get(span["id"], ()),
                                key=lambda c: c["start"]):
                start = max(child["start"], reach)
                if child["end"] > start:
                    covered += child["end"] - start
                    reach = child["end"]
            result[span["id"]] = span["end"] - span["start"] - covered
        return result

    def measure_overhead(self) -> float:
        """Seconds one recorded span costs, measured on throwaway spans."""
        probe = Tracer(enabled=True)
        started = time.perf_counter()
        for _ in range(OVERHEAD_SAMPLES):
            with probe.span("overhead-probe"):
                pass
        return (time.perf_counter() - started) / OVERHEAD_SAMPLES

    def write(self, path: str, extra: Dict) -> None:
        self_times = self.self_times()
        spans = [{**span, "self": self_times[span["id"]]}
                 for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "spans": spans, **extra},
                      handle)
