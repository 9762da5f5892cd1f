"""HTTP load from one process: open-loop phases and a closed-loop phase.

Each connection is one thread with its own keep-alive
:class:`http.client.HTTPConnection`, so the process never holds more than
``connections`` threads and sockets.  In an open loop every request has a
due time fixed before the phase starts; latency is timed from that due time,
so a stall that delays later requests counts against them, and the
lateness of the generator (send time minus due time) is recorded.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

REQUEST_TIMEOUT_S = 30.0
JSON_HEADERS = {"Content-Type": "application/json"}


@dataclass
class Sample:
    phase: str
    cls: str
    body: bytes
    due: float
    sent: float
    done: float
    status: int
    answer: Optional[bytes]

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


def _post(connection: http.client.HTTPConnection, body: bytes
          ) -> Tuple[int, Optional[bytes]]:
    try:
        connection.request("POST", "/v1/select", body=body,
                           headers=JSON_HEADERS)
        response = connection.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        connection.close()
        return 0, None


def _run_threads(targets: Sequence[Callable[[], None]]) -> None:
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(REQUEST_TIMEOUT_S * 4)
        if thread.is_alive():
            raise RuntimeError("a load-generator connection did not finish")


def open_loop(host: str, port: int, phase: str, rate_per_connection: float,
              plans: Sequence[Sequence[Tuple[str, bytes]]],
              opening_burst: int = 1) -> List[Sample]:
    """Send ``plans[c]`` over connection ``c`` at a fixed per-connection
    rate; connections are offset by an equal share of one period.

    The first ``opening_burst`` requests of each connection are due at
    once, as from a client that has queued work when it connects; the rest
    follow the schedule.
    """
    connections = len(plans)
    period = 1.0 / rate_per_connection
    start = time.perf_counter() + 0.05
    samples: List[List[Sample]] = [[] for _ in plans]

    def drive(index: int) -> None:
        connection = http.client.HTTPConnection(host, port,
                                                timeout=REQUEST_TIMEOUT_S)
        offset = index * period / connections
        try:
            for slot, (cls, body) in enumerate(plans[index]):
                due = start + offset + max(0, slot - opening_burst + 1) * period
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                status, answer = _post(connection, body)
                samples[index].append(Sample(phase, cls, body, due, sent,
                                             time.perf_counter(), status,
                                             answer))
        finally:
            connection.close()

    _run_threads([lambda i=i: drive(i) for i in range(connections)])
    return [sample for per_connection in samples for sample in per_connection]


def closed_loop(host: str, port: int, callers: int, duration_s: float,
                make_body: Callable[[], bytes]) -> Tuple[List[Sample], float]:
    """``callers`` keep-alive callers, each sending its next request when
    the previous reply arrived, for ``duration_s``.  Returns the samples
    and the measured wall time of the phase."""
    samples: List[List[Sample]] = [[] for _ in range(callers)]
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + duration_s

    def drive(index: int) -> None:
        connection = http.client.HTTPConnection(host, port,
                                                timeout=REQUEST_TIMEOUT_S)
        try:
            while time.perf_counter() < stop_at:
                with lock:
                    body = make_body()
                sent = time.perf_counter()
                status, answer = _post(connection, body)
                samples[index].append(Sample("closed", "known", body, sent,
                                             sent, time.perf_counter(),
                                             status, answer))
        finally:
            connection.close()

    _run_threads([lambda i=i: drive(i) for i in range(callers)])
    elapsed = max(s.done for per in samples for s in per) - start
    return [s for per in samples for s in per], elapsed
