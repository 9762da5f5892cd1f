"""Small helpers shared by the workloads: statistics, memory, checks."""

from __future__ import annotations

import math
import resource
import statistics
from typing import Dict, List, Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


class Checks:
    """Verdicts of the output checks of one run.

    Each check is counted once per name; a failing check keeps its first
    failure detail, so the report names what broke.
    """

    def __init__(self) -> None:
        self.verdicts: Dict[str, bool] = {}
        self.details: Dict[str, str] = {}

    def expect(self, name: str, condition: bool, detail: str = "") -> bool:
        condition = bool(condition)
        if not condition and self.verdicts.get(name, True):
            self.details[name] = detail
        self.verdicts[name] = self.verdicts.get(name, True) and condition
        return condition

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def report(self) -> List[str]:
        lines = []
        for name, ok in self.verdicts.items():
            line = f"check {name}: {'pass' if ok else 'FAIL'}"
            if not ok:
                line += f" ({self.details[name]})"
            lines.append(line)
        return lines
