"""Clock and order statistics shared by the harness modules."""

from __future__ import annotations

import statistics
import time


def now_ms() -> float:
    return time.perf_counter_ns() / 1e6


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median, third quartile (all equal for one sample)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def stat(values: list[float], value: float | None = None) -> dict:
    """A metric as the median of its samples, with quartiles and count."""
    q1, q2, q3 = quartiles(values)
    return {"value": q2 if value is None else value,
            "q1": q1, "q3": q3, "n": len(values)}
