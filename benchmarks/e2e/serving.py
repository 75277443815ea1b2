"""``serve_mixed``: an open-loop load generator in front of ``QueryServer``.

Independent users do not wait for each other, so requests are sent on a
seeded schedule whatever the server's state, and each latency runs **from
the request's due time** to the moment its serialized answer exists — a
stall is charged to every request queued behind it.  How late the generator
itself ran is reported next to the latencies.

What the open loop can carry in this 2-core sandbox was measured before the
metrics were fixed (README "Calibration"): the completion rate of a sustained
window repeats to 1 %, so the untraced run gates ``sustained_qps``; the
latency percentiles of a few hundred requests do not — their median moved by
a third between two sets of ten runs, with the load on the neighbouring core
— so ``lat_p50_ms`` / ``lat_p95_ms`` of ``serve_mixed`` are read from the
closed-loop passes through the server, like every other workload's.  The
untraced windows also run without the writer: with one commit a second
invalidating every cached plan and subplan, the tail of a few-second window
is set by which requests happen to follow a commit and differs by 50-70 %
from seed to seed.  The traced run keeps the issue's layout — writer and all —
and reports the open-loop percentiles per window (``server.lat_p95_ms.r*``,
``server.lat_p99_ms``, ``server.writer_commit_ms``), ungated.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .stats import percentile
from .workloads import (LAT_P95_LIMIT_MS, NOTES, RATE_FACTORS, RATE_MID,
                        WINDOW_SHARES, WRITER_PERIOD_S, apply_txn, arrivals,
                        notes_txn_plan)

#: a request not answered this long after the window closed counts as failed
DRAIN_TIMEOUT_S = 60.0
#: share of the main phase spent on closed-loop passes over the templates
#: (``pass_ms``, ``query_geomean_ms``, ``lat_p50_ms``, ``lat_p95_ms``)
CLOSED_SHARE = 0.2
#: index of the ``rate_mid`` window, where the gated percentiles are read
MID = RATE_FACTORS.index(1.0)


@dataclass
class Window:
    """What one fixed-rate window observed."""

    rate: float
    latencies_ms: list[float] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)
    failed: int = 0
    backlog_mid: int = 0
    backlog_end: int = 0
    wall_s: float = 0.0

    @property
    def p95_ms(self) -> float:
        return percentile(self.latencies_ms, 95) if self.latencies_ms \
            else float("inf")

    @property
    def sustained(self) -> bool:
        """Meets the latency limit with no failure and no growing backlog:
        no more in flight at the end than at the midpoint, give or take 2
        plus a tenth of a second of arrivals."""
        return (self.failed == 0 and self.p95_ms <= LAT_P95_LIMIT_MS
                and self.backlog_end <= self.backlog_mid + 2 + self.rate / 10)

    @property
    def achieved_qps(self) -> float:
        return len(self.latencies_ms) / self.wall_s


def run_window(server, requests, rate: float, rec) -> Window:
    """Send ``requests`` at their due times; wait for every answer."""
    window = Window(rate)
    lock = threading.Lock()
    drained = threading.Event()
    answers: list[tuple[str, str]] = []
    inflight = 0
    pending = len(requests)
    last_end = start = time.perf_counter_ns() + 20_000_000

    def done(request, due_ns, future) -> None:
        # runs on the worker thread: the answer counts once it is text
        nonlocal inflight, pending, last_end
        try:
            text, error = future.result().serialize(), None
        except Exception as exc:
            text, error = None, exc
        end = time.perf_counter_ns()
        with lock:
            inflight -= 1
            pending -= 1
            if pending < 0:             # answered after the drain timeout
                return
            last_end = end
            if error is None:
                window.latencies_ms.append((end - due_ns) / 1e6)
                answers.append((request.label, text))
            else:
                window.failed += 1
                rec.error(request.label, error)
            if pending == 0:
                drained.set()

    middle = len(requests) // 2
    for index, request in enumerate(requests):
        due_ns = start + int(request.due_s * 1e9)
        delay = (due_ns - time.perf_counter_ns()) / 1e9
        if delay > 0:
            time.sleep(delay)
        window.lags_ms.append(
            max(0.0, (time.perf_counter_ns() - due_ns) / 1e6))
        with lock:
            inflight += 1
            if index == middle:
                window.backlog_mid = inflight
        future = server.submit(request.text, context=request.context)
        future.add_done_callback(
            lambda f, r=request, d=due_ns: done(r, d, f))
    with lock:
        window.backlog_end = inflight
    if not drained.wait(DRAIN_TIMEOUT_S):
        with lock:
            late, pending = pending, 0
        window.failed += late
        for _ in range(late):
            rec.error("timeout", TimeoutError("request not answered"))
    with lock:
        window.wall_s = (last_end - start) / 1e9
        answers = list(answers)
    for label, text in answers:         # digests are checked off the clock
        rec.check(label, text)
    return window


class Writer(threading.Thread):
    """A second client committing one small transaction on ``notes.xml``
    every second; each commit bumps the store version and so invalidates
    every cached plan and subplan."""

    def __init__(self, server, rec):
        super().__init__(name="e2e-writer", daemon=True)
        self.server, self.rec = server, rec
        self.stop = threading.Event()
        self.commit_ms: list[float] = []

    def run(self) -> None:
        index = 0
        while not self.stop.wait(WRITER_PERIOD_S):
            start = time.perf_counter_ns()
            try:
                with self.server.update(NOTES) as updater:
                    apply_txn(updater, notes_txn_plan(index))
                    edited = time.perf_counter_ns()
            except Exception as exc:
                self.rec.error("writer", exc)
                continue
            end = time.perf_counter_ns()
            self.rec.attempt("writer")
            self.commit_ms.append((end - edited) / 1e6)
            index += 1


def open_loop(server, seed: int, scale: float, rec, seconds: float,
              with_writer: bool) -> tuple[list[Window], Writer | None]:
    """The four fixed-rate windows, lowest rate first, each drained before
    the next starts so an overloaded window cannot tax its successor."""
    writer = Writer(server, rec) if with_writer else None
    if writer:
        writer.start()
    windows = []
    try:
        for factor, share in zip(RATE_FACTORS, WINDOW_SHARES):
            rate = RATE_MID * factor
            requests = arrivals(seed, scale, rate, seconds * share)
            windows.append(run_window(server, requests, rate, rec))
    finally:
        if writer:
            writer.stop.set()
            writer.join(DRAIN_TIMEOUT_S)
    return windows, writer


def sustained_qps(windows: list[Window]) -> float:
    """Completion rate of the highest rate that, like every lower one, was
    sustained.  When not even the lowest was, half its completion rate: a
    number below every step, so the regression still shows."""
    best = None
    for window in windows:
        if not window.sustained:
            break
        best = window
    return best.achieved_qps if best else windows[0].achieved_qps / 2
