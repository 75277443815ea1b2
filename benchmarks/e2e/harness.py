"""Measure one workload inside one process (the CLI gives each its own).

A run is ``set-up × N`` (outside ``--seconds``) followed by three measured
phases that share ``--seconds``: the workload's **main** loop, **cold**
first passes in fresh engines reopened from the saved store, and **write**
cycles (reopen → update transaction → read-after-write).  Every workload
runs all three on its own document, so each end-to-end metric is defined
for each workload — at the document size and query set that workload has.

Only the facade named in README "Stability rule" is used here.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import shutil
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro import MonetXQuery, QueryResult, QueryServer, XMLUpdater

from . import serving
from .stats import now_ms, percentile, stat
from .workloads import (DOC, ORACLE_SCALE, SERVER_THREADS, Workload,
                        apply_txn, documents, golden_extra, ops, txn_plan)

REOPEN_QUERY = "count(//item)"


@dataclass
class RunPlan:
    """How long and how often; the same on both sides of a comparison."""

    seed: int = 42
    seconds: float = 15.0
    scale: float | None = None       # overrides every workload scale (smoke)
    setups: int = 3
    min_main: int = 3
    min_cold: int = 3
    min_write: int = 3

    def scale_of(self, workload: Workload) -> float:
        return workload.scale if self.scale is None else self.scale


class Recorder:
    """Samples, op counts and the correctness ledger of one run."""

    def __init__(self, golden: dict[str, str] | None = None):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.op_ms: dict[str, list[float]] = defaultdict(list)
        self.main_ms: list[float] = []
        self.values: dict[str, float] = {}       # single-valued metrics
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: key -> SHA-256 of the serialized result; frozen when golden
        #: digests were loaded, otherwise the first answer seen is the
        #: reference and every later pass must repeat it bit for bit
        self.expected: dict[str, str] = dict(golden or {})
        self.frozen = golden is not None
        # server worker threads and the writer report into the same ledger
        self._lock = threading.Lock()

    def main(self, label: str, ms: float) -> None:
        self.op_ms[label].append(ms)
        self.main_ms.append(ms)

    def attempt(self, key: str, failure: str | None = None) -> None:
        """Count one attempted op; ``failure`` says why it failed, if so."""
        with self._lock:
            self.attempted += 1
            if failure is not None:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(f"{key}: {failure}")

    def error(self, key: str, exc: BaseException) -> None:
        self.attempt(key, f"{type(exc).__name__}: {exc}")

    def check(self, key: str, text: str) -> None:
        digest = hashlib.sha256(text.encode()).hexdigest()
        with self._lock:
            want = (self.expected.get(key) if self.frozen
                    else self.expected.setdefault(key, digest))
        self.attempt(key, None if want == digest else
                     "no golden digest" if want is None else
                     "serialized result differs from its reference")


# --------------------------------------------------------------------------- #
# the two ways a client reaches the program
# --------------------------------------------------------------------------- #
class EngineSession:
    """One ``MonetXQuery`` driven by one client."""

    def __init__(self, store_dir: Path | None = None, backend: str = "mmap"):
        self.engine = MonetXQuery(store_path=store_dir, store_backend=backend)

    def load(self, text: str, name: str) -> None:
        self.engine.load_document_text(text, name)

    def save(self, path: Path) -> None:
        self.engine.save_store(path)

    def run(self, text: str, context: str | None = None) -> str:
        # constructed nodes must not pile up from one op to the next
        self.engine.reset_transient()
        return self.engine.query(text, context=context).serialize()

    @contextmanager
    def update(self, name: str):
        updater = XMLUpdater(self.engine, name)
        yield updater
        updater.commit()

    def forget_plans(self) -> None:
        self.engine.clear_plan_cache()

    def close(self) -> None:
        self.engine = None


class ServerSession:
    """One ``QueryServer(threads=2)``; ``run`` is a closed-loop client."""

    def __init__(self, store_dir: Path | None = None, backend: str = "mmap"):
        self.server = QueryServer(threads=SERVER_THREADS, store_path=store_dir,
                                  store_backend=backend)

    def load(self, text: str, name: str) -> None:
        self.server.load_document_text(text, name)

    def save(self, path: Path) -> None:
        self.server.save_store(path)

    def run(self, text: str, context: str | None = None) -> str:
        return self.server.submit(text, context=context).result(60).serialize()

    def update(self, name: str):
        return self.server.update(name)

    def close(self) -> None:
        self.server.close()


def open_session(workload: Workload, store_dir: Path | None = None,
                 backend: str = "mmap"):
    cls = ServerSession if workload.kind == "serve" else EngineSession
    return cls(store_dir, backend)


@dataclass
class Context:
    """What set-up hands to the measured phases."""

    workload: Workload
    plan: RunPlan
    workdir: Path
    docs: dict[str, str]
    ops: list[tuple[str, str]]
    session: object = None
    store: Path | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def scale(self) -> float:
        return self.plan.scale_of(self.workload)


# --------------------------------------------------------------------------- #
# building blocks
# --------------------------------------------------------------------------- #
def run_ops(session, op_list, rec: Recorder, suffix: str = "",
            main: bool = False) -> float:
    """One pass over ``op_list``; returns the summed op latency in ms.

    The clock covers execution *and* serialization to text (what a user
    waits for); digest checking happens outside it."""
    gc.collect()            # start every pass from the same heap state; the
    total = 0.0             # collector itself stays enabled, as users run it
    for label, text in op_list:
        start = time.perf_counter_ns()
        try:
            out = session.run(text)
        except Exception as exc:        # a failed op must not end the run
            rec.error(label + suffix, exc)
            continue
        ms = (time.perf_counter_ns() - start) / 1e6
        total += ms
        if main:
            rec.main(label, ms)
        rec.check(label + suffix, out)
    return total


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def load_and_save(ctx: Context, session, store: Path, rec: Recorder,
                  main: bool = False) -> float:
    """Shred every document into ``session`` and persist the store."""
    total = 0.0
    for name, text in ctx.docs.items():
        start = now_ms()
        session.load(text, name)
        ms = now_ms() - start
        total += ms
        if name == DOC:
            rec.samples["load_mb_per_s"].append(
                len(text.encode()) / 1e6 / (ms / 1e3))
            if main:
                rec.main("load", ms)
    start = now_ms()
    session.save(store)
    ms = now_ms() - start
    if main:
        rec.main("save", ms)
    rec.samples["stored_bytes_per_input_byte"].append(
        tree_bytes(store) / sum(len(t.encode()) for t in ctx.docs.values()))
    return total + ms


def reopen(ctx: Context, store: Path, rec: Recorder, main: bool = False):
    """A new engine on a saved store (default mmap) to its first answer."""
    start = now_ms()
    session = open_session(ctx.workload, store)
    try:
        out = session.run(REOPEN_QUERY)
    except Exception:
        session.close()
        raise
    ms = now_ms() - start
    rec.samples["reopen_ms"].append(ms)
    if main:
        rec.main("reopen", ms)
    rec.check("reopen", out)
    return session, ms


def write_cycle(ctx: Context, store: Path, rec: Recorder,
                main: bool = False) -> float | None:
    """Reopen ``store`` write-through, then ``txns_per_cycle`` × (update
    transaction → the read set with every cache cold).  Consumes ``store``;
    returns the cycle's summed latency, ``None`` if the cycle failed.

    Every cycle starts from the same saved state and applies the same
    seeded transactions, so the answers after transaction *j* are the same
    in every cycle and are checked like any other result."""
    session = None
    try:
        session, total = reopen(ctx, store, rec, main)
        for index in range(ctx.workload.txns_per_cycle):
            plan = txn_plan(ctx.plan.seed, ctx.scale, index)
            start = now_ms()
            with session.update(DOC) as updater:
                apply_txn(updater, plan)
                edited = now_ms()
            done = now_ms()
            rec.attempt("update_txn")
            rec.samples["update_txn_ms"].append(done - start)
            rec.samples["commit_ms"].append(done - edited)
            read = run_ops(session, ctx.ops, rec, suffix=f"@w{index}")
            rec.samples["read_after_write_ms"].append(read)
            if main:
                rec.main("update_txn", done - start)
                rec.main("read_after_write", read)
            total += done - start + read
    except Exception as exc:            # a failed cycle must not end the run
        rec.error("write_cycle", exc)
        total = None
    finally:
        if session is not None:
            session.close()
        shutil.rmtree(store, ignore_errors=True)
    return total


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #
def oracle_check(workload: Workload, seed: int, rec: Recorder) -> str | None:
    """Engine vs. the baseline interpreter on every workload query at
    ``ORACLE_SCALE``.  Returns why it was skipped, or ``None`` when it ran."""
    try:
        from repro.baselines.interpreter import run_baseline
    except ImportError as exc:
        return f"baseline interpreter absent ({exc})"
    engine = MonetXQuery()
    for name, text in documents(workload, seed, ORACLE_SCALE).items():
        engine.load_document_text(text, name)
    checks = [(label, text, DOC)
              for label, text in ops(workload, seed, ORACLE_SCALE)]
    for label, text, context in checks + golden_extra(workload, ORACLE_SCALE):
        try:
            engine.reset_transient()
            got = engine.query(text, context=context).serialize()
            want = QueryResult(run_baseline(engine.store, text, context),
                               0.0, None).serialize()
        except Exception as exc:
            rec.error(f"oracle:{label}", exc)
            continue
        rec.attempt(f"oracle:{label}", None if got == want
                    else "engine and baseline interpreter disagree")
    return None


def set_up(workload: Workload, plan: RunPlan, rec: Recorder, workdir: Path,
           previous: Context | None = None) -> Context:
    """Everything before the first timed op, from the seed alone: generate
    the documents, shred, persist, reopen once, run one warm-up pass."""
    if previous is not None:
        previous.session.close()
        shutil.rmtree(previous.store, ignore_errors=True)
    scale = plan.scale_of(workload)
    ctx = Context(workload, plan, workdir,
                  docs=documents(workload, plan.seed, scale),
                  ops=ops(workload, plan.seed, scale))
    ctx.session = open_session(workload)
    ctx.store = workdir / "store"
    load_and_save(ctx, ctx.session, ctx.store, rec)
    reopen(ctx, ctx.store, rec)[0].close()
    run_ops(ctx.session, ctx.ops, rec)          # the warm-up pass
    return ctx


# --------------------------------------------------------------------------- #
# measured phases
# --------------------------------------------------------------------------- #
def _until(deadline_ms: float, minimum: int):
    """Yield pass numbers until the deadline, but at least ``minimum``."""
    count = 0
    while count < minimum or now_ms() < deadline_ms:
        yield count
        count += 1


def main_closed(ctx: Context, rec: Recorder, deadline_ms: float) -> None:
    for _ in _until(deadline_ms, ctx.plan.min_main):
        if ctx.workload.adhoc:
            ctx.session.forget_plans()      # every op a plan-cache miss
        rec.samples["pass_ms"].append(
            run_ops(ctx.session, ctx.ops, rec, main=True))


def main_lifecycle(ctx: Context, rec: Recorder, deadline_ms: float) -> None:
    for _ in _until(deadline_ms, ctx.plan.min_main):
        gc.collect()
        store = ctx.workdir / "cycle"
        session = open_session(ctx.workload)
        ms = load_and_save(ctx, session, store, rec, main=True)
        session.close()
        cycle = write_cycle(ctx, store, rec, main=True)
        if cycle is not None:
            rec.samples["pass_ms"].append(ms + cycle)


def main_serve(ctx: Context, rec: Recorder, deadline_ms: float):
    """Closed-loop passes over the templates through the server (what
    ``pass_ms`` and the latency percentiles are read from), then the
    open-loop windows (``sustained_qps``)."""
    begin = now_ms()
    closed_end = begin + (deadline_ms - begin) * serving.CLOSED_SHARE
    for _ in _until(closed_end, ctx.plan.min_main):
        rec.samples["pass_ms"].append(
            run_ops(ctx.session, ctx.ops, rec, main=True))
    windows, _ = serving.open_loop(
        ctx.session.server, ctx.plan.seed, ctx.scale, rec,
        max(1.0, (deadline_ms - now_ms()) / 1e3), with_writer=False)
    rec.values["sustained_qps"] = serving.sustained_qps(windows)
    rec.values["ops_per_s"] = (
        (len(rec.main_ms) + sum(len(w.latencies_ms) for w in windows))
        / (sum(rec.main_ms) / 1e3 + sum(w.wall_s for w in windows)))


def cold_phase(ctx: Context, rec: Recorder, deadline_ms: float) -> None:
    """First pass in a fresh engine on the set-up store, RAM backend:
    prepare + lazy index builds + execute + serialize."""
    for _ in _until(deadline_ms, ctx.plan.min_cold):
        session = open_session(ctx.workload, ctx.store, "ram")
        try:
            rec.samples["cold_pass_ms"].append(
                run_ops(session, ctx.ops, rec))
        finally:
            session.close()


def write_phase(ctx: Context, rec: Recorder, deadline_ms: float) -> None:
    for _ in _until(deadline_ms, ctx.plan.min_write):
        copy = ctx.workdir / "write"
        shutil.copytree(ctx.store, copy)
        write_cycle(ctx, copy, rec)


def golden_sweep(workload: Workload, plan: RunPlan, rec: Recorder) -> None:
    """``--regen-golden``: the answers a run may need but this one did not
    happen to ask for (which Q1 variants arrive depends on ``--seconds``)."""
    extra = golden_extra(workload, plan.scale_of(workload))
    if extra:
        session = open_session(workload)
        try:
            for name, text in documents(workload, plan.seed,
                                        plan.scale_of(workload)).items():
                session.load(text, name)
            for label, text, context in extra:
                rec.check(label, session.run(text, context))
        finally:
            session.close()


MAIN_PHASES = {"closed": main_closed, "lifecycle": main_lifecycle,
               "serve": main_serve}


def measure(workload: Workload, plan: RunPlan, rec: Recorder,
            workdir: Path) -> tuple[dict[str, dict], list[str]]:
    """The untraced run: every end-to-end metric, plus free-text notes."""
    notes = []
    started = now_ms()
    skipped = oracle_check(workload, plan.seed, rec)
    if skipped:
        notes.append(f"oracle check skipped: {skipped}")
    once_s = (now_ms() - started) / 1e3
    ctx = None
    try:
        for _ in range(plan.setups):
            started = now_ms()
            ctx = set_up(workload, plan, rec, workdir, ctx)
            rec.samples["setup_s"].append((now_ms() - started) / 1e3 + once_s)
        main_share, cold_share, write_share = workload.shares
        budget = plan.seconds * 1e3
        begin = now_ms()
        MAIN_PHASES[workload.kind](ctx, rec, begin + budget * main_share)
        # ops completed ÷ the time they took; one closed-loop client
        # sustains exactly that rate
        rec.values.setdefault("ops_per_s",
                              len(rec.main_ms) / (sum(rec.main_ms) / 1e3))
        rec.values.setdefault("sustained_qps", rec.values["ops_per_s"])
        cold_phase(ctx, rec, begin + budget * (main_share + cold_share))
        if write_share:
            write_phase(ctx, rec, begin + budget)
    finally:
        if ctx is not None:
            ctx.session.close()
    return summarize(rec), notes


# --------------------------------------------------------------------------- #
# the end-to-end metrics
# --------------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    """Peak resident set of this process plus its reaped children (the
    process-mode server's workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def summarize(rec: Recorder) -> dict[str, dict]:
    """Median, quartiles and sample count of every end-to-end metric."""
    out = {name: stat(rec.samples[name])
           for name in ("setup_s", "pass_ms", "cold_pass_ms", "load_mb_per_s",
                        "reopen_ms", "stored_bytes_per_input_byte",
                        "update_txn_ms", "read_after_write_ms", "commit_ms")}
    medians = [statistics.median(v) for v in rec.op_ms.values()]
    out["query_geomean_ms"] = {
        "value": math.exp(statistics.fmean(map(math.log, medians))),
        "n": len(medians)}
    out["lat_p50_ms"] = stat(rec.main_ms)
    out["lat_p95_ms"] = stat(rec.main_ms, percentile(rec.main_ms, 95))
    out["sustained_qps"] = {"value": rec.values["sustained_qps"]}
    out["ops_per_s"] = {"value": rec.values["ops_per_s"]}
    out["peak_rss_mb"] = {"value": peak_rss_mb()}
    return out
