"""The traced run: per-layer metrics, measured from outside the program.

The harness records a span ``(name, start_ns, end_ns, parent, op_id)``
around each call it makes into a layer's public function; a layer's busy
time is its spans' self time (duration minus children).  ``prepare()`` is
unrolled into its public stages here, and execution runs under the
program's own ``relational.explain.capture()`` so operator counts come from
its existing trace.  Spans inside ``src/`` are a later issue.

Every layer function is imported behind a guard: when a later PR merges or
removes one, its metrics become ``None`` with the reason instead of crashing
the benchmark.
"""

from __future__ import annotations

import importlib
import json
import shutil
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro import (MonetXQuery, PreparedQuery, QueryResult, QueryServer,
                   XMLUpdater)

from . import serving
from .harness import (REOPEN_QUERY, Context, EngineSession, Recorder, RunPlan,
                      ServerSession, run_ops, tree_bytes)
from .schema import declared
from .stats import now_ms, percentile
from .workloads import (DOC, SERVER_PROCESSES, SERVER_THREADS, WORKLOADS,
                        XMARK_QUERIES, Workload, apply_txn, arrivals,
                        documents, generate_document, ops, txn_plan)

PROBE_REPEATS = 2
TRACED_PASSES = 3
#: open-loop time of the traced server section (four windows, one writer)
SERVER_WINDOWS_S = 4.0
BURST_S = 0.5

PROBES = {
    "staircase.descendant_probe_ms": "count(/site//item)",
    "staircase.child_chain_probe_ms":
        "count(/site/people/person/profile/interest)",
    "staircase.boxing_probe_ms": "/site//item/name",
    "xquery.joins.eq_probe_ms":
        "count(for $p in /site/people/person, "
        "$t in /site/closed_auctions/closed_auction "
        "where $t/buyer/@person = $p/@id return $t)",
    "xquery.joins.theta_probe_ms":
        "count(for $p in /site/people/person, "
        "$i in /site/open_auctions/open_auction/initial "
        "where $p/profile/@income > 5000 * exactly-one($i/text()) return $i)",
    "xquery.constructors.copy_probe_ms":
        "for $i in /site/regions//item return <c>{$i}</c>",
    "relational.sorting.orderby_probe_ms":
        "count(for $b in /site/regions//item let $k := $b/name/text() "
        "order by zero-or-one($b/location) ascending return $k)",
}
STAIRCASE_PROBES = [name for name in PROBES if name.startswith("staircase.")]
BOXING_PROBE = "staircase.boxing_probe_ms"      # returns nodes, not a count


def guarded(module: str, name: str):
    """``(function, None)`` or ``(None, reason)``."""
    try:
        return getattr(importlib.import_module(module), name), None
    except (ImportError, AttributeError) as exc:
        return None, f"{module}.{name} is gone ({type(exc).__name__})"


class Tracer:
    """Spans in memory, written out when the benchmark ends."""

    def __init__(self):
        self.spans: list[list] = []         # name, start, end, parent, op_id
        self._stack: list[int] = []
        self.op_id = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        if not self._stack:
            self.op_id += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def self_ms(self, first: int = 0, last: int | None = None
                ) -> dict[str, float]:
        """Self time per span name over ``spans[first:last]``."""
        spans = self.spans[first:last]
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= first:
                own[parent - first] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), ns in zip(spans, own):
            totals[name] = totals.get(name, 0.0) + ns / 1e6
        return totals

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op_id")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


class LayeredEngine(EngineSession):
    """An engine whose ``run`` goes through the pipeline stage by stage,
    each under a span, with its own plan table standing in for the
    engine's plan cache."""

    STAGES = (("xquery.parser", "repro.xquery.parser", "parse"),
              ("xquery.planner", "repro.xquery.planner", "plan_module"),
              ("relational.cardinality", "repro.relational.cardinality",
               "StoreStatistics"),
              ("relational.rewrites", "repro.relational.rewrites", "optimize"),
              ("xquery.codegen", "repro.xquery.codegen", "compile_plan"))

    def __init__(self, tracer: Tracer, engine: MonetXQuery):
        self.engine = engine
        self.tracer = tracer
        self.traced = True              # off: the plain engine.query() path
        self.plans: dict[str, PreparedQuery] = {}
        self.counts: dict[str, float] = {}
        self.absent: dict[str, str] = {}
        self.fn = {}
        for layer, module, name in self.STAGES:
            self.fn[layer], reason = guarded(module, name)
            if reason:
                self.absent[layer] = reason
        self.capture, reason = guarded("repro.relational.explain", "capture")
        if reason:
            self.absent["capture"] = reason
        self.serialize, reason = guarded("repro.xml.serializer",
                                         "serialize_sequence")
        if reason:
            self.absent["xml.serializer"] = reason

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def forget_plans(self) -> None:
        self.plans.clear()
        super().forget_plans()

    @contextmanager
    def update(self, name: str):
        with super().update(name) as updater:
            yield updater
        self.plans.clear()              # a commit invalidates every plan

    def prepare(self, text: str) -> PreparedQuery:
        span, fn, options = self.tracer.span, self.fn, self.engine.options
        if not any(layer in self.absent for layer, _, _ in self.STAGES):
            try:
                with span("xquery.parser"):
                    module = fn["xquery.parser"](text)
                with span("xquery.planner"):
                    plan = fn["xquery.planner"](module)
                with span("relational.cardinality"):
                    statistics_ = fn["relational.cardinality"].from_store(
                        self.engine.store)
                with span("relational.rewrites"):
                    optimized = fn["relational.rewrites"](
                        plan, options, statistics=statistics_)
                with span("xquery.codegen"):
                    compiled = fn["xquery.codegen"](optimized, options)
                prepared = PreparedQuery(text=text, plan=optimized,
                                         options=options, engine=self.engine,
                                         compiled=compiled)
            except (TypeError, AttributeError) as exc:
                # a stage changed its signature: time prepare() as one span
                self.absent.update({layer: f"stage API changed ({exc})"
                                    for layer, _, _ in self.STAGES})
            else:
                self.add("xquery.parser.queries", 1)
                self.add("xquery.planner.plan_nodes",
                         sum(len(list(r.walk())) for r in plan.roots()))
                self.add("relational.rewrites.plan_nodes_after",
                         sum(len(list(r.walk())) for r in optimized.roots()))
                self.add("relational.rewrites.rules_fired",
                         len(optimized.report.entries))
                self.add("xquery.codegen.closures", compiled.compiled_count)
                self.add("xquery.codegen.fallbacks", len(compiled.fallbacks))
                return prepared
        with span("prepare"):
            return self.engine.prepare(text)

    def run(self, text: str, context: str | None = None) -> str:
        if not self.traced:
            return super().run(text, context)
        self.engine.reset_transient()
        with self.tracer.span("op"):
            prepared = self.plans.get(text)
            if prepared is None:
                prepared = self.plans[text] = self.prepare(text)
            with self.tracer.span("xquery.compiler"):
                if self.capture:
                    with self.capture() as trace:
                        result = prepared.run(context=context)
                    self.absorb(trace)
                else:
                    result = prepared.run(context=context)
            self.add("xquery.compiler.items_out", len(result.items))
            with self.tracer.span("xml.serializer"):
                out = (self.serialize(result.items) if self.serialize
                       else result.serialize())
            self.add("xml.serializer.bytes_out", len(out.encode()))
        return out

    def absorb(self, trace) -> None:
        """Fold the program's own operator trace into the layer counts."""
        prefix = "xquery.compiler."
        for entry in trace.entries:
            if entry.operator in ("step", "join", "sort"):
                self.add(f"{prefix}{entry.operator}.calls", 1)
            if entry.operator == "step":
                self.add(prefix + "step.rows_out", entry.rows_out)
            elif entry.operator == "join":
                self.add(prefix + "join.rows_in", entry.rows_in)
                self.add(prefix + "join.rows_out", entry.rows_out)
            elif entry.algorithm == "plan.codegen":
                self.add(prefix + "codegen.fallback_calls", entry.rows_out)
        for key, algorithm in (("step.chain_fused", "step.chain-fused"),
                               ("step.item_pruned", "step.item-pruned"),
                               ("join.wcoj", "join.wcoj"),
                               ("sort.skipped", "sort.skipped"),
                               ("subplan.hits", "plan.subplan.hit"),
                               ("subplan.materialized",
                                "plan.subplan.materialize")):
            self.add(prefix + key, trace.count(algorithm))


# --------------------------------------------------------------------------- #
# the stages of the traced run
# --------------------------------------------------------------------------- #
def trace_load(ctx: Context, tracer: Tracer, m: dict) -> MonetXQuery:
    """Parser, shredder and persistence, each behind its own span."""
    text = ctx.docs[DOC]
    megabytes = len(text.encode()) / 1e6
    parse_events, reason = guarded("repro.xml.parser", "parse_events")
    parser_ms = 0.0
    if parse_events:
        start = now_ms()
        with tracer.span("xml.parser"):
            events = sum(1 for _ in parse_events(text))
        parser_ms = now_ms() - start
        m["xml.parser.busy_ms"] = parser_ms
        m["xml.parser.events"] = events
        m["xml.parser.mb_per_s"] = megabytes / (parser_ms / 1e3)
    else:
        ctx.notes.append(reason)
    engine = MonetXQuery()
    start = now_ms()
    with tracer.span("load_document_text"):
        container = engine.load_document_text(text, DOC)
    load_ms = now_ms() - start
    for name, other in ctx.docs.items():
        if name != DOC:
            engine.load_document_text(other, name)
    # load_document_text parses inside, so the shredder's share is what is
    # left after the separately timed parser drain
    m["xml.shredder.self_ms"] = load_ms - parser_ms
    nodes = getattr(container, "node_count", None)
    if nodes is not None:
        m["xml.shredder.nodes"] = nodes
        m["xml.shredder.nodes_per_s"] = nodes / (load_ms / 1e3)

    ctx.store = ctx.workdir / "store"
    start = now_ms()
    with tracer.span("storage.persist.save"):
        engine.save_store(ctx.store)
    m["storage.persist.save_ms"] = now_ms() - start
    m["storage.persist.bytes_written"] = tree_bytes(ctx.store)
    m["storage.persist.files"] = sum(
        1 for f in ctx.store.rglob("*") if f.is_file())
    for backend in ("mmap", "ram"):
        start = now_ms()
        with tracer.span(f"storage.persist.open_{backend}"):
            MonetXQuery(store_path=ctx.store,
                        store_backend=backend).query(REOPEN_QUERY)
        m[f"storage.persist.open_{backend}_ms"] = now_ms() - start
    return engine


def shredder_scale_ratio(plan: RunPlan) -> float:
    """Shred MB/s on a five times larger document ÷ MB/s on the smaller
    one, one shot each: 1.0 means load time grows linearly with size."""
    small, large = (0.02, 0.1) if plan.scale is None \
        else (plan.scale, plan.scale * 5)
    rates = []
    for scale in (large, small):
        text = generate_document(scale, plan.seed)
        start = now_ms()
        MonetXQuery().load_document_text(text, DOC)
        rates.append(len(text.encode()) / (now_ms() - start))
    return rates[0] / rates[1]


def trace_passes(ctx: Context, layered: LayeredEngine, rec: Recorder,
                 m: dict) -> float:
    """Alternate untraced and traced passes over the workload's ops; the
    counts and self times come from the first traced pass, so they repeat
    exactly, and the difference of the medians is the tracing overhead.
    Returns the length of that first traced pass in ms."""
    tracer = layered.tracer
    layered.traced = False
    run_ops(layered, ctx.ops, rec)         # warm-up
    plain_ms, traced_ms, first = [], [], None
    for _ in range(TRACED_PASSES):
        for layered.traced, times in ((False, plain_ms), (True, traced_ms)):
            if ctx.workload.adhoc:
                layered.forget_plans()
            begin = len(tracer.spans)
            times.append(run_ops(layered, ctx.ops, rec))
            if layered.traced and first is None:
                first = (begin, len(tracer.spans), dict(layered.counts))
    begin, end, counts = first
    own = tracer.self_ms(begin, end)
    for layer, _, _ in LayeredEngine.STAGES:
        if layer in own:
            m[f"{layer}.busy_ms"] = own[layer]
    m["xquery.compiler.busy_ms"] = own.get("xquery.compiler")
    m["xml.serializer.busy_ms"] = own.get("xml.serializer")
    m.update(counts)
    for name in declared(1):            # operators that never ran count 0
        if name.startswith("xquery.compiler.") and name not in m:
            m[name] = 0
    m["xml.serializer.mb_per_s"] = (
        counts.get("xml.serializer.bytes_out", 0) / 1e6
        / (own["xml.serializer"] / 1e3))
    m["trace.overhead_share"] = (statistics.median(traced_ms)
                                 / statistics.median(plain_ms) - 1.0)
    return sum(own.values())


def trace_write_cycle(ctx: Context, tracer: Tracer, rec: Recorder,
                      m: dict) -> None:
    """One update transaction on a write-through copy of the store."""
    copy = ctx.workdir / "write"
    shutil.copytree(ctx.store, copy)
    try:
        engine = MonetXQuery(store_path=copy)
        plan = txn_plan(ctx.plan.seed, ctx.scale, 0)
        start = now_ms()
        with tracer.span("storage.updatable.open"):
            updater = XMLUpdater(engine, DOC)
        opened = now_ms()
        with tracer.span("storage.updatable.edits"):
            touched = apply_txn(updater, plan)
        edited = now_ms()
        with tracer.span("storage.updatable.commit"):
            updater.commit()
        m["storage.updatable.open_ms"] = opened - start
        m["storage.updatable.edits_ms"] = edited - opened
        m["storage.updatable.commit_ms"] = now_ms() - edited
        for field, count in touched.items():
            m["storage.updatable." + field] = count
        rec.attempt("update_txn")
    except Exception as exc:
        rec.error("update_txn", exc)
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def probe(engine: MonetXQuery, text: str, serialize: bool):
    """Warm median ms of one query on the workload's document."""
    times, result = [], None
    for attempt in range(PROBE_REPEATS + 1):
        engine.reset_transient()
        start = now_ms()
        result = engine.query(text)
        if serialize:
            result.serialize()
        if attempt:                                 # the first run warms up
            times.append(now_ms() - start)
    return statistics.median(times), result


def run_probes(ctx: Context, engine: MonetXQuery, rec: Recorder,
               m: dict) -> None:
    """Kernels are measured through probe queries, never by calling them."""
    capture, _ = guarded("repro.relational.explain", "capture")
    scanned = results = 0
    for name, text in PROBES.items():
        try:
            m[name], result = probe(engine, text, serialize=False)
        except Exception as exc:
            rec.error(name, exc)
            continue
        rec.attempt(name)
        if name in STAIRCASE_PROBES and result.step_stats is not None:
            # useful outcomes are the nodes the probe found (the pushdown
            # kernels do not fill step_stats.results)
            scanned += result.step_stats.nodes_scanned
            results += (len(result.items) if name == BOXING_PROBE
                        else result.items[0])
        if name == "xquery.constructors.copy_probe_ms":
            copied = getattr(engine.transient, "node_count", None)
            if copied is not None:
                m["xquery.constructors.nodes_copied"] = copied
                m["xquery.constructors.nodes_copied_per_s"] = \
                    copied / (m[name] / 1e3)
        if name == "xquery.joins.eq_probe_ms" and capture:
            with capture() as trace:
                engine.query(text)
            joins = [e for e in trace.entries if e.operator == "join"]
            rows_in = sum(e.rows_in for e in joins)
            if rows_in:
                m["xquery.joins.rows_out_per_row_in"] = \
                    sum(e.rows_out for e in joins) / rows_in
    m["staircase.nodes_scanned"] = scanned
    m["staircase.results"] = results
    if results:
        m["staircase.scanned_per_result"] = scanned / results
    for number, text in XMARK_QUERIES.items():
        try:
            m[f"xquery.engine.q{number:02d}_ms"], _ = probe(engine, text, True)
            rec.attempt(f"probe:q{number:02d}")
        except Exception as exc:
            rec.error(f"probe:q{number:02d}", exc)
    items = engine.query("/site/regions").items
    start = now_ms()
    size = len(QueryResult(items, 0.0, None).serialize().encode())
    m["xml.serializer.large_probe_mb_per_s"] = \
        size / 1e6 / ((now_ms() - start) / 1e3)


def closed_burst(server, requests, seconds: float) -> float:
    """Completions per second of two closed-loop clients."""
    deadline = time.monotonic() + seconds
    done = [0, 0]

    def client(slot: int) -> None:
        for request in requests[slot::2]:
            if time.monotonic() > deadline:
                return
            server.submit(request.text,
                          context=request.context).result(60).serialize()
            done[slot] += 1

    start = time.monotonic()
    clients = [threading.Thread(target=client, args=(slot,))
               for slot in (0, 1)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    return sum(done) / (time.monotonic() - start)


def trace_server(plan: RunPlan, rec: Recorder, m: dict, notes: list) -> None:
    """The serving layer at ``serve_mixed``'s sizing: the open-loop windows
    with a writer committing every second and the server's own counters,
    then closed-loop bursts in thread and process mode.

    Every workload's traced run does this on ``serve_mixed``'s documents,
    because a run has to emit every declared per-layer metric as measured;
    only there do the numbers describe the workload itself."""
    serve = WORKLOADS["serve_mixed"]
    scale = plan.scale_of(serve)
    docs = documents(serve, plan.seed, scale)
    session = ServerSession()
    try:
        for name, text in docs.items():
            session.load(text, name)
        run_ops(session, ops(serve, plan.seed, scale), rec)
        windows, writer = serving.open_loop(
            session.server, plan.seed, scale, rec,
            SERVER_WINDOWS_S if plan.scale is None else 1.0, with_writer=True)
        if writer.commit_ms:
            m["server.writer_commit_ms"] = statistics.median(writer.commit_ms)
        stats = session.server.stats()
        m["server.plan_hits"] = stats.plan_cache.hits
        m["server.plan_misses"] = stats.plan_cache.misses
        m["server.plan_evictions"] = stats.plan_cache.evictions
        m["server.subplan_hits"] = stats.subplan_cache.hits
        m["server.subplan_misses"] = stats.subplan_cache.misses
        lookups = stats.subplan_cache.hits + stats.subplan_cache.misses
        if lookups:
            m["server.subplan_hit_rate"] = stats.subplan_cache.hits / lookups
        for index, window in enumerate(windows, start=1):
            m[f"server.lat_p95_ms.r{index}"] = window.p95_ms
            m[f"server.backlog_end.r{index}"] = window.backlog_end
        m["server.lat_p99_ms"] = percentile(
            windows[serving.MID].latencies_ms, 99)
        m["server.generator_lag_p95_ms"] = percentile(
            [lag for w in windows for lag in w.lags_ms], 95)
        requests = arrivals(plan.seed, scale, 2000.0, 1.0)
        m["server.threads_closed_qps"] = closed_burst(session.server, requests,
                                                      BURST_S)
    finally:
        session.close()
    try:
        server = QueryServer(processes=SERVER_PROCESSES,
                             threads=SERVER_THREADS)
    except Exception as exc:
        notes.append(f"process mode unavailable: {exc}")
        return
    try:
        for name, text in docs.items():
            server.load_document_text(text, name)
        closed_burst(server, requests[:20], 30.0)           # start the workers
        m["server.procs_closed_qps"] = closed_burst(server, requests, BURST_S)
    except Exception as exc:
        notes.append(f"process mode failed: {type(exc).__name__}: {exc}")
    finally:
        server.close()                  # also unlinks the shared segments


def measure_layers(workload: Workload, plan: RunPlan, rec: Recorder,
                   workdir: Path, out: Path) -> tuple[dict, list[str]]:
    """The traced run: every per-layer metric this workload exercises."""
    scale = plan.scale_of(workload)
    ctx = Context(workload, plan, workdir,
                  docs=documents(workload, plan.seed, scale),
                  ops=ops(workload, plan.seed, scale))
    tracer = Tracer()
    m: dict[str, float] = {}
    try:
        engine = trace_load(ctx, tracer, m)
        m["xml.shredder.scale_ratio"] = shredder_scale_ratio(plan)
        layered = LayeredEngine(tracer, engine)
        pass_ms = trace_passes(ctx, layered, rec, m)
        ctx.notes += [f"{layer}: {why}" for layer, why in
                      layered.absent.items()]
        trace_write_cycle(ctx, tracer, rec, m)
        run_probes(ctx, engine, rec, m)
        if plan.scale is None or workload.kind == "serve":
            # its answers are another document's: keep them out of this
            # workload's reference digests, but count them
            server_rec = rec if workload.kind == "serve" else Recorder()
            trace_server(plan, server_rec, m, ctx.notes)
            if server_rec is not rec:
                rec.attempted += server_rec.attempted
                rec.failed += server_rec.failed
                rec.failures += server_rec.failures
    finally:
        tracer.write(out / f"spans-{workload.name}.jsonl")
    m["trace.spans"] = len(tracer.spans)
    ctx.notes.append(
        f"traced pass {pass_ms:.1f} ms; share of it per layer (self time): "
        + ", ".join(f"{name[:-8]} {m[name] / pass_ms:.1%}"
                    for name in sorted(m) if name.endswith(".busy_ms")
                    and m[name] is not None and name != "xml.parser.busy_ms"))
    metrics = {}
    for name in declared(1):
        layer = name.rsplit(".", 1)[0]
        if m.get(name) is not None:
            metrics[name] = {"value": m[name]}
        elif layer in layered.absent:
            metrics[name] = {"value": None, "reason": layered.absent[layer]}
        elif name.startswith("server."):
            metrics[name] = {"value": None, "reason":
                             "--smoke runs the server section with "
                             "serve_mixed only"}
    return metrics, ctx.notes
