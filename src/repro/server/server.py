"""The concurrent query-serving layer.

MonetDB/XQuery's selling point is serving heavy repeated XQuery traffic on
a relational engine; :class:`QueryServer` is that serving layer for this
reproduction.  It turns the (thread-safe, but single-client-oriented)
:class:`~repro.xquery.engine.MonetXQuery` library into a multi-client
system:

* **concurrent clients** — queries are accepted from any thread
  (:meth:`QueryServer.execute`) or dispatched onto the server's worker
  pool (:meth:`QueryServer.submit` / :meth:`QueryServer.run_batch`),
* **shared prepared-plan cache** — all threads prepare through the
  engine's lock-guarded LRU, so a hot query text is parsed/planned/
  optimized once no matter which client sends it,
* **per-execution isolation** — every execution gets a private transient
  container for constructed nodes (immutable :class:`PreparedQuery` plans
  carry no execution state, so they are freely shared),
* **cross-query materialized subplan cache** — loop-invariant
  absolute-path subplans marked by the rewrite optimizer are materialised
  once and reused across queries and threads
  (:class:`~repro.server.subplan_cache.SubplanCache`),
* **serialized writers** — document loads/drops and update commits are
  funnelled through one mutation lock; each bumps the document store's
  schema version, which atomically invalidates both caches (their keys
  embed the version).

**Process-pool mode** (``QueryServer(processes=N)``) breaks the GIL bound
of the thread pool: the shredded document columns are exported once into
``multiprocessing.shared_memory`` segments
(:func:`repro.storage.persist.export_container_shared`) and a pool of
worker processes attaches them read-only by name — one physical copy of
the store, N independent interpreters.  Writers stay serialized in the
parent; every commit bumps the store version exactly as before, and the
next dispatch *republishes*: a fresh segment set for changed documents
plus a new catalog generation are swapped in atomically, readers in
flight keep the generation they were pinned to, and the old generation's
segments are unlinked only once its last reader epoch drains
(:class:`repro.concurrency.EpochTracker`).  Thread mode and process mode
return bit-identical results; process mode marshals them back as
:class:`~repro.server.procworker.RemoteQueryResult` (serialized XML +
stringified items — node surrogates cannot cross a process boundary).

The thread-safety contract: readers never block readers; writers are
serialized among themselves and atomic with respect to readers (a query
sees either the complete old or the complete new document state, never a
mix); every cached artifact is keyed on the schema version it was built
against.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Iterable, Iterator, Sequence

from ..concurrency import EpochTracker
from ..xquery.engine import (EngineOptions, MonetXQuery, PlanCacheStats,
                             PreparedQuery, QueryResult)
from ..xquery.updates import XMLUpdater
from . import procworker
from .procworker import RemoteQueryResult
from .subplan_cache import SubplanCache, SubplanCacheStats


@dataclass
class ServerStats:
    """A point-in-time snapshot of the server's serving state.

    All store-derived fields (``store_version``, ``documents``) come from
    one :meth:`DocumentStore.snapshot
    <repro.xml.document.DocumentStore.snapshot>` — a single lock
    acquisition — and the cache counters are copied under their own
    locks, so a stats call racing an update commit reports one consistent
    committed state, never an old document list next to a new version.
    """

    threads: int
    queries_served: int
    store_version: int
    documents: list[str] = field(default_factory=list)
    plan_cache: PlanCacheStats = field(default_factory=PlanCacheStats)
    subplan_cache: SubplanCacheStats = field(default_factory=SubplanCacheStats)
    subplan_entries: int = 0
    mode: str = "threads"
    processes: int = 0
    generation: int = 0
    live_segments: int = 0

    def render(self) -> str:
        workers = (f"processes={self.processes}" if self.mode == "processes"
                   else f"threads={self.threads}")
        shared = (f" gen={self.generation} segments={self.live_segments}"
                  if self.mode == "processes" else "")
        return (f"{workers} served={self.queries_served} "
                f"version={self.store_version}{shared} "
                f"plans[hit={self.plan_cache.hits} "
                f"miss={self.plan_cache.misses} "
                f"evict={self.plan_cache.evictions}] "
                f"subplans[hit={self.subplan_cache.hits} "
                f"miss={self.subplan_cache.misses} "
                f"entries={self.subplan_entries}]")


class QueryServer:
    """Serve XQuery traffic from concurrent clients over one engine.

        >>> server = QueryServer(threads=4)
        >>> server.load_document_text("<a><b/><b/></a>", name="doc.xml")
        >>> futures = [server.submit("count(//b)") for _ in range(8)]
        >>> [f.result().items for f in futures][0]
        [2]
        >>> server.close()

    The server can also wrap an existing engine (``QueryServer(engine)``),
    attaching a shared :class:`SubplanCache` to it unless it already has
    one.  Use it as a context manager to get deterministic shutdown.

    With ``processes=N`` the server additionally forks a pool of N worker
    processes that attach the document columns out of shared memory and
    execute independently of the parent's GIL; :meth:`submit` and
    :meth:`run_batch` dispatch onto that pool (results come back as
    :class:`RemoteQueryResult`), while :meth:`execute` still runs in the
    calling thread.  ``mp_context`` picks the multiprocessing start
    method (default: ``forkserver`` where available, else ``spawn`` —
    both are safe to combine with the parent's client threads).
    """

    def __init__(self, engine: MonetXQuery | None = None, *,
                 threads: int = 4, processes: int | None = None,
                 mp_context: str | None = None,
                 options: EngineOptions | None = None,
                 store_path: Any = None, store_backend: str = "mmap",
                 store_verify: bool | None = None,
                 plan_cache_size: int = 256, subplan_cache_size: int = 256):
        if engine is None:
            engine = MonetXQuery(options=options, store_path=store_path,
                                 store_backend=store_backend,
                                 store_verify=store_verify,
                                 plan_cache_size=plan_cache_size)
        elif store_path is not None:
            raise ValueError("pass either an engine or a store_path, not both")
        self.engine = engine
        if engine.subplan_cache is None and subplan_cache_size > 0:
            engine.subplan_cache = SubplanCache(subplan_cache_size)
        self.subplan_cache: SubplanCache | None = engine.subplan_cache
        self.threads = threads
        self.processes = processes
        self._pool = ThreadPoolExecutor(max_workers=threads,
                                        thread_name_prefix="repro-serve")
        self._proc_pool: ProcessPoolExecutor | None = None
        if processes is not None:
            if processes <= 0:
                raise ValueError("processes must be a positive worker count")
            start_method = mp_context
            if start_method is None:
                available = multiprocessing.get_all_start_methods()
                start_method = ("forkserver" if "forkserver" in available
                                else "spawn")
            self._proc_pool = ProcessPoolExecutor(
                max_workers=processes,
                mp_context=multiprocessing.get_context(start_method))
        # reentrant: a writer inside an update() block may load/drop too
        self._mutation_lock = threading.RLock()
        self._served = 0
        self._served_lock = threading.Lock()
        # close() must be idempotent and race-free against submit()
        self._lifecycle_lock = threading.Lock()
        self._closed = False
        # shared-memory publication state (process mode), all guarded by
        # the reentrant publish lock: epoch closers may run on a pool
        # done-callback thread or re-enter from retire() on this thread
        self._publish_lock = threading.RLock()
        self._tracker = EpochTracker()
        self._generation = 0
        self._published_version: int | None = None
        self._catalog_blob: bytes | None = None
        # id(container) -> (pinned container, catalog entry)
        self._exported: dict[int, tuple] = {}
        # segment name -> SharedMemory / number of generations referencing it
        self._segments: dict[str, Any] = {}
        self._segment_refs: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # document management (writers, serialized)
    # ------------------------------------------------------------------ #
    def load_document_text(self, text: str, name: str, *,
                           default_context: bool = True) -> None:
        """Shred and publish a document (atomic: readers see it complete)."""
        with self._mutation_lock:
            self.engine.load_document_text(text, name,
                                           default_context=default_context)
            self._reclaim_stale()

    def load_document(self, path: str, name: str | None = None, *,
                      default_context: bool = True) -> None:
        with self._mutation_lock:
            self.engine.load_document(path, name,
                                      default_context=default_context)
            self._reclaim_stale()

    def drop_document(self, name: str) -> None:
        with self._mutation_lock:
            self.engine.drop_document(name)
            self._reclaim_stale()

    @contextmanager
    def update(self, document_name: str, **updater_kwargs: Any
               ) -> Iterator[XMLUpdater]:
        """An update transaction: mutate inside the block, commit on exit.

            >>> with server.update("doc.xml") as updater:          # doctest: +SKIP
            ...     [target] = updater.select("/a/b[1]")
            ...     updater.delete(target)

        The commit swaps the document atomically and bumps the schema
        version, so no query — and no cached plan or materialized subplan —
        can ever observe a half-committed state.  In process mode the
        commit additionally republishes the shared segment set: queries
        dispatched after the commit attach the new generation, in-flight
        queries finish on the one they were pinned to.
        """
        with self._mutation_lock:
            updater = XMLUpdater(self.engine, document_name, **updater_kwargs)
            yield updater
            updater.commit()
            self._reclaim_stale()

    def save_store(self, path: Any) -> None:
        """Persist the loaded documents (serialized with other writers).

        Afterwards the store writes through: every committed change keeps
        the directory current, and a later ``QueryServer(store_path=path)``
        starts warm — no re-parse, no re-shred, caches correctly keyed.
        """
        with self._mutation_lock:
            self.engine.save_store(path)

    def _reclaim_stale(self) -> None:
        """Free cache entries stranded behind the new schema version, and
        (in process mode) republish the shared segment set eagerly so the
        superseded generation can start draining.

        Purely a memory measure: version-embedding keys already guarantee
        stale entries can never be served, and dispatch republishes
        lazily anyway.
        """
        if self.subplan_cache is not None:
            self.subplan_cache.invalidate(self.engine.store.version)
        if self._proc_pool is not None and self._catalog_blob is not None:
            with self._publish_lock:
                snapshot = self.engine.store.snapshot()
                if self._published_version != snapshot.version:
                    self._publish_shared(snapshot)

    # ------------------------------------------------------------------ #
    # shared-memory publication (process mode)
    # ------------------------------------------------------------------ #
    def _publish_shared(self, snapshot) -> None:
        """Export new containers, swap in catalog generation N+1, retire N.

        Caller holds the publish lock.  Containers are immutable after
        registration, so each is exported exactly once and its segment
        reused by every later generation that still contains it; the
        retired generation's closer releases the per-segment references
        and unlinks segments no live generation uses any more — but only
        once the retired epoch's in-flight readers drain.
        """
        from ..storage.persist import export_container_shared, shared_catalog

        documents: dict[str, dict] = {}
        segment_names: set[str] = set()
        for container in snapshot.containers:
            cached = self._exported.get(id(container))
            if cached is None:
                segment, entry = export_container_shared(container)
                self._segments[entry["segment"]] = segment
                self._segment_refs.setdefault(entry["segment"], 0)
                cached = (container, entry)
                self._exported[id(container)] = cached
            documents[container.name] = cached[1]
            segment_names.add(cached[1]["segment"])
        # exports of dropped/replaced containers are forgotten (dropping
        # the pin); their segments live on until referencing epochs drain
        live = {id(container) for container in snapshot.containers}
        for key in [key for key in self._exported if key not in live]:
            del self._exported[key]

        previous = self._generation
        self._generation += 1
        catalog = shared_catalog(
            documents, store_version=snapshot.version,
            order_counter=snapshot.order_counter,
            generation=self._generation,
            default_context=self.engine._default_context)
        for name in segment_names:
            self._segment_refs[name] += 1
        self._tracker.open(self._generation,
                           closer=partial(self._release_segments,
                                          frozenset(segment_names)))
        self._catalog_blob = pickle.dumps(catalog,
                                          protocol=pickle.HIGHEST_PROTOCOL)
        self._published_version = snapshot.version
        if previous:
            self._tracker.retire(previous)

    def _release_segments(self, segment_names: frozenset) -> None:
        """Epoch closer: drop one generation's references, unlink orphans."""
        from ..storage.backends import unlink_segment
        with self._publish_lock:
            for name in segment_names:
                count = self._segment_refs.get(name)
                if count is None:
                    continue
                count -= 1
                if count > 0:
                    self._segment_refs[name] = count
                    continue
                del self._segment_refs[name]
                segment = self._segments.pop(name, None)
                if segment is not None:
                    unlink_segment(segment)

    def _dispatch_catalog(self) -> tuple[bytes, int]:
        """The catalog to pin one dispatch to (publishing if stale).

        Returns ``(pickled catalog, generation)`` with the generation's
        reader epoch already entered — the caller must arrange the
        matching exit when the dispatched future completes.
        """
        with self._publish_lock:
            snapshot = self.engine.store.snapshot()
            if self._catalog_blob is None \
                    or self._published_version != snapshot.version:
                self._publish_shared(snapshot)
            self._tracker.enter(self._generation)
            return self._catalog_blob, self._generation

    # ------------------------------------------------------------------ #
    # serving (readers, concurrent)
    # ------------------------------------------------------------------ #
    def prepare(self, query: str, *,
                options: EngineOptions | None = None) -> PreparedQuery:
        """Prepare through the shared, lock-guarded plan cache."""
        return self.engine.prepare(query, options=options)

    def execute(self, query: str, *, context: str | None = None,
                options: EngineOptions | None = None) -> QueryResult:
        """Prepare (cached) and execute a query in the calling thread."""
        prepared = self.engine.prepare(query, options=options)
        return self.execute_prepared(prepared, context=context)

    def execute_prepared(self, prepared: PreparedQuery, *,
                         context: str | None = None) -> QueryResult:
        """Execute an immutable prepared plan with a private transient
        container (concurrent executions never share constructed-node
        storage)."""
        transient = self.engine.store.new_container("(transient)",
                                                    transient=True)
        result = self.engine._run_prepared(prepared, context=context,
                                           transient=transient)
        with self._served_lock:
            self._served += 1
        return result

    def submit(self, query: str, *, context: str | None = None,
               options: EngineOptions | None = None) -> "Future":
        """Dispatch a query onto the worker pool; returns a future.

        Thread mode resolves to a :class:`QueryResult`; process mode
        pins the dispatch to the current shared-store generation and
        resolves to a :class:`RemoteQueryResult`.
        """
        if self._closed:
            raise RuntimeError("QueryServer is closed")
        if self._proc_pool is None:
            try:
                return self._pool.submit(self.execute, query, context=context,
                                         options=options)
            except RuntimeError:
                # close() won the race between our check and the submit
                raise RuntimeError("QueryServer is closed") from None
        catalog_blob, generation = self._dispatch_catalog()
        try:
            future = self._proc_pool.submit(
                procworker.run_query, catalog_blob, generation, query,
                context, options)
        except RuntimeError:
            self._tracker.exit(generation)
            raise RuntimeError("QueryServer is closed") from None
        future.add_done_callback(partial(self._dispatch_done, generation))
        return future

    def _dispatch_done(self, generation: int, future: "Future") -> None:
        """Done-callback of one process dispatch: release the epoch pin."""
        self._tracker.exit(generation)
        if not future.cancelled() and future.exception() is None:
            with self._served_lock:
                self._served += 1

    def run_batch(self, queries: Iterable[str], *,
                  context: str | None = None) -> list:
        """Run a batch of query texts concurrently; results in input order."""
        futures = [self.submit(query, context=context) for query in queries]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> ServerStats:
        with self._served_lock:
            served = self._served
        subplan_stats = SubplanCacheStats()
        subplan_entries = 0
        if self.subplan_cache is not None:
            subplan_stats = self.subplan_cache.stats.snapshot()
            subplan_entries = len(self.subplan_cache)
        # one read-lock acquisition: version and document list always
        # describe the same committed state (satellite of the commit
        # protocol — a stats call racing a commit is torn-proof)
        snapshot = self.engine.store.snapshot()
        with self._publish_lock:
            generation = self._generation
            live_segments = len(self._segments)
        return ServerStats(
            threads=self.threads,
            queries_served=served,
            store_version=snapshot.version,
            documents=list(snapshot.names),
            plan_cache=self.engine.plan_cache_stats_snapshot(),
            subplan_cache=subplan_stats,
            subplan_entries=subplan_entries,
            mode="processes" if self._proc_pool is not None else "threads",
            processes=self.processes or 0,
            generation=generation,
            live_segments=live_segments,
        )

    def close(self, *, wait: bool = True) -> None:
        """Shut the worker pools down and reclaim shared segments.

        Idempotent and safe to race against in-flight :meth:`submit`
        calls: the first close wins, concurrent and later submits raise
        ``RuntimeError("QueryServer is closed")``, and futures already
        dispatched complete normally (``wait=True`` blocks on them).
        Shared-memory segments are unlinked after the process pool
        drains, so no segment can leak past a clean close.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=wait)
        if self._proc_pool is not None:
            self._proc_pool.shutdown(wait=wait, cancel_futures=not wait)
        from ..storage.backends import unlink_segment
        with self._publish_lock:
            # drained epochs have already reclaimed their segments; this
            # sweeps whatever a forced (wait=False) close left behind
            self._tracker.retire_all()
            for segment in self._segments.values():
                unlink_segment(segment)
            self._segments.clear()
            self._segment_refs.clear()
            self._exported.clear()
            self._catalog_blob = None
            self._published_version = None

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
