"""The MonetDB/XQuery engine facade.

:class:`MonetXQuery` ties the subsystems together: the document store
(shredded ``pre|size|level`` containers), a transient container for
constructed nodes, the prepare pipeline (parse → plan → rewrite → compile
to closures), and the engine options that
expose the ablation switches the paper's experiments toggle (loop-lifted vs.
iterative staircase join, nametest pushdown, join recognition, order
optimization, positional lookup).

    >>> mxq = MonetXQuery()
    >>> mxq.load_document_text("<a><b/></a>", name="doc.xml")
    >>> mxq.query('count(doc("doc.xml")//b)').items
    [1]
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import astuple, dataclass, field, replace
from typing import Any

from ..errors import DocumentError, XQueryUnsupportedError
from ..relational import explain
from ..relational.cardinality import StoreStatistics
from ..relational.rewrites import OptimizedModulePlan, optimize
from ..staircase.iterative import StaircaseStats
from ..xml.document import DocumentContainer, DocumentStore, NodeRef
from ..xml.serializer import serialize_sequence
from ..xml.shredder import shred_document, shred_file
from . import parser
from .codegen import CompiledProgram, RunState, compile_plan
from .planner import plan_module
from .types import atomize, to_string

#: the error for queries whose nesting exhausts the interpreter's stack
_TOO_DEEP = "query nests too deeply (Python recursion limit reached)"


@dataclass
class EngineOptions:
    """Ablation switches of the relational XQuery engine.

    The defaults correspond to the full MonetDB/XQuery configuration; the
    benchmarks flip individual switches to reproduce Figures 12–14.  How a
    plan *executes* is not a switch: every plan compiles to closures
    (:mod:`repro.xquery.codegen`) at prepare time.
    """

    #: use the loop-lifted staircase join for child steps (else one pass per iteration)
    loop_lifted_child: bool = True
    #: use the loop-lifted staircase join for descendant(-or-self) steps
    loop_lifted_descendant: bool = True
    #: use the loop-lifted algorithms for the remaining axes
    loop_lifted_other: bool = True
    #: push name tests below location steps (candidate lists from the name index)
    nametest_pushdown: bool = True
    #: recognise value joins hidden in loop-lifted FLWOR plans (Section 4.1)
    join_recognition: bool = True
    #: maintain/exploit order properties: skip sorts, streaming DENSE_RANK
    order_optimization: bool = True
    #: positional (address computation) lookups into dense key columns
    positional_lookup: bool = True
    #: min/max-aggregate plan for existential order comparisons (Figure 8b)
    existential_aggregates: bool = True
    #: logical-plan rewrite: prune pos/item columns (and the sorts/rownums
    #: that maintain them) below order-indifferent consumers
    projection_pushdown: bool = True
    #: logical-plan rewrite: execute hash-consed common subplans once per
    #: (loop, environment) and reuse the materialised result
    subplan_sharing: bool = True
    #: logical-plan rewrite: move where-conjuncts that mention only one for
    #: variable into that clause as plan-level predicates (joins see
    #: pre-filtered inputs)
    predicate_pushdown: bool = True
    #: cost-based join planning: recognise *all* value-join candidates of a
    #: FLWOR (not just the first syntactic match), size both join inputs
    #: from document statistics, pick build sides and order join clauses
    #: smallest-build-first
    cost_based_joins: bool = True
    #: typed columnar kernels: location steps emit paired int-array columns
    #: and — when the required-columns analysis proves every consumer reads
    #: ``iter`` alone (pure-cardinality queries like ``count(path)``) — skip
    #: ``item`` materialisation entirely, never boxing a node surrogate.
    #: ``False`` is the list-representation baseline of the vectorization
    #: ablation (storage stays typed; the executor fast paths are disabled)
    typed_columns: bool = True
    #: step-chain fusion: consecutive predicate-free location steps over one
    #: container execute as a single surrogate-free pipeline — the paired
    #: ``(iter, pre)`` int arrays of each staircase join feed the next join
    #: directly (sort/dedup on the raw buffers) and ``NodeRef`` surrogates
    #: are boxed once at the chain's end, or never when dead-``item``
    #: pruning applies.  ``False`` is the per-step baseline: every
    #: intermediate step materialises its full ``iter|pos|item`` table
    step_fusion: bool = True
    #: worst-case-optimal multi-way joins: FLWOR blocks whose >= 3 for
    #: clauses are connected by loop-invariant value-join conjuncts execute
    #: as one generic join — per attribute, sorted ``(key, item)`` int
    #: buffers are intersected with galloping, so the intermediate state is
    #: proportional to the true result instead of the pairwise blow-up.
    #: ``False`` restores the pairwise join schedule of the cost-based
    #: planner bit-identically
    wcoj: bool = True

    def replace(self, **changes: Any) -> "EngineOptions":
        return replace(self, **changes)

    def fingerprint(self) -> tuple:
        """A hashable key component identifying this configuration."""
        return astuple(self)


@dataclass
class PlanCacheStats:
    """Hit/miss/eviction counters of the engine's prepared-plan cache.

    Counters are mutated only under the engine's plan-cache lock, so under
    concurrent serving every ``prepare()`` call accounts for exactly one
    hit or one miss and ``hits + misses`` equals the number of calls.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def clear(self) -> None:
        self.hits = self.misses = self.evictions = 0

    def snapshot(self) -> "PlanCacheStats":
        """An independent copy (for reporting from another thread)."""
        return PlanCacheStats(self.hits, self.misses, self.evictions)


@dataclass
class PreparedQuery:
    """A parsed, planned, optimized and compiled query, ready to run
    repeatedly.

    Produced by :meth:`MonetXQuery.prepare`; running it skips parsing,
    planning, the rewrite optimizer and closure compilation entirely.  The plan is logical —
    execution reads the document store at :meth:`run` time, so a prepared
    query observes later updates to the *contents* of loaded documents,
    while the engine's plan cache is invalidated whenever the set of loaded
    documents (the schema version) changes.
    """

    text: str
    plan: OptimizedModulePlan
    options: "EngineOptions"
    engine: "MonetXQuery" = field(repr=False)
    #: the plan's :class:`~repro.xquery.codegen.CompiledProgram` — the
    #: closures that execute it; cached here so the plan-cache key (text +
    #: store version + options) governs both
    compiled: CompiledProgram = field(repr=False)

    def run(self, *, context: str | None = None) -> "QueryResult":
        """Execute the optimized plan and return the result sequence."""
        return self.engine._run_prepared(self, context=context)

    def explain(self) -> str:
        """The optimized logical plan dump plus the fired rewrite rules."""
        return self.plan.render()


@dataclass
class QueryResult:
    """The outcome of one query evaluation."""

    items: list[Any]
    elapsed_seconds: float
    step_stats: StaircaseStats

    def serialize(self) -> str:
        """Serialize the result sequence to XML / text."""
        return serialize_sequence(self.items)

    def atomized(self) -> list[Any]:
        """The result items after atomization (nodes → string values)."""
        return [atomize(item) for item in self.items]

    def strings(self) -> list[str]:
        """The result items as strings (handy in tests)."""
        return [to_string(item) for item in self.items]

    def __len__(self) -> int:
        return len(self.items)


class MonetXQuery:
    """A relational XQuery processor over shredded XML documents.

    The engine is safe to *share* across threads for query evaluation: the
    document store is RW-locked, the prepared-plan cache (and its counters)
    is guarded by a lock, and prepared plans are immutable.  Concurrent
    callers that construct nodes should evaluate with a private transient
    container (as :class:`repro.server.QueryServer` does via its per-thread
    executors) — the default shared ``transient`` container is only safe
    for single-threaded use.

    ``subplan_cache`` optionally attaches a cross-query materialized
    subplan cache (:class:`repro.server.SubplanCache`): loop-invariant
    absolute-path subplans marked by the rewrite optimizer are then
    evaluated once and their materialised results reused across queries,
    keyed on plan fingerprint + document-store schema version.
    """

    def __init__(self, options: EngineOptions | None = None, *,
                 store_path: Any = None, store_backend: str = "mmap",
                 store_verify: bool | None = None,
                 plan_cache_size: int = 64, subplan_cache: Any = None):
        self.options = options if options is not None else EngineOptions()
        self._default_context: str | None = None
        if store_path is not None:
            # reopen a persisted store: warm (no re-shred), statistics and
            # schema version restored; "mmap" serves documents out-of-core,
            # "ram" loads them into plain array('q')/list buffers
            self.store = DocumentStore.open(store_path, backend=store_backend,
                                            verify=store_verify)
            documents = self.store.containers()
            if documents:
                first = min(documents, key=lambda c: c.order_key)
                self._default_context = first.name
        else:
            self.store = DocumentStore()
        self.transient = self.store.new_container("(transient)", transient=True)
        self.subplan_cache = subplan_cache
        self.plan_cache_size = plan_cache_size
        self.plan_cache_stats = PlanCacheStats()
        self._plan_cache: OrderedDict[tuple, PreparedQuery] = OrderedDict()
        self._plan_lock = threading.RLock()

    @classmethod
    def attach_shared(cls, catalog: dict, *,
                      options: EngineOptions | None = None,
                      plan_cache_size: int = 64,
                      subplan_cache: Any = None) -> "MonetXQuery":
        """Attach an engine to a published shared-memory store by name.

        The worker-process open path of the process-parallel serving
        layer: ``catalog`` is the shared-store catalog the publishing
        parent built (segment names + column layout + name pools + tag
        statistics).  Every document attaches zero-copy and read-only;
        the store version is restored, so this engine's plan-cache and
        subplan-cache keys agree with the parent's, and the parent's
        default context document carries over.
        """
        engine = cls(options=options, plan_cache_size=plan_cache_size,
                     subplan_cache=subplan_cache)
        engine.store = DocumentStore.attach_shared(catalog)
        engine.transient = engine.store.new_container("(transient)",
                                                      transient=True)
        engine._default_context = catalog.get("default_context")
        if engine._default_context is None:
            documents = engine.store.containers()
            if documents:
                first = min(documents, key=lambda c: c.order_key)
                engine._default_context = first.name
        return engine

    # ------------------------------------------------------------------ #
    # document management
    # ------------------------------------------------------------------ #
    def load_document_text(self, text: str, name: str, *,
                           default_context: bool = True) -> DocumentContainer:
        """Shred an XML string into the store under the given name."""
        container = shred_document(text, name, self.store)
        if default_context and self._default_context is None:
            self._default_context = name
        return container

    def load_document(self, path: str, name: str | None = None, *,
                      default_context: bool = True) -> DocumentContainer:
        """Shred an XML file from disk into the store."""
        name = name if name is not None else path
        container = shred_file(path, name, self.store)
        if default_context and self._default_context is None:
            self._default_context = name
        return container

    def register_container(self, container: DocumentContainer, *,
                           default_context: bool = True) -> None:
        """Register an already shredded container (e.g. an XMark document)."""
        self.store.register(container)
        if default_context and self._default_context is None:
            self._default_context = container.name

    def drop_document(self, name: str) -> None:
        self.store.drop(name)
        if self._default_context == name:
            self._default_context = None

    def save_store(self, path: Any) -> None:
        """Persist the loaded documents under ``path`` and stay bound.

        After a save the store writes through: later loads, drops and
        update commits keep the on-disk copy current, and a new engine
        constructed with ``store_path=path`` starts warm."""
        self.store.save(path)

    def set_default_context(self, name: str) -> None:
        if name not in self.store:
            raise DocumentError(f"document {name!r} is not loaded")
        self._default_context = name

    def reset_transient(self) -> None:
        """Drop all constructed nodes (start a fresh transient container)."""
        self.transient = DocumentContainer(
            "(transient)", self.transient.order_key, transient=True)

    # ------------------------------------------------------------------ #
    # query evaluation
    # ------------------------------------------------------------------ #
    def parse(self, query: str):
        """Parse a query without evaluating it (returns the AST module)."""
        return parser.parse(query)

    def query(self, query: str, *, context: str | None = None,
              options: EngineOptions | None = None) -> QueryResult:
        """Evaluate an XQuery string and return its result sequence.

        ``context`` names the document bound to the context item (absolute
        paths like ``/site/...`` start there); it defaults to the first
        loaded document.  ``options`` overrides the engine options for this
        query only.  Repeated query texts hit the prepared-plan cache and
        skip parse/plan/optimize entirely.
        """
        return self.prepare(query, options=options).run(context=context)

    def prepare(self, query: str, *,
                options: EngineOptions | None = None) -> PreparedQuery:
        """Parse, plan, optimize and compile a query once; cache the result.

        The LRU cache is keyed by query text, the document-store schema
        version and the engine options, so loading/dropping a document (or
        committing updates) invalidates stale plans automatically.
        """
        active = options if options is not None else self.options
        key = (query, self.store.version, active.fingerprint())
        with self._plan_lock:
            cached = self._plan_cache.get(key)
            if cached is not None:
                self._plan_cache.move_to_end(key)
                self.plan_cache_stats.hits += 1
                explain.record("plan", "plan.cache.hit", 0, 0, detail="prepare")
                return cached
            self.plan_cache_stats.misses += 1
        # parse/plan/optimize outside the lock: compilation never blocks
        # concurrent cache hits (two threads may race to compile the same
        # text; the first insert wins and object identity stays stable)
        explain.record("plan", "plan.cache.miss", 0, 0, detail="prepare")
        prepared = self._build_prepared(query, active)
        if self.plan_cache_size > 0:
            with self._plan_lock:
                existing = self._plan_cache.get(key)
                if existing is not None:
                    return existing
                self._plan_cache[key] = prepared
                while len(self._plan_cache) > self.plan_cache_size:
                    self._plan_cache.popitem(last=False)
                    self.plan_cache_stats.evictions += 1
        return prepared

    def _build_prepared(self, text: str, options: EngineOptions,
                        module=None) -> PreparedQuery:
        """Parse (unless ``module`` is given) → plan → optimize → compile:
        the one place a :class:`PreparedQuery` is built."""
        try:
            if module is None:
                module = parser.parse(text)
            optimized = optimize(
                plan_module(module), options,
                statistics=StoreStatistics.from_store(self.store))
            compiled = compile_plan(optimized, options)
        except RecursionError as exc:
            raise XQueryUnsupportedError(_TOO_DEEP) from exc
        return PreparedQuery(text=text, plan=optimized, options=options,
                             engine=self, compiled=compiled)

    def explain(self, query: str, *,
                options: EngineOptions | None = None) -> str:
        """The optimized logical plan dump of a query (without running it)."""
        return self.prepare(query, options=options).explain()

    def plan_cache_stats_snapshot(self) -> PlanCacheStats:
        """A consistent copy of the plan-cache counters.

        Taken under the plan-cache lock, so the three counters always
        belong to one moment — a snapshot racing concurrent ``prepare()``
        calls can never mix a pre-insert miss count with a post-insert
        eviction count.
        """
        with self._plan_lock:
            return self.plan_cache_stats.snapshot()

    def clear_plan_cache(self) -> None:
        """Drop all cached prepared queries (counters are kept).

        Safe while other threads run or hold :class:`PreparedQuery`
        objects — a prepared query is self-contained, so in-flight
        executions finish on the plan they already have; only future
        ``prepare()`` calls miss.
        """
        with self._plan_lock:
            self._plan_cache.clear()

    def execute(self, module, *, context: str | None = None,
                options: EngineOptions | None = None) -> QueryResult:
        """Evaluate an already parsed module (bypasses the plan cache)."""
        active = options if options is not None else self.options
        return self._build_prepared("", active, module).run(context=context)

    def _run_prepared(self, prepared: PreparedQuery, *,
                      context: str | None = None,
                      transient=None) -> QueryResult:
        """Execute a prepared plan.  ``transient`` optionally supplies a
        private container for constructed nodes — the serving layer passes
        a per-execution container so concurrent queries never share one."""
        state = RunState(self.store, transient if transient is not None
                         else self.transient, self.subplan_cache)
        context_item = self._context_item(context)
        started = time.perf_counter()
        try:
            items = prepared.compiled.run(state, context_item)
        except RecursionError as exc:
            raise XQueryUnsupportedError(_TOO_DEEP) from exc
        elapsed = time.perf_counter() - started
        return QueryResult(items=items, elapsed_seconds=elapsed,
                           step_stats=state.step_stats)

    def _context_item(self, context: str | None) -> NodeRef | None:
        name = context if context is not None else self._default_context
        if name is None:
            return None
        container = self.store.get(name)
        return NodeRef(container, 0)
