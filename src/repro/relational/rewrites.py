"""The logical-plan rewrite optimizer.

Pathfinder rewrites its relational DAG before emitting physical algebra;
this module is the equivalent pass over the logical plans built by
:mod:`repro.xquery.planner`.  The rewrite families:

* **predicate pushdown** — a ``where`` conjunct that mentions exactly one
  of the FLWOR's own ``for`` variables (everything else constant: globals,
  the context item) is moved *into* that clause as a plan-level predicate,
  filtering the binding sequence before any join sees it,
* **join recognition** (Section 4.1, the ``indep`` property) — relocated
  from the ad-hoc runtime check the compiler used to perform: a ``for``
  clause whose binding sequence is *loop-invariant* (its free variables
  are disjoint from the enclosing bindings) paired with an existential
  comparison in the ``where`` clause is annotated as a value join.  The
  executor then evaluates the binding sequence once and theta-joins it
  against the outer loop instead of building a lifted Cartesian product.
  *All* such (clause, conjunct) pairs of a FLWOR are recognized, not just
  the first syntactic match,
* **cost-based join ordering** — per-subplan row estimates derived from
  the document store's per-tag element counts
  (:mod:`repro.relational.cardinality`) size both inputs of every
  recognized join: the smaller input is chosen as the hash build side,
  and independent join clauses are scheduled smallest-build-first (the
  executor restores the syntactic tuple order afterwards),
* **projection pushdown / dead-column pruning** — a required-columns
  analysis over the ``iter|pos|item`` encoding: contexts that ignore
  sequence order and positions (aggregates such as ``count``, existential
  comparisons, ``where`` conditions, quantifiers) propagate a reduced
  column requirement downward, letting the executor skip the sorts and
  ``rownum`` renumberings that only exist to maintain ``pos``,
* **common-subexpression sharing** — plans are hash-consed DAGs, so
  repeated subexpressions are already *structurally* shared; this pass
  marks the shared, side-effect-free nodes so the executor can memoise
  their result per (loop, environment) and execute them once,
* **cacheable-subplan marking** — loop-invariant absolute-path subplans
  (pure, free variables at most the context item) get a builder-
  independent structural fingerprint; the serving layer materializes
  their results *across queries* keyed on that fingerprint plus the
  document-store schema version and the context root,
* **step-chain fusion marking** — maximal chains of consecutive
  location steps that are predicate-free or carry a single purely
  positional predicate (``[k]``, ``[last()]``) are annotated so the
  executor can run them as one surrogate-free pipeline
  (``axis_step_chain``): the paired ``(iter, pre)`` int arrays of each
  staircase join feed the next join directly, positional predicates run
  as per-context counting on those buffers, and ``NodeRef`` boxing
  happens once, at the chain's end.  Chains never absorb shared
  (memoised) interior nodes; the executor additionally refuses to fuse
  across cross-query-cacheable nodes when a subplan cache is attached,
  so cache slots keep materialising.

All analyses are side tables keyed by ``PlanNode.id``; only the FLWOR
rules rebuild plan nodes (moving conjuncts, adding the ``join``/``joins``/
``clause_order`` annotations), which is why they run first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from .cardinality import CardinalityEstimator, StoreStatistics
from .plan import (PlanBuilder, PlanNode, count_references, render_plan,
                   structural_fingerprint)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..xquery.planner import ModulePlan


FULL_COLUMNS = frozenset({"iter", "pos", "item"})
NO_POS = frozenset({"iter", "item"})
ITER_ONLY = frozenset({"iter"})

#: pseudo-variables threaded through the environment rather than bound by
#: user code: the context item and the dynamic position()/last() registers
PSEUDO_VARIABLES = frozenset({".", "fs:position", "fs:last"})

#: builtins whose result ignores the order and positions of the argument
#: sequence entirely (pure per-iteration folds)
_ORDER_FREE_AGGREGATES = frozenset({
    "count", "exists", "empty", "sum", "avg", "min", "max", "distinct-values",
})

#: builtins that only inspect the *first* item of each iteration — safe
#: under pruning because the executor's skips preserve within-iteration
#: scan order
_FIRST_ITEM_FUNCTIONS = frozenset({
    "string", "number", "data", "boolean", "not", "string-length",
    "contains", "starts-with", "ends-with", "upper-case", "lower-case",
    "normalize-space", "name", "local-name", "root", "floor", "ceiling",
    "round", "abs",
})

#: node kinds too cheap to be worth memoising even when shared
_TRIVIAL_KINDS = frozenset({
    "const", "empty", "var", "context", "root", "for", "let", "orderspec",
    "avt",
})


def _strip_fn(name: str) -> str:
    return name[3:] if name.startswith("fn:") else name


def flatten_conjuncts(where: PlanNode) -> list[PlanNode]:
    """The conjuncts of a ``where`` condition (nested ``and`` flattened).

    The rewrite rules and the executor must agree on conjunct indexing —
    both use this helper.
    """
    if where.kind != "and":
        return [where]
    conjuncts: list[PlanNode] = []
    for child in where.children:
        conjuncts.extend(flatten_conjuncts(child))
    return conjuncts


def positional_predicate_spec(predicate: PlanNode
                              ) -> tuple[Any, ...] | None:
    """The positional spec of a predicate, if it is purely positional.

    ``("index", k)`` for an integer-literal predicate ``[k]``,
    ``("last",)`` for ``[last()]``; ``None`` for anything else.  A step
    whose only predicate has such a spec can run inside a fused chain as
    per-context counting on the raw ``(iter, pre)`` buffers — no
    materialised intermediate, no position registers.
    """
    if predicate.kind == "const":
        value = predicate.p("value")
        if isinstance(value, int) and not isinstance(value, bool):
            return ("index", value)
        return None
    if predicate.kind == "call" and not predicate.children \
            and _strip_fn(predicate.p("name")) == "last":
        return ("last",)
    return None


@dataclass(frozen=True)
class JoinEstimate:
    """Cardinality estimates attached to one recognized value join.

    ``build_rows`` sizes the loop-invariant binding sequence (after pushed
    predicates); ``probe_rows`` sizes the other comparison side across the
    enclosing loop.  ``build_side`` records which input the executor hands
    to the hash/index build of the existential theta-join.
    """

    clause: int
    conjunct: int
    side: int
    build_rows: float
    probe_rows: float
    build_side: str                      # "binding" | "outer"

    def render(self) -> str:
        return (f"est[build~{self.build_rows:.0f} probe~{self.probe_rows:.0f} "
                f"build-side={self.build_side}]")


@dataclass
class RewriteReport:
    """Which rewrite rules fired, with human-readable details."""

    entries: list[tuple[str, str]] = field(default_factory=list)

    def fire(self, rule: str, detail: str) -> None:
        self.entries.append((rule, detail))

    def fired(self, rule: str) -> list[str]:
        return [detail for name, detail in self.entries if name == rule]

    def render(self) -> str:
        if not self.entries:
            return "rewrites: none fired"
        lines = ["rewrites:"]
        lines.extend(f"  {rule}: {detail}" for rule, detail in self.entries)
        return "\n".join(lines)


class FreeVariables:
    """Binding-aware free-variable sets per plan node (memoised on demand).

    The sets include the pseudo-variables of :data:`PSEUDO_VARIABLES` so
    that the executor's CSE memoisation can fingerprint exactly the
    environment entries a subplan depends on.
    """

    def __init__(self, user_functions: Iterable[str] = ()):
        self._memo: dict[int, frozenset[str]] = {}
        self._user_functions = {_strip_fn(name) for name in user_functions}

    def __call__(self, node: PlanNode) -> frozenset[str]:
        cached = self._memo.get(node.id)
        if cached is not None:
            return cached
        result = self._compute(node)
        self._memo[node.id] = result
        return result

    def _compute(self, node: PlanNode) -> frozenset[str]:
        kind = node.kind
        if kind == "var":
            return frozenset({node.p("name")})
        if kind in ("context", "root"):
            return frozenset({"."})
        if kind == "call":
            name = _strip_fn(node.p("name"))
            free: set[str] = set()
            for child in node.children:
                free |= self(child)
            if name not in self._user_functions:
                if name == "position" and not node.children:
                    free.add("fs:position")
                elif name == "last" and not node.children:
                    free.add("fs:last")
                elif name in ("string", "data", "number", "name",
                              "local-name") and not node.children:
                    free.add(".")   # implicit context-item argument
            return frozenset(free)
        if kind == "flwor":
            nclauses = node.p("nclauses")
            free: set[str] = set()
            bound: set[str] = set()
            for clause in node.children[:nclauses]:
                free |= self(clause.children[0]) - bound
                bound.add(clause.p("var"))
                if clause.kind == "for" and clause.p("posvar"):
                    bound.add(clause.p("posvar"))
                # pushed-down plan-level predicates see the clause variable
                for predicate in clause.children[1:]:
                    free |= self(predicate) - bound
            for child in node.children[nclauses:]:
                free |= self(child) - bound
            return frozenset(free)
        if kind == "quantified":
            variables = node.p("variables")
            free = set()
            bound = set()
            for variable, sequence in zip(variables, node.children[:-1]):
                free |= self(sequence) - bound
                bound.add(variable)
            free |= self(node.children[-1]) - bound
            return frozenset(free)
        if kind == "orderspec":
            return self(node.children[0])
        free = set()
        for child in node.children:
            free |= self(child)
        return frozenset(free)


class _PurityAnalysis:
    """Side-effect analysis: node constructors create fresh node identities
    every time they run, so subtrees containing them must never be shared
    at execution time."""

    def __init__(self, functions: dict[str, "Any"]):
        self._functions = {_strip_fn(name): planned
                           for name, planned in functions.items()}
        self._memo: dict[int, bool] = {}
        self._in_progress: set[str] = set()

    def impure(self, node: PlanNode) -> bool:
        cached = self._memo.get(node.id)
        if cached is not None:
            return cached
        result = self._compute(node)
        self._memo[node.id] = result
        return result

    def _compute(self, node: PlanNode) -> bool:
        if node.kind in ("elem", "text"):
            return True
        if node.kind == "call":
            name = _strip_fn(node.p("name"))
            planned = self._functions.get(name)
            if planned is not None:
                if name in self._in_progress:    # recursive: be conservative
                    return True
                self._in_progress.add(name)
                try:
                    if self.impure(planned.body):
                        return True
                finally:
                    self._in_progress.discard(name)
        return any(self.impure(child) for child in node.children)


@dataclass
class OptimizedModulePlan:
    """The rewritten plans of a module plus all executor-facing analyses."""

    body: PlanNode
    globals: list[tuple[str, PlanNode]]
    functions: dict[str, Any]               # name -> PlannedFunction
    cols: dict[int, frozenset[str]]
    shared: frozenset[int]
    impure: frozenset[int]
    free: FreeVariables
    report: RewriteReport
    #: flwor node id -> cardinality estimates of its recognized joins
    join_estimates: dict[int, tuple[JoinEstimate, ...]] = \
        field(default_factory=dict)
    #: node id -> builder-independent structural fingerprint of subplans
    #: that are loop-invariant absolute paths (safe to materialize in the
    #: cross-query subplan cache, keyed additionally on the document-store
    #: schema version and the context root)
    cache_keys: dict[int, str] = field(default_factory=dict)
    #: whether the executor runs the typed columnar kernels (the
    #: ``typed_columns`` ablation at optimize time); governs the
    #: representation annotations of :meth:`render`
    typed_columns: bool = True
    #: step node id -> number of steps (>= 2) of the fusable chain *ending*
    #: at that node — the executor fuses the chain when the node is reached
    #: through ordinary compilation (``step_fusion`` ablation)
    fused_chains: dict[int, int] = field(default_factory=dict)
    #: step node ids absorbed as the interior of some fusable chain
    #: (annotated ``(fused)`` in plan dumps; they never execute standalone
    #: unless the executor trims the chain at a cache boundary)
    fused_members: frozenset[int] = frozenset()
    #: flwor node id -> per-clause cardinality estimates of its recognized
    #: worst-case-optimal multi-way join (the product bounds the pairwise
    #: intermediate the generic join avoids)
    wcoj_estimates: dict[int, tuple[float, ...]] = field(default_factory=dict)

    def required_columns(self, node: PlanNode) -> frozenset[str]:
        return self.cols.get(node.id, FULL_COLUMNS)

    def fused_chain_length(self, node: PlanNode) -> int:
        """Steps in the fusable chain ending at ``node`` (0 = not fusable)."""
        return self.fused_chains.get(node.id, 0)

    def is_shared(self, node: PlanNode) -> bool:
        return node.id in self.shared

    def is_pure(self, node: PlanNode) -> bool:
        return node.id not in self.impure

    def cache_key(self, node: PlanNode) -> str | None:
        """The cross-query cache fingerprint of a cacheable subplan
        (``None`` when the node was not marked cacheable)."""
        return self.cache_keys.get(node.id)

    def roots(self) -> list[PlanNode]:
        roots = [self.body]
        roots.extend(plan for _, plan in self.globals)
        roots.extend(function.body for function in self.functions.values())
        return roots

    def render(self) -> str:
        """The full plan dump: body, globals, functions, fired rewrites."""
        def annotate(node: PlanNode) -> str:
            notes = []
            required = self.cols.get(node.id)
            if required is not None and required != FULL_COLUMNS:
                notes.append(
                    "cols=[" + ",".join(
                        name for name in ("iter", "pos", "item")
                        if name in required) + "]")
            if self.typed_columns and node.kind == "step" \
                    and required is not None and "item" not in required:
                # the executor's chosen representation: a typed int iter
                # column with no node surrogates materialised at all
                notes.append("rep=i64[iter-only, item-pruned]")
            elif self.typed_columns and node.kind == "step":
                notes.append("rep=i64[iter,pos]+item")
            if node.id in self.shared:
                notes.append("(shared)")
            if node.id in self.cache_keys:
                notes.append("(cacheable)")
            if node.id in self.fused_chains \
                    and node.id not in self.fused_members:
                notes.append(f"(fused:{self.fused_chains[node.id]})")
            elif node.id in self.fused_members:
                notes.append("(fused)")
            if node.kind == "flwor" and node.p("wcoj"):
                wcoj_triples = node.p("wcoj")
                note = (f"(wcoj) {node.p('nclauses')}-way[conjuncts="
                        + ",".join(str(triple[0]) for triple in wcoj_triples)
                        + "]")
                estimates = self.wcoj_estimates.get(node.id)
                if estimates:
                    note += (" est[rows~"
                             + "x".join(f"{rows:.0f}" for rows in estimates)
                             + "]")
                notes.append(note)
            if node.kind == "flwor" and node.p("join") is not None:
                triples = node.p("joins") or (node.p("join"),)
                estimates = {(e.clause, e.conjunct, e.side): e
                             for e in self.join_estimates.get(node.id, ())}
                for triple in triples:
                    clause_index, conjunct_index, v_side = triple
                    note = (f"join-recognized[clause={clause_index},"
                            f"conjunct={conjunct_index},side={v_side}]")
                    estimate = estimates.get(tuple(triple))
                    if estimate is not None:
                        note += " " + estimate.render()
                    notes.append(note)
            if node.kind == "for" and len(node.children) > 1:
                notes.append(f"pushed-predicates={len(node.children) - 1}")
            return " ".join(notes)

        sections = []
        for name, plan in self.globals:
            sections.append(f"declare variable ${name} :=")
            sections.append(render_plan(plan, shared=self.shared,
                                        annotate=annotate, indent="  "))
        for function in self.functions.values():
            sections.append(
                f"declare function {function.name}"
                f"({', '.join('$' + p for p in function.parameters)}) :=")
            sections.append(render_plan(function.body, shared=self.shared,
                                        annotate=annotate, indent="  "))
        sections.append(render_plan(self.body, shared=self.shared,
                                    annotate=annotate))
        sections.append(self.report.render())
        return "\n".join(sections)


def optimize(module_plan: "ModulePlan", options: Any = None,
             statistics: StoreStatistics | None = None) -> OptimizedModulePlan:
    """Run the rewrite pipeline over a module's logical plans.

    ``options`` is the engine's :class:`~repro.xquery.engine.EngineOptions`
    (or any object with ``join_recognition``, ``predicate_pushdown``,
    ``cost_based_joins``, ``projection_pushdown`` and ``subplan_sharing``
    attributes); ``None`` enables every rewrite.  ``statistics`` is a
    document-store snapshot feeding the cardinality estimates; without it
    joins are still recognized but not cost-ordered.
    """
    join_recognition = getattr(options, "join_recognition", True)
    predicate_pushdown = getattr(options, "predicate_pushdown", True)
    cost_based_joins = getattr(options, "cost_based_joins", True)
    projection_pushdown = getattr(options, "projection_pushdown", True)
    subplan_sharing = getattr(options, "subplan_sharing", True)
    typed_columns = getattr(options, "typed_columns", True)
    step_fusion = getattr(options, "step_fusion", True)
    wcoj = getattr(options, "wcoj", True)

    report = RewriteReport()
    free = FreeVariables(module_plan.functions)
    estimator = CardinalityEstimator(statistics)

    # 1. FLWOR rules: predicate pushdown, join recognition, cost-based
    #    ordering (they rebuild flwor nodes, so they run first)
    body = module_plan.body
    globals_ = list(module_plan.globals)
    functions = dict(module_plan.functions)
    join_estimates: dict[int, tuple[JoinEstimate, ...]] = {}
    wcoj_estimates: dict[int, tuple[float, ...]] = {}
    if join_recognition or predicate_pushdown:
        rule = _FlworRewrites(module_plan.builder, free,
                              module_plan.global_names, report,
                              join_recognition=join_recognition,
                              predicate_pushdown=predicate_pushdown,
                              cost_based=cost_based_joins,
                              estimator=estimator,
                              wcoj=wcoj)
        body = rule.rewrite(body, frozenset())
        globals_ = [(name, rule.rewrite(plan, frozenset()))
                    for name, plan in globals_]
        rebuilt_functions = {}
        for name, planned in functions.items():
            new_body = rule.rewrite(planned.body, frozenset(planned.parameters))
            if new_body is not planned.body:
                planned = type(planned)(planned.name, planned.parameters,
                                        new_body)
            rebuilt_functions[name] = planned
        functions = rebuilt_functions
        join_estimates = rule.join_estimates
        wcoj_estimates = rule.wcoj_estimates
        # free-variable sets of rebuilt nodes are recomputed lazily
        free = FreeVariables(functions)

    roots = [body] + [plan for _, plan in globals_] \
        + [planned.body for planned in functions.values()]

    # 2. projection pushdown / dead-column pruning (required-columns pass)
    cols: dict[int, frozenset[str]] = {}
    if projection_pushdown:
        cols = _required_columns(roots, functions)
        pruned = sum(1 for required in cols.values()
                     if required != FULL_COLUMNS)
        if pruned:
            report.fire("projection-pushdown",
                        f"{pruned} operators need no pos column")
        if typed_columns:
            item_pruned = sum(
                1 for root in roots for node in root.walk()
                if node.kind == "step"
                and node.id in cols and "item" not in cols[node.id])
            if item_pruned:
                report.fire(
                    "item-pruning",
                    f"{item_pruned} location steps materialize no item "
                    "column (pure-cardinality consumers)")

    # 3. common-subplan sharing (mark hash-consed nodes safe to memoise)
    purity = _PurityAnalysis(functions)
    impure = frozenset(node.id for root in roots for node in root.walk()
                       if purity.impure(node))
    shared: frozenset[int] = frozenset()
    if subplan_sharing:
        references = count_references(roots)
        shared = frozenset(
            node.id for root in roots for node in root.walk()
            if references.get(node.id, 0) > 1
            and node.kind not in _TRIVIAL_KINDS
            and node.id not in impure)
        if shared:
            report.fire("common-subexpressions",
                        f"{len(shared)} shared subplans will execute once")

    # 4. cross-query cacheable subplans: loop-invariant absolute paths
    cache_keys = _cacheable_subplans(roots, free, impure, functions)
    if cache_keys:
        report.fire("cacheable-subplans",
                    f"{len(cache_keys)} absolute-path subplans may be "
                    "materialized across queries")

    # 5. step-chain fusion: maximal predicate-free step chains execute as
    #    one surrogate-free staircase pipeline
    fused_chains: dict[int, int] = {}
    fused_members: frozenset[int] = frozenset()
    if step_fusion:
        fused_chains, fused_members = _fusable_chains(roots, shared)
        maximal = [nid for nid in fused_chains if nid not in fused_members]
        if maximal:
            longest = max(fused_chains[nid] for nid in maximal)
            report.fire(
                "step-fusion",
                f"{len(maximal)} step chains run surrogate-free "
                f"(longest: {longest} steps)")

    return OptimizedModulePlan(body=body, globals=globals_,
                               functions=functions, cols=cols,
                               shared=shared, impure=impure, free=free,
                               report=report, join_estimates=join_estimates,
                               cache_keys=cache_keys,
                               typed_columns=typed_columns,
                               fused_chains=fused_chains,
                               fused_members=fused_members,
                               wcoj_estimates=wcoj_estimates)


# --------------------------------------------------------------------------- #
# step-chain fusion (surrogate-free path pipelines)
# --------------------------------------------------------------------------- #
def _fusable_chains(roots: list[PlanNode], shared: frozenset[int]
                    ) -> tuple[dict[int, int], frozenset[int]]:
    """Mark chains of consecutive fusable location steps for fusion.

    A ``step`` node *absorbs* its context child when the child

    * is itself a ``step`` that is predicate-free or carries exactly one
      purely positional predicate (``[k]`` / ``[last()]``) — general
      predicates need the nested iteration scope and positions of a
      materialised intermediate, but positional ones run as per-context
      counting on the raw ``(iter, pre)`` buffers mid-chain,
    * is not marked shared — a memoised subplan must materialise so its
      other consumers can reuse the result, and
    * does not use the attribute axis — attribute rows live in a separate
      table and cannot feed a further tree-node staircase join (the
      attribute axis may still *end* a chain).

    Every predicate-free step whose absorbable chain is at least two steps
    long is recorded with that length; the executor fuses from whichever
    chain end it actually reaches (a DAG node may be the interior of one
    consumer's chain and the head of another's), trimming additionally at
    cross-query-cacheable nodes when a subplan cache is attached.
    """
    lengths: dict[int, int] = {}

    def positional_only(step: PlanNode) -> bool:
        # a step joins a chain when it is predicate-free, or carries exactly
        # one purely positional predicate ([k] / [last()]) that the chain
        # runner evaluates as per-context counting on the raw buffers;
        # attribute-axis rows use a different rank encoding, so predicated
        # attribute steps stay on the materialising path
        if len(step.children) == 1:
            return True
        if len(step.children) != 2:
            return False
        if getattr(step.p("axis"), "value", None) == "attribute":
            return False
        return positional_predicate_spec(step.children[1]) is not None

    def absorbable(child: PlanNode) -> bool:
        # compare the axis by enum value to avoid importing the staircase
        # package (whose document types import this package)
        return (child.kind == "step" and positional_only(child)
                and child.id not in shared
                and getattr(child.p("axis"), "value", None) != "attribute")

    def down_length(node: PlanNode) -> int:
        cached = lengths.get(node.id)
        if cached is not None:
            return cached
        child = node.children[0]
        result = 1 + down_length(child) if absorbable(child) else 1
        lengths[node.id] = result
        return result

    chains: dict[int, int] = {}
    members: set[int] = set()
    for root in roots:
        for node in root.walk():
            if node.kind != "step" or not positional_only(node):
                continue
            length = down_length(node)
            if length < 2:
                continue
            chains[node.id] = length
            current = node
            for _ in range(length - 1):
                current = current.children[0]
                members.add(current.id)
    return chains, frozenset(members)


def _cacheable_subplans(roots: list[PlanNode], free: FreeVariables,
                        impure: frozenset[int],
                        functions: dict[str, Any]) -> dict[int, str]:
    """Mark loop-invariant absolute-path subplans for cross-query caching.

    A ``step`` node qualifies when

    * its context spine (the chain of first children) bottoms out at a
      ``root`` node — the subplan is an *absolute* path, so its value
      depends only on the context document root, never on the loop,
    * its free variables are at most the context item ``.`` (no FLWOR
      bindings, globals, or the dynamic ``position()``/``last()``
      registers — predicates referencing those are conservatively
      rejected because the free-variable analysis surfaces them),
    * the subtree calls no user-declared functions — the structural
      fingerprint covers only the call site, not the function body, so
      two queries declaring a same-named function with different bodies
      would otherwise collide on one cache slot, and
    * the subtree is pure (no node constructors, which mint fresh node
      identities on every execution).

    Such a subplan evaluated anywhere yields the same item sequence per
    iteration, which is what lets the serving layer treat its
    materialisation as a shared index structure: the result is cached
    across queries keyed on the structural fingerprint + document-store
    schema version + context root, and re-lifted into whatever loop the
    consuming query runs under.  Every prefix of a qualifying path
    qualifies too, so hot path prefixes (``/site/people``) are shared
    even between queries that diverge afterwards.
    """
    fingerprints: dict[int, str] = {}
    spine_memo: dict[int, bool] = {}
    user_call_memo: dict[int, bool] = {}
    user_functions = {_strip_fn(name) for name in functions}
    keys: dict[int, str] = {}

    def calls_user_function(node: PlanNode) -> bool:
        cached = user_call_memo.get(node.id)
        if cached is not None:
            return cached
        result = (node.kind == "call"
                  and _strip_fn(node.p("name")) in user_functions) \
            or any(calls_user_function(child) for child in node.children)
        user_call_memo[node.id] = result
        return result

    def absolute_spine(node: PlanNode) -> bool:
        cached = spine_memo.get(node.id)
        if cached is not None:
            return cached
        if node.kind == "root":
            result = True
        elif node.kind in ("step", "filter") and node.children:
            result = absolute_spine(node.children[0])
        else:
            result = False
        spine_memo[node.id] = result
        return result

    for root in roots:
        for node in root.walk():
            if node.kind != "step" or node.id in keys:
                continue
            if node.id in impure:
                continue
            if not absolute_spine(node):
                continue
            if free(node) - {"."}:
                continue
            if calls_user_function(node):
                continue
            keys[node.id] = structural_fingerprint(node, fingerprints)
    return keys


# --------------------------------------------------------------------------- #
# FLWOR rules: predicate pushdown, join recognition, cost-based ordering
# --------------------------------------------------------------------------- #
class _FlworRewrites:
    """Rebuild FLWOR nodes: move single-variable ``where`` conjuncts into
    their ``for`` clause as plan-level predicates, annotate every
    loop-invariant for-clause + existential-comparison pair as a value join
    (the paper's ``indep``-driven rewrite), and — when statistics are
    available — size both join inputs, pick the hash build side and order
    independent join clauses smallest-build-first (``clause_order``)."""

    def __init__(self, builder: PlanBuilder, free: FreeVariables,
                 global_names: frozenset[str], report: RewriteReport, *,
                 join_recognition: bool = True,
                 predicate_pushdown: bool = True,
                 cost_based: bool = True,
                 estimator: CardinalityEstimator | None = None,
                 wcoj: bool = True):
        self.builder = builder
        self.free = free
        self.global_names = global_names
        self.report = report
        self.join_recognition = join_recognition
        self.predicate_pushdown = predicate_pushdown
        self.estimator = estimator if estimator is not None \
            else CardinalityEstimator()
        self.multi_join = join_recognition and cost_based
        self.cost_based = cost_based and self.estimator.available
        self.wcoj = wcoj and join_recognition
        self.join_estimates: dict[int, tuple[JoinEstimate, ...]] = {}
        self.wcoj_estimates: dict[int, tuple[float, ...]] = {}
        self._memo: dict[tuple[int, frozenset[str], float], PlanNode] = {}

    def rewrite(self, node: PlanNode, bound: frozenset[str],
                loop_est: float = 1.0) -> PlanNode:
        if not self.cost_based:
            loop_est = 1.0                      # keep memo keys stable
        key = (node.id, bound & self.free(node), loop_est)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = self._rewrite(node, bound, loop_est)
        self._memo[key] = result
        return result

    def _rebuild(self, node: PlanNode, children: tuple[PlanNode, ...],
                 **extra: Any) -> PlanNode:
        if not extra and children == node.children:
            return node
        params = dict(node.params)
        params.update(extra)
        return self.builder.node(node.kind, children, **params)

    def _rewrite(self, node: PlanNode, bound: frozenset[str],
                 loop_est: float) -> PlanNode:
        if node.kind == "flwor":
            return self._rewrite_flwor(node, bound, loop_est)
        if node.kind == "quantified":
            variables = node.p("variables")
            children: list[PlanNode] = []
            inner = set(bound)
            for variable, sequence in zip(variables, node.children[:-1]):
                children.append(self.rewrite(sequence, frozenset(inner),
                                             loop_est))
                inner.add(variable)
            children.append(self.rewrite(node.children[-1], frozenset(inner),
                                         loop_est))
            return self._rebuild(node, tuple(children))
        children = tuple(self.rewrite(child, bound, loop_est)
                         for child in node.children)
        return self._rebuild(node, children)

    def _rewrite_flwor(self, node: PlanNode, bound: frozenset[str],
                       loop_est: float) -> PlanNode:
        nclauses = node.p("nclauses")
        has_where = node.p("has_where")
        clauses = list(node.children[:nclauses])
        rest = list(node.children[nclauses:])

        # rewrite clause binding sequences with the growing binding set,
        # remembering bindings and ambient loop size *before* each clause
        bound_before: list[frozenset[str]] = []
        loop_before: list[float] = []
        inner = set(bound)
        ambient = loop_est
        new_clauses: list[PlanNode] = []
        for clause in clauses:
            bound_before.append(frozenset(inner))
            loop_before.append(ambient)
            sequence = self.rewrite(clause.children[0], frozenset(inner),
                                    ambient)
            inner.add(clause.p("var"))
            if clause.kind == "for" and clause.p("posvar"):
                inner.add(clause.p("posvar"))
            predicates = tuple(
                self.rewrite(predicate, frozenset(inner), ambient)
                for predicate in clause.children[1:])
            new_clause = self._rebuild(clause, (sequence,) + predicates)
            new_clauses.append(new_clause)
            if clause.kind == "for" and self.cost_based:
                ambient *= max(1.0, self.estimator.clause_estimate(new_clause))
        full_bound = frozenset(inner)
        new_rest = [self.rewrite(child, full_bound, ambient) for child in rest]

        where = new_rest[0] if has_where else None
        already_annotated = node.p("join") is not None

        # 1. predicate pushdown: single-variable conjuncts move into clauses
        if self.predicate_pushdown and where is not None \
                and not already_annotated:
            where, new_clauses = self._push_predicates(where, new_clauses)

        # 2. join recognition over the remaining conjuncts
        triples: list[tuple[int, int, int]] = []
        if already_annotated:
            triples = [tuple(triple)
                       for triple in (node.p("joins") or (node.p("join"),))]
        elif self.join_recognition and where is not None:
            triples = self._match_joins(new_clauses, bound_before,
                                        flatten_conjuncts(where))
            for clause_index, conjunct_index, _ in triples:
                clause = new_clauses[clause_index]
                self.report.fire(
                    "join-recognition",
                    f"for ${clause.p('var')} evaluated as a value join "
                    f"(clause {clause_index}, where conjunct {conjunct_index})")

        # 2b. worst-case-optimal multi-way joins: >= 3 loop-invariant for
        #     clauses connected into one component by eq conjuncts execute
        #     as a generic join (the pairwise annotations above stay — they
        #     are the executor's fallback and the wcoj=False baseline)
        wcoj_triples: tuple[tuple[int, int, int], ...] = ()
        if already_annotated:
            wcoj_triples = tuple(tuple(triple)
                                 for triple in (node.p("wcoj") or ()))
        elif self.wcoj and where is not None:
            wcoj_triples = self._match_wcoj(new_clauses, bound_before,
                                            flatten_conjuncts(where))
            if wcoj_triples:
                names = ", ".join(f"${clause.p('var')}"
                                  for clause in new_clauses)
                self.report.fire(
                    "wcoj-recognition",
                    f"{len(new_clauses)}-way value-join clique over {names} "
                    f"evaluated worst-case-optimally "
                    f"({len(wcoj_triples)} eq conjuncts)")

        # 3. cost model: estimates, build sides, execution order
        estimates: tuple[JoinEstimate, ...] = ()
        clause_order: tuple[int, ...] | None = None
        if triples and self.cost_based and where is not None:
            conjuncts = flatten_conjuncts(where)
            estimates = tuple(
                self._estimate_join(triple, new_clauses, conjuncts,
                                    loop_before)
                for triple in triples)
            schedule = self._schedule(new_clauses, estimates, conjuncts)
            if schedule != tuple(range(nclauses)):
                clause_order = schedule
                self.report.fire(
                    "cost-based-join-order",
                    "join clauses scheduled smallest-build-first: "
                    + ", ".join(str(index) for index in schedule))

        # reassemble the node
        tail = new_rest[1:] if has_where else new_rest
        children = tuple(new_clauses) \
            + ((where,) if where is not None else ()) + tuple(tail)
        extra: dict[str, Any] = {}
        if (where is not None) != bool(has_where):
            extra["has_where"] = where is not None
        if triples and not already_annotated:
            extra["join"] = triples[0]
            extra["joins"] = tuple(triples)
        if wcoj_triples and not already_annotated:
            extra["wcoj"] = wcoj_triples
        if clause_order is not None:
            extra["clause_order"] = clause_order
        new_node = self._rebuild(node, children, **extra)
        if estimates:
            self.join_estimates[new_node.id] = estimates
        if wcoj_triples and self.cost_based:
            self.wcoj_estimates[new_node.id] = tuple(
                max(1.0, self.estimator.clause_estimate(clause))
                for clause in new_clauses)
        return new_node

    # ------------------------------------------------------------------ #
    # predicate pushdown
    # ------------------------------------------------------------------ #
    def _push_predicates(self, where: PlanNode, clauses: list[PlanNode]
                         ) -> tuple[PlanNode | None, list[PlanNode]]:
        """Move conjuncts that mention exactly one of this FLWOR's ``for``
        variables (everything else constant) into that variable's clause."""
        conjuncts = flatten_conjuncts(where)
        clause_of_var = {clause.p("var"): index
                         for index, clause in enumerate(clauses)}
        flwor_vars = set(clause_of_var)
        for clause in clauses:
            if clause.kind == "for" and clause.p("posvar"):
                flwor_vars.add(clause.p("posvar"))
        allowed_rest = self.global_names | {"."}

        remaining: list[PlanNode] = []
        pushed: dict[int, list[PlanNode]] = {}
        for conjunct in conjuncts:
            conjunct_free = self.free(conjunct)
            hits = conjunct_free & flwor_vars
            target = None
            if len(hits) == 1:
                variable = next(iter(hits))
                index = clause_of_var.get(variable)
                if index is not None and clauses[index].kind == "for" \
                        and clauses[index].p("posvar") is None \
                        and conjunct_free - {variable} <= allowed_rest:
                    target = index
            if target is None:
                remaining.append(conjunct)
            else:
                pushed.setdefault(target, []).append(conjunct)
                self.report.fire(
                    "predicate-pushdown",
                    f"where conjunct on ${clauses[target].p('var')} pushed "
                    f"into its for clause")
        if not pushed:
            return where, clauses

        new_clauses = list(clauses)
        for index, predicates in pushed.items():
            clause = clauses[index]
            children = clause.children + tuple(predicates)
            new_clauses[index] = self._rebuild(clause, children,
                                               npred=len(children) - 1)
        if not remaining:
            return None, new_clauses
        if len(remaining) == 1:
            return remaining[0], new_clauses
        return self.builder.node("and", tuple(remaining)), new_clauses

    # ------------------------------------------------------------------ #
    # join recognition
    # ------------------------------------------------------------------ #
    def _match_joins(self, clauses: list[PlanNode],
                     bound_before: list[frozenset[str]],
                     conjuncts: list[PlanNode]
                     ) -> list[tuple[int, int, int]]:
        """All (clause, conjunct, v-side) triples forming value joins.

        Clauses are scanned in syntactic order and each claims its first
        eligible conjunct; with multi-join recognition disabled only the
        first triple is returned (the legacy first-syntactic-match rule).
        """
        triples: list[tuple[int, int, int]] = []
        claimed: set[int] = set()
        for clause_index, clause in enumerate(clauses):
            if clause.kind != "for" or clause.p("posvar") is not None:
                continue
            variable = clause.p("var")
            outer = bound_before[clause_index]
            sequence_free = frozenset().union(
                *(self.free(child) for child in clause.children)) - {variable}
            # the binding sequence (and its pushed predicates) must be
            # loop-invariant: no enclosing bindings, no dynamic
            # position()/last() registers (the context document root is
            # re-checked dynamically by the executor)
            if sequence_free & (outer | {"fs:position", "fs:last"}):
                continue
            allowed_other = outer | self.global_names | {"."}
            for conjunct_index, conjunct in enumerate(conjuncts):
                if conjunct_index in claimed:
                    continue
                if conjunct.kind != "cmp-general":
                    continue
                left_free = self.free(conjunct.children[0])
                right_free = self.free(conjunct.children[1])
                triple = None
                if (variable in left_free and variable not in right_free
                        and left_free - {variable, "."} <= self.global_names
                        and right_free <= allowed_other):
                    triple = (clause_index, conjunct_index, 0)
                elif (variable in right_free and variable not in left_free
                        and right_free - {variable, "."} <= self.global_names
                        and left_free <= allowed_other):
                    triple = (clause_index, conjunct_index, 1)
                if triple is not None:
                    triples.append(triple)
                    claimed.add(conjunct_index)
                    break
            if triples and not self.multi_join:
                break
        return triples

    def _match_wcoj(self, clauses: list[PlanNode],
                    bound_before: list[frozenset[str]],
                    conjuncts: list[PlanNode]
                    ) -> tuple[tuple[int, int, int], ...]:
        """``(conjunct, left clause, right clause)`` triples of a multi-way
        value-join clique, or ``()`` when the FLWOR does not qualify.

        Qualification: at least three plain ``for`` clauses (no ``let``, no
        positional variables), every binding sequence loop-invariant (free
        of enclosing bindings, sibling clause variables and the dynamic
        position()/last() registers), and ``eq`` conjuncts whose sides each
        depend on exactly one FLWOR variable connecting *all* clauses into
        one component.  Unlike the pairwise rule, both comparison sides must
        be loop-invariant given their item — they are evaluated once per
        binding item, never per enclosing iteration.
        """
        if len(clauses) < 3:
            return ()
        allowed = self.global_names | {"."}
        clause_of_var: dict[str, int] = {}
        for clause in clauses:
            if clause.kind != "for" or clause.p("posvar") is not None:
                return ()
            clause_of_var[clause.p("var")] = len(clause_of_var)
        if len(clause_of_var) != len(clauses):
            return ()                    # duplicate variable names shadow
        flwor_vars = frozenset(clause_of_var)
        for index, clause in enumerate(clauses):
            sequence_free = frozenset().union(
                *(self.free(child) for child in clause.children)) \
                - {clause.p("var")}
            if sequence_free & (bound_before[index] | flwor_vars
                                | {"fs:position", "fs:last"}):
                return ()
            if sequence_free - allowed:
                return ()
        triples: list[tuple[int, int, int]] = []
        neighbours: dict[int, set[int]] = {index: set()
                                           for index in range(len(clauses))}
        for conjunct_index, conjunct in enumerate(conjuncts):
            if conjunct.kind != "cmp-general" or conjunct.p("op") != "eq":
                continue
            left_free = self.free(conjunct.children[0])
            right_free = self.free(conjunct.children[1])
            left_vars = left_free & flwor_vars
            right_vars = right_free & flwor_vars
            if len(left_vars) != 1 or len(right_vars) != 1:
                continue
            left_var = next(iter(left_vars))
            right_var = next(iter(right_vars))
            if left_var == right_var:
                continue
            if (left_free - {left_var}) - allowed \
                    or (right_free - {right_var}) - allowed:
                continue
            left_clause = clause_of_var[left_var]
            right_clause = clause_of_var[right_var]
            triples.append((conjunct_index, left_clause, right_clause))
            neighbours[left_clause].add(right_clause)
            neighbours[right_clause].add(left_clause)
        if not triples:
            return ()
        seen = {0}
        frontier = [0]
        while frontier:
            for reached in neighbours[frontier.pop()]:
                if reached not in seen:
                    seen.add(reached)
                    frontier.append(reached)
        if len(seen) != len(clauses):
            return ()
        return tuple(triples)

    # ------------------------------------------------------------------ #
    # cost model
    # ------------------------------------------------------------------ #
    def _estimate_join(self, triple: tuple[int, int, int],
                       clauses: list[PlanNode], conjuncts: list[PlanNode],
                       loop_before: list[float]) -> JoinEstimate:
        clause_index, conjunct_index, v_side = triple
        build = self.estimator.clause_estimate(clauses[clause_index])
        other = conjuncts[conjunct_index].children[1 - v_side]
        probe = loop_before[clause_index] * self.estimator.estimate(other)
        build_side = "binding" if build <= probe else "outer"
        return JoinEstimate(clause=clause_index, conjunct=conjunct_index,
                            side=v_side, build_rows=build, probe_rows=probe,
                            build_side=build_side)

    def _schedule(self, clauses: list[PlanNode],
                  estimates: tuple[JoinEstimate, ...],
                  conjuncts: list[PlanNode]) -> tuple[int, ...]:
        """Execution order of the clauses: join clauses float to the
        earliest dependency-respecting slot, smallest build side first;
        all other clauses keep their relative syntactic order."""
        join_by_clause = {estimate.clause: estimate for estimate in estimates}
        names_of: list[set[str]] = []
        for clause in clauses:
            names = {clause.p("var")}
            if clause.kind == "for" and clause.p("posvar"):
                names.add(clause.p("posvar"))
            names_of.append(names)

        total = len(clauses)
        deps: list[set[int]] = []
        for index, clause in enumerate(clauses):
            estimate = join_by_clause.get(index)
            if estimate is None:
                # non-join clauses never move
                deps.append(set(range(index)))
                continue
            needed = frozenset().union(
                *(self.free(child) for child in clause.children))
            needed |= self.free(conjuncts[estimate.conjunct])
            deps.append({earlier for earlier in range(index)
                         if needed & names_of[earlier]})

        scheduled: list[int] = []
        done: set[int] = set()
        while len(scheduled) < total:
            ready = [index for index in range(total)
                     if index not in done and deps[index] <= done]
            join_ready = [index for index in ready if index in join_by_clause]
            if join_ready:
                pick = min(join_ready,
                           key=lambda index:
                           (join_by_clause[index].build_rows, index))
            else:
                pick = min(index for index in ready)
            scheduled.append(pick)
            done.add(pick)
        return tuple(scheduled)


# --------------------------------------------------------------------------- #
# projection pushdown (required-columns analysis)
# --------------------------------------------------------------------------- #
def _required_columns(roots: list[PlanNode],
                      functions: dict[str, Any]) -> dict[int, frozenset[str]]:
    """Propagate required ``iter|pos|item`` columns from the roots down.

    Every root must deliver the full encoding; order- and position-free
    contexts relax the requirement for their inputs.  The result maps node
    ids to the union of the requirements imposed by all consumers.
    """
    user_functions = {_strip_fn(name) for name in functions}
    required: dict[int, frozenset[str]] = {}
    worklist: list[tuple[PlanNode, frozenset[str]]] = [
        (root, FULL_COLUMNS) for root in roots]

    while worklist:
        node, req = worklist.pop()
        merged = required.get(node.id, frozenset()) | req
        if merged == required.get(node.id):
            continue
        required[node.id] = merged
        for child, child_req in _child_requirements(node, merged,
                                                    user_functions):
            worklist.append((child, child_req))
    return required


def _child_requirements(node: PlanNode, req: frozenset[str],
                        user_functions: set[str]
                        ) -> list[tuple[PlanNode, frozenset[str]]]:
    kind = node.kind
    children = node.children
    if kind == "call":
        name = _strip_fn(node.p("name"))
        if name in user_functions:
            return [(child, FULL_COLUMNS) for child in children]
        if name in _ORDER_FREE_AGGREGATES:
            child_req = ITER_ONLY if name in ("count", "exists", "empty") \
                else NO_POS
            return [(child, child_req) for child in children]
        if name in _FIRST_ITEM_FUNCTIONS:
            return [(child, NO_POS) for child in children]
        return [(child, FULL_COLUMNS) for child in children]
    if kind in ("cmp-general", "cmp-value", "arith", "unary", "range",
                "and", "or"):
        return [(child, NO_POS) for child in children]
    if kind == "if":
        condition, then_branch, else_branch = children
        return [(condition, NO_POS), (then_branch, req), (else_branch, req)]
    if kind == "seq":
        if "pos" in req:
            child_req = FULL_COLUMNS
        elif "item" in req:
            child_req = NO_POS
        else:
            # pure-cardinality consumer: concatenation preserves the
            # per-iteration row counts, so the branches need no items either
            child_req = ITER_ONLY
        return [(child, child_req) for child in children]
    if kind == "flwor":
        nclauses = node.p("nclauses")
        has_where = node.p("has_where")
        norder = node.p("norder")
        out: list[tuple[PlanNode, frozenset[str]]] = []
        for clause in children[:nclauses]:
            if clause.kind == "for" and clause.p("posvar") is None:
                out.append((clause.children[0], NO_POS))
            else:
                out.append((clause.children[0], FULL_COLUMNS))
            # pushed-down predicates are per-item EBV verdicts
            for predicate in clause.children[1:]:
                out.append((predicate, NO_POS))
        index = nclauses
        if has_where:
            out.append((children[index], NO_POS))
            index += 1
        for spec in children[index:index + norder]:
            out.append((spec.children[0], NO_POS))
        return_child = children[-1]
        if norder > 0 or "pos" in req:
            out.append((return_child, FULL_COLUMNS))
        elif "item" in req:
            out.append((return_child, NO_POS))
        else:
            # the back-mapping join consumes only iteration numbers; under
            # a pure-cardinality consumer the returned items are dead too
            out.append((return_child, ITER_ONLY))
        return out
    if kind == "quantified":
        return [(child, NO_POS) for child in children]
    if kind == "step":
        # location steps read only (iter, item) of their context; predicate
        # verdicts are per-inner-iteration EBV / numeric values
        return [(children[0], NO_POS)] + [(predicate, NO_POS)
                                          for predicate in children[1:]]
    if kind == "filter":
        # positional predicates address the base by its pos column
        return [(children[0], FULL_COLUMNS)] + [(predicate, NO_POS)
                                                for predicate in children[1:]]
    if kind in ("elem", "avt", "text"):
        return [(child, NO_POS) for child in children]
    return [(child, FULL_COLUMNS) for child in children]
