"""Plan-to-Python codegen: the executor — one closure per plan operator.

This module compiles an :class:`~repro.relational.rewrites.
OptimizedModulePlan` **once at prepare time** into one specialized Python
closure per plan operator (closure composition — the approach DevilsDatabase
takes for value expressions, one level up).  The closures are the *only*
way a plan node executes; there is no interpreting twin beside them:

* every static decision is resolved at codegen time: operator params,
  comparison operators and strategies, need_pos/need_item column
  requirements, join schedules and estimates, fused-chain specs (including
  positional ``[k]``/``[last()]`` predicates), builtin and user-function
  lookups,
* constant operands of arithmetic / comparisons / logic skip the
  ``lift_constant`` table churn entirely (their per-iteration values and
  effective boolean values are precomputed),
* the subplan-cache and CSE-memoisation wrappers are baked into each
  closure (:meth:`_ClosureBuilder._wrap`),
* ``for``/``let``/``orderspec``/``avt`` nodes are structural: the enclosing
  ``flwor``/``quantified``/``elem`` closure consumes them inline,
* dynamic errors stay dynamic: an unknown function, a wrong user-function
  arity or a recursive user function compile to closures that raise at
  *run* time, so ``prepare()``/``explain()`` succeed on any parsable query.

Each closure has the signature ``fn(rt, loop, env) -> Table`` where ``rt``
is the per-execution :class:`~repro.xquery.compiler.LoopLiftingCompiler`
(carrying the run-scoped state: memo tables, staircase stats, the engine
view, and the join/predicate/ordering run-time the closures call into).
The :class:`CompiledProgram` itself is immutable and shared — it is cached
on :class:`~repro.xquery.engine.PreparedQuery` next to the plan, so
plan-cache keying (query + options + store version) invalidates both
together, and process-pool workers rebuild it cheaply in their warm
per-generation engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import XQueryRuntimeError, XQueryTypeError, XQueryUnsupportedError
from ..relational import explain
from ..relational import operators as ops
from ..relational.plan import PlanNode
from ..relational.rewrites import (OptimizedModulePlan, flatten_conjuncts,
                                   positional_predicate_spec)
from ..relational.sorting import sort
from ..staircase.axes import NodeTest
from ..xml.document import NodeRef
from . import functions
from .constructors import construct_element, construct_text
from .joins import existential_compare
from .sequences import (back_map, empty_sequence, for_binding,
                        from_iter_items, items_by_iteration, lift_constant,
                        lift_environment, lift_items, make_loop,
                        restrict_sequence, singleton_per_iter,
                        singleton_values)
from .steps import StepOptions, axis_step, axis_step_chain
from .types import atomize, effective_boolean_value, to_number, to_string

#: structural operators without a closure of their own: the enclosing
#: ``flwor`` / ``elem`` closure consumes them inline
_STRUCTURAL = frozenset({"for", "let", "orderspec", "avt"})

#: argless builtins that consume the implicit context item
_CONTEXT_BUILTINS = ("string", "data", "number", "name", "local-name")


@dataclass(frozen=True)
class CompiledProgram:
    """The compiled form of one optimized plan: closures keyed by node id.

    Shared between executions (and threads): the closures close only over
    static plan facts; all run-scoped state lives on the ``rt`` argument.
    """

    by_id: dict[int, Callable] = field(repr=False)
    #: node id -> reason a node has no closure: always empty, every operator
    #: compiles (read by the benchmark's layer view)
    fallbacks: dict[int, str] = field(default_factory=dict, repr=False)

    @property
    def compiled_count(self) -> int:
        return len(self.by_id)


def compile_plan(optimized: OptimizedModulePlan, options: Any
                 ) -> CompiledProgram:
    """Compile every operator of an optimized plan — body, globals and
    user-function bodies — to a closure."""
    builder = _ClosureBuilder(optimized, options)
    for root in optimized.roots():
        for node in root.walk():
            if node.kind not in _STRUCTURAL:
                builder.closure(node)
    return CompiledProgram(by_id=builder.by_id)


class _ClosureBuilder:
    """Walks the plan DAG once, emitting one closure per operator."""

    def __init__(self, plan: OptimizedModulePlan, options: Any):
        self.plan = plan
        self.options = options
        self.by_id: dict[int, Callable] = {}
        # every option consulted per node, resolved once
        self.order_opt = options.order_optimization
        self.step_fusion = getattr(options, "step_fusion", True)
        self.existential_strategy = "auto" \
            if options.existential_aggregates else "dedup"
        self.step_options = StepOptions(
            loop_lifted_child=options.loop_lifted_child,
            loop_lifted_descendant=options.loop_lifted_descendant,
            loop_lifted_other=options.loop_lifted_other,
            nametest_pushdown=options.nametest_pushdown,
        )
        self.typed_columns = getattr(options, "typed_columns", True)

    # ------------------------------------------------------------------ #
    # closure lookup / wrapping
    # ------------------------------------------------------------------ #
    def closure(self, node: PlanNode) -> Callable:
        """The executable closure of a node (generated and wrapped once)."""
        fn = self.by_id.get(node.id)
        if fn is None:
            generate = getattr(self, "_gen_" + node.kind.replace("-", "_"))
            fn = self.by_id[node.id] = self._wrap(node, generate(node))
        return fn

    def _wrap(self, node: PlanNode, raw: Callable) -> Callable:
        """Bake the entry-point semantics of a node into its closure: the
        cross-query subplan-cache consultation, then the shared-subplan
        (CSE) memoisation.  Nodes with neither stay raw."""
        fingerprint = self.plan.cache_keys.get(node.id)
        shared = node.id in self.plan.shared \
            and node.id not in self.plan.impure
        if fingerprint is None and not shared:
            return raw
        kind = node.kind

        def wrapped(rt, loop, env, node=node, fingerprint=fingerprint,
                    shared=shared, raw=raw, kind=kind):
            if fingerprint is not None and rt._subplan_cache is not None:
                materialized = rt._materialized_subplan(
                    node, fingerprint, loop, env, evaluate=raw)
                if materialized is not None:
                    return materialized
            if not shared:
                return raw(rt, loop, env)
            key = rt._memo_key(node, loop, env)
            hit = rt._memo.get(key)
            if hit is not None:
                explain.record("plan", "plan.cse.reuse", hit.row_count,
                               hit.row_count, detail=kind)
                return hit
            result = raw(rt, loop, env)
            rt._memo[key] = result
            return result
        return wrapped

    # ------------------------------------------------------------------ #
    # static column requirements (resolved once, not per execution)
    # ------------------------------------------------------------------ #
    def _needs_pos(self, node: PlanNode) -> bool:
        return "pos" in self.plan.required_columns(node)

    def _needs_item(self, node: PlanNode) -> tuple[bool, bool]:
        """Whether any consumer reads the ``item`` column of this node,
        as (static verdict, cache-dependent bit).

        ``False`` (only under the ``typed_columns`` ablation) lets the step
        kernels skip value materialisation entirely — pure-cardinality
        consumers such as ``count()`` read ``iter`` alone.  The one dynamic
        input is whether a cross-query subplan cache is attached:
        cache-marked nodes must materialise items for *other* queries'
        consumers, which the required-columns analysis of this plan knows
        nothing about — so the closure evaluates
        ``static or (cache_dependent and rt._subplan_cache is not None)``.
        """
        if not self.typed_columns:
            return True, False
        static = "item" in self.plan.required_columns(node)
        cache_dependent = not static \
            and self.plan.cache_keys.get(node.id) is not None
        return static, cache_dependent

    # ------------------------------------------------------------------ #
    # operand sources: per-iteration views with constant fast paths
    # ------------------------------------------------------------------ #
    def _inline_const(self, child: PlanNode) -> bool:
        """A constant operand's per-iteration view can be built directly
        (no lifted table) — except for shared consts, which keep going
        through their memoising closure."""
        return child.kind == "const" and child.id not in self.plan.shared

    def _scalar_source(self, child: PlanNode) -> Callable:
        """``fn(rt, loop, env) -> {iteration: first item}``.  A constant
        operand skips the lifted table entirely — its singleton view is a
        direct per-iteration dict of the literal."""
        if self._inline_const(child):
            value = child.p("value")
            return lambda rt, loop, env: dict.fromkeys(loop.col("iter"),
                                                       value)
        fn = self.closure(child)
        return lambda rt, loop, env: singleton_values(fn(rt, loop, env))

    def _grouped_source(self, child: PlanNode) -> Callable:
        """``fn(rt, loop, env) -> {iteration: [items]}`` (sequence view)."""
        if self._inline_const(child):
            value = child.p("value")
            return lambda rt, loop, env: {
                iteration: [value] for iteration in loop.col("iter")}
        fn = self.closure(child)
        return lambda rt, loop, env: items_by_iteration(fn(rt, loop, env))

    def _ebv_source(self, child: PlanNode) -> Callable:
        """``fn(rt, loop, env) -> {iteration: effective boolean value}``.
        Constant operands precompute their EBV at codegen time."""
        if self._inline_const(child):
            verdict = effective_boolean_value([child.p("value")])
            return lambda rt, loop, env: dict.fromkeys(loop.col("iter"),
                                                       verdict)
        fn = self.closure(child)

        def source(rt, loop, env):
            grouped = items_by_iteration(fn(rt, loop, env))
            return {iteration: effective_boolean_value(
                        grouped.get(iteration, []))
                    for iteration in loop.col("iter")}
        return source

    # ------------------------------------------------------------------ #
    # literals, variables, sequences
    # ------------------------------------------------------------------ #
    def _gen_const(self, node: PlanNode) -> Callable:
        value = node.p("value")
        return lambda rt, loop, env: lift_constant(loop, value)

    def _gen_empty(self, node: PlanNode) -> Callable:
        return lambda rt, loop, env: empty_sequence()

    def _gen_var(self, node: PlanNode) -> Callable:
        name = node.p("name")

        def fn(rt, loop, env):
            table = env.get(name)
            if table is not None:
                return table
            if name in rt.global_items:
                return lift_items(loop, rt.global_items[name])
            raise XQueryRuntimeError(f"unbound variable ${name}")
        return fn

    def _gen_context(self, node: PlanNode) -> Callable:
        def fn(rt, loop, env):
            table = env.get(".")
            if table is None:
                raise XQueryRuntimeError("the context item is undefined here")
            return table
        return fn

    def _gen_root(self, node: PlanNode) -> Callable:
        def fn(rt, loop, env):
            context = env.get(".")
            if context is None:
                raise XQueryRuntimeError(
                    "absolute path used without a context document")
            values: dict[int, Any] = {}
            for iteration, item in zip(context.col("iter"),
                                       context.col("item")):
                if not isinstance(item, NodeRef):
                    raise XQueryTypeError("the context item is not a node")
                values.setdefault(
                    iteration, NodeRef(item.container,
                                       item.container.root_pre(item.pre)))
            return singleton_per_iter(loop, values)
        return fn

    def _gen_seq(self, node: PlanNode) -> Callable:
        part_fns = [self.closure(child) for child in node.children]
        need_pos = self._needs_pos(node)

        def fn(rt, loop, env):
            return rt._concatenate([part(rt, loop, env) for part in part_fns],
                                   need_pos=need_pos)
        return fn

    def _gen_range(self, node: PlanNode) -> Callable:
        start_src = self._scalar_source(node.children[0])
        end_src = self._scalar_source(node.children[1])

        def fn(rt, loop, env):
            start = start_src(rt, loop, env)
            end = end_src(rt, loop, env)
            pairs: list[tuple[int, Any]] = []
            for iteration in loop.col("iter"):
                low = to_number(start.get(iteration))
                high = to_number(end.get(iteration))
                if low is None or high is None:
                    continue
                for value in range(int(low), int(high) + 1):
                    pairs.append((iteration, value))
            return from_iter_items(pairs)
        return fn

    # ------------------------------------------------------------------ #
    # arithmetic, comparisons, logic
    # ------------------------------------------------------------------ #
    def _gen_arith(self, node: PlanNode) -> Callable:
        left_src = self._scalar_source(node.children[0])
        right_src = self._scalar_source(node.children[1])
        op = node.p("op")
        arithmetic = ops.arithmetic

        def fn(rt, loop, env):
            left = left_src(rt, loop, env)
            right = right_src(rt, loop, env)
            values: dict[int, Any] = {}
            for iteration in loop.col("iter"):
                if iteration not in left or iteration not in right:
                    continue
                result = arithmetic(op, atomize(left[iteration]),
                                    atomize(right[iteration]))
                if result is not None:
                    values[iteration] = result
            return singleton_per_iter(loop, values)
        return fn

    def _gen_unary(self, node: PlanNode) -> Callable:
        operand_src = self._scalar_source(node.children[0])
        negate = node.p("negate")

        def fn(rt, loop, env):
            operand = operand_src(rt, loop, env)
            values: dict[int, Any] = {}
            for iteration in loop.col("iter"):
                if iteration not in operand:
                    continue
                number = to_number(operand[iteration])
                if number is None:
                    continue
                values[iteration] = -number if negate else number
            return singleton_per_iter(loop, values)
        return fn

    def _gen_cmp_value(self, node: PlanNode) -> Callable:
        left_src = self._scalar_source(node.children[0])
        right_src = self._scalar_source(node.children[1])
        op = node.p("op")
        compare_values = ops.compare_values

        def fn(rt, loop, env):
            left = left_src(rt, loop, env)
            right = right_src(rt, loop, env)
            values: dict[int, Any] = {}
            for iteration in loop.col("iter"):
                if iteration not in left or iteration not in right:
                    continue
                values[iteration] = compare_values(
                    op, atomize(left[iteration]), atomize(right[iteration]))
            return singleton_per_iter(loop, values)
        return fn

    def _gen_cmp_general(self, node: PlanNode) -> Callable:
        left_src = self._grouped_source(node.children[0])
        right_src = self._grouped_source(node.children[1])
        op = node.p("op")
        strategy = self.existential_strategy

        def fn(rt, loop, env):
            true_iterations = existential_compare(
                left_src(rt, loop, env), right_src(rt, loop, env), op,
                strategy=strategy)
            values = {iteration: iteration in true_iterations
                      for iteration in loop.col("iter")}
            return singleton_per_iter(loop, values)
        return fn

    def _gen_and(self, node: PlanNode) -> Callable:
        operand_srcs = [self._ebv_source(child) for child in node.children]

        def fn(rt, loop, env):
            verdict = dict.fromkeys(loop.col("iter"), True)
            for source in operand_srcs:
                partial = source(rt, loop, env)
                for iteration in verdict:
                    verdict[iteration] = verdict[iteration] \
                        and partial.get(iteration, False)
            return singleton_per_iter(loop, verdict)
        return fn

    def _gen_or(self, node: PlanNode) -> Callable:
        operand_srcs = [self._ebv_source(child) for child in node.children]

        def fn(rt, loop, env):
            verdict = dict.fromkeys(loop.col("iter"), False)
            for source in operand_srcs:
                partial = source(rt, loop, env)
                for iteration in verdict:
                    verdict[iteration] = verdict[iteration] \
                        or partial.get(iteration, False)
            return singleton_per_iter(loop, verdict)
        return fn

    def _gen_if(self, node: PlanNode) -> Callable:
        condition_src = self._ebv_source(node.children[0])
        then_fn = self.closure(node.children[1])
        else_fn = self.closure(node.children[2])
        order_opt = self.order_opt

        def fn(rt, loop, env):
            verdict = condition_src(rt, loop, env)
            then_iters = [it for it in loop.col("iter")
                          if verdict.get(it, False)]
            else_iters = [it for it in loop.col("iter")
                          if not verdict.get(it, False)]
            parts = []
            if then_iters:
                then_loop = make_loop(then_iters)
                then_env = {name: restrict_sequence(table, then_iters)
                            for name, table in env.items()}
                parts.append(then_fn(rt, then_loop, then_env))
            if else_iters:
                else_loop = make_loop(else_iters)
                else_env = {name: restrict_sequence(table, else_iters)
                            for name, table in env.items()}
                parts.append(else_fn(rt, else_loop, else_env))
            parts = [part for part in parts if part.row_count]
            if not parts:
                return empty_sequence()
            merged = ops.union_all(parts)
            return sort(merged, ("iter", "pos"), use_properties=order_opt)
        return fn

    # ------------------------------------------------------------------ #
    # FLWOR
    # ------------------------------------------------------------------ #
    def _gen_flwor(self, node: PlanNode) -> Callable:
        options = self.options
        nclauses = node.p("nclauses")
        has_where = node.p("has_where")
        norder = node.p("norder")
        clauses = node.children[:nclauses]
        where = node.children[nclauses] if has_where else None
        spec_start = nclauses + (1 if has_where else 0)
        orderspecs = node.children[spec_start:spec_start + norder]
        return_node = node.children[-1]

        conjuncts = flatten_conjuncts(where) if where is not None else []
        conjunct_srcs = [self._ebv_source(conjunct) for conjunct in conjuncts]

        wcoj_spec = node.p("wcoj")
        use_wcoj = (wcoj_spec is not None and options.join_recognition
                    and getattr(options, "wcoj", True))

        join_by_clause: dict[int, tuple[int, int, int]] = {}
        estimate_by_clause: dict[int, Any] = {}
        if options.join_recognition and node.p("join") is not None:
            triples = node.p("joins") or (node.p("join"),)
            join_by_clause = {triple[0]: tuple(triple) for triple in triples}
            for estimate in self.plan.join_estimates.get(node.id, ()):
                estimate_by_clause[estimate.clause] = estimate

        schedule = tuple(range(nclauses))
        if join_by_clause and options.cost_based_joins:
            annotated = node.p("clause_order")
            if annotated is not None \
                    and sorted(annotated) == list(range(nclauses)):
                schedule = tuple(annotated)
        reordered = schedule != tuple(range(nclauses))

        # per clause (syntactic order): the static facts + binding closure
        clause_info = []
        for clause in clauses:
            clause_info.append((clause, clause.kind == "let",
                                clause.p("var"), clause.p("posvar"),
                                self.closure(clause.children[0]),
                                clause.children[1:]))

        body_fn = self.closure(return_node)
        need_pos = self._needs_pos(node) or norder > 0
        order_opt = self.order_opt

        def fn(rt, loop, env):
            wcoj_state = None
            if use_wcoj:
                wcoj_state = rt._execute_wcoj(clauses, conjuncts, wcoj_spec,
                                              loop, env)
            if wcoj_state is not None:
                tuple_map, current_loop, current_env, consumed = wcoj_state
            else:
                current_loop = loop
                current_env = dict(env)
                tuple_map = None
                consumed = set()
                clause_keys = {iteration: {}
                               for iteration in loop.col("iter")} \
                    if reordered else None

                for index in schedule:
                    clause, is_let, var, posvar, seq_fn, predicates = \
                        clause_info[index]
                    if is_let:
                        current_env[var] = seq_fn(rt, current_loop,
                                                  current_env)
                        continue
                    triple = join_by_clause.get(index)
                    if triple is not None:
                        join_plan = rt._execute_join(
                            clause, conjuncts[triple[1]], triple[2],
                            current_loop, current_env,
                            estimate=estimate_by_clause.get(index))
                        if join_plan is not None:
                            scope_map, inner_loop, bindings, ranks = join_plan
                            current_env = lift_environment(current_env,
                                                           scope_map)
                            current_env.update(bindings)
                            tuple_map = rt._compose_maps(tuple_map, scope_map)
                            if clause_keys is not None:
                                clause_keys = rt._advance_clause_keys(
                                    clause_keys, index, scope_map, ranks)
                            current_loop = inner_loop
                            consumed.add(triple[1])
                            continue
                    sequence = seq_fn(rt, current_loop, current_env)
                    if predicates:
                        sequence = rt._filter_binding(sequence, var,
                                                      predicates, current_env)
                    scope_map, inner_loop, variable, positions = for_binding(
                        sequence, use_properties=order_opt)
                    current_env = lift_environment(current_env, scope_map)
                    current_env[var] = variable
                    if posvar:
                        current_env[posvar] = positions
                    tuple_map = rt._compose_maps(tuple_map, scope_map)
                    if clause_keys is not None:
                        clause_keys = rt._advance_clause_keys(
                            clause_keys, index, scope_map,
                            list(positions.col("item")))
                    current_loop = inner_loop

                if reordered and tuple_map is not None:
                    current_loop, current_env, tuple_map = \
                        rt._restore_clause_order(
                            loop, current_loop, current_env, tuple_map,
                            clause_keys, nclauses)

            remaining = [index for index in range(len(conjuncts))
                         if index not in consumed]
            if remaining:
                verdict = dict.fromkeys(current_loop.col("iter"), True)
                for index in remaining:
                    partial = conjunct_srcs[index](rt, current_loop,
                                                   current_env)
                    for iteration in verdict:
                        verdict[iteration] = verdict[iteration] \
                            and partial.get(iteration, False)
                surviving = [it for it in current_loop.col("iter")
                             if verdict.get(it, False)]
                current_loop = make_loop(surviving)
                current_env = {name: restrict_sequence(table, surviving)
                               for name, table in current_env.items()}

            order_keys = None
            if orderspecs:
                order_keys = rt._order_by_ranks(orderspecs, current_loop,
                                                current_env)

            body = body_fn(rt, current_loop, current_env)

            if tuple_map is None:
                if order_keys is not None:
                    raise XQueryUnsupportedError(
                        "order by requires at least one for clause")
                return body
            return back_map(tuple_map, body, order_keys=order_keys,
                            use_properties=order_opt, need_pos=need_pos)
        return fn

    # ------------------------------------------------------------------ #
    # quantified expressions
    # ------------------------------------------------------------------ #
    def _gen_quantified(self, node: PlanNode) -> Callable:
        variables = node.p("variables")
        quantifier = node.p("quantifier")
        sequence_fns = [self.closure(child) for child in node.children[:-1]]
        verdict_src = self._ebv_source(node.children[-1])
        order_opt = self.order_opt

        def fn(rt, loop, env):
            current_loop = loop
            current_env = dict(env)
            tuple_map = None
            for variable, seq_fn in zip(variables, sequence_fns):
                sequence = seq_fn(rt, current_loop, current_env)
                scope_map, inner_loop, bound, _ = for_binding(
                    sequence, use_properties=order_opt)
                current_env = lift_environment(current_env, scope_map)
                current_env[variable] = bound
                tuple_map = rt._compose_maps(tuple_map, scope_map)
                current_loop = inner_loop

            verdict = verdict_src(rt, current_loop, current_env)
            per_outer: dict[int, list[bool]] = {}
            if tuple_map is None:
                per_outer = {iteration: [] for iteration in loop.col("iter")}
            else:
                for outer, inner in zip(tuple_map.col("outer"),
                                        tuple_map.col("inner")):
                    per_outer.setdefault(outer, []).append(
                        verdict.get(inner, False))
            values: dict[int, bool] = {}
            for iteration in loop.col("iter"):
                outcomes = per_outer.get(iteration, [])
                values[iteration] = any(outcomes) if quantifier == "some" \
                    else all(outcomes)
            return singleton_per_iter(loop, values)
        return fn

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    def _chain_nodes(self, node: PlanNode, *, trim_at_cache: bool
                     ) -> list[PlanNode] | None:
        """The step nodes (head first) of the node's fused chain for one
        cache configuration.

        The rewrite analysis annotated the maximal absorbable chain length
        (only through steps that are predicate-free or carry a single
        positional predicate).  With ``trim_at_cache`` a cache-marked
        interior node stays a chain boundary — its materialised item
        sequence is shared with other queries, so it is evaluated
        standalone (consulting and populating its cache slot) and the
        chain is trimmed above it.  ``None`` when fewer than two steps
        survive (the per-step path runs instead)."""
        if not self.step_fusion:
            return None
        length = self.plan.fused_chains.get(node.id, 0)
        if length < 2:
            return None
        chain = [node]
        current = node
        while len(chain) < length:
            deeper = current.children[0]
            if trim_at_cache and deeper.id in self.plan.cache_keys:
                break
            chain.append(deeper)
            current = deeper
        if len(chain) < 2:
            return None
        return chain

    def _chain_runner(self, chain: list[PlanNode] | None
                      ) -> Callable | None:
        """A closure running one precomputed fused chain (specs resolved,
        positional predicates included) through ``axis_step_chain``."""
        if chain is None:
            return None
        head = chain[0]
        base_fn = self.closure(chain[-1].children[0])
        specs = []
        for step in reversed(chain):
            name = step.p("test_name")
            pos_spec = positional_predicate_spec(step.children[1]) \
                if len(step.children) > 1 else None
            specs.append((step.p("axis"),
                          NodeTest(kind=step.p("test_kind"),
                                   name=name if name not in (None, "*")
                                   else None),
                          pos_spec))
        item_static, item_cache_dep = self._needs_item(head)
        step_options = self.step_options

        def run(rt, loop, env):
            return axis_step_chain(
                base_fn(rt, loop, env), specs, options=step_options,
                stats=rt.step_stats,
                need_item=item_static or (item_cache_dep
                                          and rt._subplan_cache is not None))
        return run

    def _gen_step(self, node: PlanNode) -> Callable:
        context_fn = self.closure(node.children[0])
        predicates = node.children[1:]
        name = node.p("test_name")
        node_test = NodeTest(kind=node.p("test_kind"),
                             name=name if name not in (None, "*") else None)
        axis = node.p("axis")
        step_options = self.step_options
        order_opt = self.order_opt
        item_static, item_cache_dep = self._needs_item(node)
        need_pos = self._needs_pos(node)

        # the fused-chain decision is static except for one bit — whether a
        # cross-query subplan cache is attached (cache-marked interior nodes
        # must stay chain boundaries so their slots keep materialising) —
        # so both variants are precompiled and the runtime picks by that bit
        plain_chain = self._chain_nodes(node, trim_at_cache=False)
        trimmed_chain = self._chain_nodes(node, trim_at_cache=True)
        run_plain = self._chain_runner(plain_chain)
        if trimmed_chain is not None and plain_chain is not None \
                and [n.id for n in trimmed_chain] \
                == [n.id for n in plain_chain]:
            run_trimmed = run_plain
        else:
            run_trimmed = self._chain_runner(trimmed_chain)

        if not predicates:
            def fn(rt, loop, env):
                runner = run_trimmed if rt._subplan_cache is not None \
                    else run_plain
                if runner is not None:
                    return runner(rt, loop, env)
                return axis_step(
                    context_fn(rt, loop, env), axis, node_test,
                    options=step_options, stats=rt.step_stats,
                    need_item=item_static or (
                        item_cache_dep and rt._subplan_cache is not None))
            return fn

        def fn(rt, loop, env):
            runner = run_trimmed if rt._subplan_cache is not None \
                else run_plain
            if runner is not None:
                return runner(rt, loop, env)
            # predicates need positions relative to each context node: a
            # nested iteration scope with one iteration per context node
            context = context_fn(rt, loop, env)
            scope_map, sub_loop, dot, _ = for_binding(
                context, use_properties=order_opt)
            produced = axis_step(dot, axis, node_test, options=step_options,
                                 stats=rt.step_stats)
            sub_env = lift_environment(env, scope_map)
            sub_env["."] = dot
            filtered = rt._apply_predicates(produced, predicates, sub_loop,
                                            sub_env, reverse=axis.is_reverse)
            merged = back_map(scope_map, filtered, use_properties=order_opt)
            return rt._nodes_in_document_order(merged, need_pos=need_pos)
        return fn

    def _gen_filter(self, node: PlanNode) -> Callable:
        base_fn = self.closure(node.children[0])
        predicates = node.children[1:]

        def fn(rt, loop, env):
            return rt._apply_predicates(base_fn(rt, loop, env), predicates,
                                        loop, env)
        return fn

    # ------------------------------------------------------------------ #
    # function calls
    # ------------------------------------------------------------------ #
    def _gen_call(self, node: PlanNode) -> Callable:
        name = node.p("name")
        if name.startswith("fn:"):
            name = name[3:]

        if name == "position" and not node.children:
            def fn(rt, loop, env):
                table = env.get("fs:position")
                if table is None:
                    raise XQueryRuntimeError(
                        "position() used outside a predicate")
                return table
            return fn
        if name == "last" and not node.children:
            def fn(rt, loop, env):
                table = env.get("fs:last")
                if table is None:
                    raise XQueryRuntimeError(
                        "last() used outside a predicate")
                return table
            return fn

        planned = self.plan.functions.get(node.p("name")) \
            or self.plan.functions.get(name)
        if planned is not None:
            return self._gen_user_call(node, planned)
        if not functions.is_builtin(name):
            # a dynamic error: prepare()/explain() must keep succeeding
            return lambda rt, loop, env: functions.lookup(name)
        implementation = functions.lookup(name)

        if name in _CONTEXT_BUILTINS and not node.children:
            def fn(rt, loop, env):
                context = env.get(".")
                if context is None:
                    raise XQueryRuntimeError(
                        "the context item is undefined here")
                return implementation(rt, loop, [context])
            return fn

        argument_fns = [self.closure(argument)
                        for argument in node.children]

        def fn(rt, loop, env):
            return implementation(
                rt, loop, [argument(rt, loop, env)
                           for argument in argument_fns])
        return fn

    def _gen_user_call(self, node: PlanNode, planned) -> Callable:
        """A (non-recursive) user-function call: the body closure runs
        under an environment holding only the parameters.  The body is
        looked up at run time — it compiles as its own root, and resolving
        it here would not terminate on a recursive declaration."""
        function = planned.name
        parameters = planned.parameters
        argument_fns = [self.closure(argument)
                        for argument in node.children]
        body_id = planned.body.id
        by_id = self.by_id

        def fn(rt, loop, env):
            if function in rt._call_stack:
                raise XQueryUnsupportedError(
                    f"recursive user function {function}() is not "
                    "supported by the eager loop-lifting evaluator")
            if len(argument_fns) != len(parameters):
                raise XQueryTypeError(
                    f"{function}() expects {len(parameters)} "
                    f"arguments, got {len(argument_fns)}")
            call_env = {parameter: argument(rt, loop, env)
                        for parameter, argument
                        in zip(parameters, argument_fns)}
            rt._call_stack.append(function)
            try:
                return by_id[body_id](rt, loop, call_env)
            finally:
                rt._call_stack.pop()
        return fn

    # ------------------------------------------------------------------ #
    # constructors (into the execution's transient container)
    # ------------------------------------------------------------------ #
    def _spec_source(self, spec, children) -> Callable:
        """``fn(rt, loop, env) -> [str | {iteration: [items]}]``: a
        content/template spec with every ``"e"`` slot evaluated (in order)
        and the literal text parts passed through."""
        expressions = iter(children)
        parts = [self._grouped_source(next(expressions)) if part == "e"
                 else part[1] for part in spec]
        return lambda rt, loop, env: [
            part if isinstance(part, str) else part(rt, loop, env)
            for part in parts]

    def _string_source(self, spec, children) -> Callable:
        """``fn(rt, loop, env) -> {iteration: str}``: the literal parts
        joined with the space-separated string values of each ``{expr}``."""
        parts_src = self._spec_source(spec, children)

        def source(rt, loop, env):
            parts = parts_src(rt, loop, env)
            return {iteration: "".join(
                        part if isinstance(part, str)
                        else " ".join(map(to_string,
                                          part.get(iteration, ())))
                        for part in parts)
                    for iteration in loop.col("iter")}
        return source

    def _gen_elem(self, node: PlanNode) -> Callable:
        name = node.p("name")
        attr_names = node.p("attr_names")
        attr_srcs = [self._string_source(template.p("spec"),
                                         template.children)
                     for template in node.children[:len(attr_names)]]
        content_src = self._spec_source(node.p("content_spec"),
                                        node.children[len(attr_names):])

        def fn(rt, loop, env):
            # every nested expression runs (and constructs) for the whole
            # loop before the first element of this constructor is built
            attr_values = [source(rt, loop, env) for source in attr_srcs]
            content_parts = content_src(rt, loop, env)
            container = rt.engine.transient
            values: dict[int, Any] = {}
            for iteration in loop.col("iter"):
                content: list[Any] = []
                for part in content_parts:
                    if isinstance(part, str):
                        content.append(part)
                    else:
                        content.extend(part.get(iteration, ()))
                attributes = [(attr_name, per_iter[iteration])
                              for attr_name, per_iter
                              in zip(attr_names, attr_values)]
                values[iteration] = construct_element(container, name,
                                                      attributes, content)
            return singleton_per_iter(loop, values)
        return fn

    def _gen_text(self, node: PlanNode) -> Callable:
        text_src = self._string_source(("e",), node.children)

        def fn(rt, loop, env):
            texts = text_src(rt, loop, env)
            container = rt.engine.transient
            return singleton_per_iter(loop, {
                iteration: construct_text(container, text)
                for iteration, text in texts.items()})
        return fn
