"""The loop-lifting executor run-time: the state and shared operators the
compiled plan closures run against.

The engine follows Pathfinder's staging (Section 2.1): a parsed module is
first translated into a **logical plan DAG** (:mod:`repro.xquery.planner`),
the DAG is **rewritten** — join recognition, projection pushdown,
common-subplan sharing (:mod:`repro.relational.rewrites`) — and then
**compiled** into one closure per plan operator
(:mod:`repro.xquery.codegen`), the only way a plan node executes.  As in
MonetDB's operator-at-a-time model every physical operator materialises
its result; the intermediates carry the column properties that drive
physical algorithm choice (Section 4.1).

Every expression is executed *with respect to its enclosing ``for``-loops*,
represented by a unary ``loop`` relation; its value is an ``iter|pos|item``
table.  A :class:`LoopLiftingCompiler` is the per-execution ``rt`` argument
of every closure.  It holds the run-scoped state — global variable values,
the user-function call stack, the shared-subplan memo, the cross-query
subplan cache — and the multi-node operators the closures call into:

* **join execution** for the FLWOR blocks the rewrite optimizer annotated
  (Section 4.1, ``indep`` property): the loop-invariant binding sequence is
  evaluated once and theta-joined against the outer loop with existential
  semantics instead of a lifted Cartesian product — the rewrite that makes
  XMark Q8–Q12 scale linearly — plus the worst-case-optimal multi-way
  variant and the restoration of the syntactic tuple order after a
  cost-ordered clause schedule,
* pushed-down binding predicates and XPath predicates (positional fast
  paths, nested iteration scopes, reverse-axis proximity positions),
* ``order by`` via per-tuple rank keys,
* sequence concatenation with **projection pushdown** (consumers that
  ignore positions skip the sorts/renumberings that only maintain ``pos``),
* **shared-subplan memoisation** keys and the cross-query materialised
  subplan cache.
"""

from __future__ import annotations

from typing import Any

from ..relational import explain
from ..relational import operators as ops
from ..relational.column import Column
from ..relational.plan import PlanNode
from ..relational.properties import TableProps
from ..relational.rewrites import JoinEstimate, OptimizedModulePlan
from ..relational import wcoj
from ..relational.sorting import sort
from ..relational.table import Table
from ..staircase.iterative import StaircaseStats
from ..xml.document import NodeRef
from .joins import existential_join, flip_comparison, is_numeric_value
from .sequences import (empty_sequence, ensure_sequence_order, for_binding,
                        from_iter_items, items_by_iteration, lift_constant,
                        lift_environment, lift_items, make_loop,
                        restrict_sequence, sequence_items, singleton_values,
                        unit_loop)
from .types import atomize, effective_boolean_value, to_number, to_string


class LoopLiftingCompiler:
    """Executes one compiled plan against an engine (the closures' ``rt``)."""

    def __init__(self, engine):
        self.engine = engine
        self.options = engine.options
        self.global_items: dict[str, list[Any]] = {}
        self.step_stats = StaircaseStats()
        self._call_stack: list[str] = []
        self._plan: OptimizedModulePlan | None = None
        self._memo: dict[tuple, Any] = {}
        self._memo_pins: list[Any] = []
        self._subplan_cache = getattr(engine, "subplan_cache", None)
        if not getattr(self.options, "cross_query_caching", True):
            self._subplan_cache = None
        #: node id -> closure of the plan being executed
        self._closures: dict[int, Any] = {}

    # ------------------------------------------------------------------ #
    # entry points
    # ------------------------------------------------------------------ #
    def run_optimized(self, optimized: OptimizedModulePlan, compiled: Any,
                      context_item: Any | None = None) -> list[Any]:
        """Evaluate an optimized module plan through ``compiled``, its
        :class:`~repro.xquery.codegen.CompiledProgram`."""
        self._plan = optimized
        self._memo = {}
        self._memo_pins = []
        self._closures = compiled.by_id
        explain.record("plan", "plan.codegen", compiled.compiled_count,
                       len(compiled.fallbacks),
                       detail=f"{compiled.compiled_count} compiled "
                              "operators")
        loop = unit_loop()
        env: dict[str, Any] = {}
        if context_item is not None:
            env["."] = lift_constant(loop, context_item)
        for name, plan in optimized.globals:
            table = self.compile(plan, loop, env)
            self.global_items[name] = sequence_items(table, 1)
        result = self.compile(optimized.body, loop, env)
        result = ensure_sequence_order(
            result, use_properties=self.options.order_optimization)
        return sequence_items(result, 1)

    # ------------------------------------------------------------------ #
    # node execution, subplan cache, shared-subplan memo keys
    # ------------------------------------------------------------------ #
    def compile(self, node: PlanNode, loop, env: dict):
        """Execute one plan node under the given loop relation/environment
        (its closure carries the subplan-cache / memo wrappers)."""
        return self._closures[node.id](self, loop, env)

    def _materialized_subplan(self, node: PlanNode, fingerprint: str,
                              loop, env: dict, evaluate):
        """Serve a cacheable absolute-path subplan from the shared
        cross-query cache (evaluating and materializing it on a miss).

        The rewrite optimizer established statically that the subplan is a
        pure absolute path depending on at most the context item; what
        remains dynamic is pinning down *which* document root every
        iteration sees.  When all iterations share one persistent root the
        result is loop-invariant: it is computed once under a unit loop,
        cached keyed on (fingerprint, store version, container identity,
        root), and re-lifted into the current loop.  Returns ``None`` when
        the caller must evaluate the node itself (no/ambiguous/transient
        context).
        """
        context = env.get(".")
        if context is None or loop.row_count == 0:
            return None
        container = None
        root_pre = -1
        for item in context.col("item"):
            if not isinstance(item, NodeRef):
                return None
            if item.container.transient:
                return None
            pre = item.container.root_pre(item.pre)
            if container is None:
                container, root_pre = item.container, pre
            elif container is not item.container or root_pre != pre:
                return None
        if container is None:
            return None
        key = self._subplan_cache.make_key(
            fingerprint, self.engine.store.version, container, root_pre)
        items = self._subplan_cache.lookup(key)
        if items is None:
            base_loop = unit_loop()
            base_env = {".": lift_constant(base_loop,
                                           NodeRef(container, root_pre))}
            # ``evaluate`` is the node's raw (unwrapped) closure, so this
            # node cannot consult the cache again; nested prefix steps run
            # through their wrapped closures and populate their own slots
            table = evaluate(self, base_loop, base_env)
            items = tuple(sequence_items(table, 1))
            items = self._subplan_cache.insert(key, items, pin=container)
            explain.record("plan", "plan.subplan.materialize",
                           len(items), len(items), detail=node.kind)
        else:
            explain.record("plan", "plan.subplan.hit",
                           len(items), len(items), detail=node.kind)
        return lift_items(loop, items)

    def _memo_key(self, node: PlanNode, loop, env: dict) -> tuple:
        """Fingerprint of everything a subplan's value can depend on.

        The pinned tables keep the ``id()`` values stable for the lifetime
        of this execution.
        """
        self._memo_pins.append(loop)
        parts: list[Any] = [node.id, id(loop)]
        for name in sorted(self._plan.free(node)):
            table = env.get(name)
            if table is None:
                parts.append((name, None))
            else:
                self._memo_pins.append(table)
                parts.append((name, id(table)))
        return tuple(parts)

    # -- sequences ---------------------------------------------------------- #
    def _concatenate(self, parts: list, *, need_pos: bool = True):
        live = [part for part in parts if part.row_count]
        if not live:
            return empty_sequence()
        if not need_pos:
            # projection pushdown: no consumer reads pos, so the branch-major
            # union already carries the right per-iteration item order — skip
            # the sort and the positional renumbering entirely.  The stale
            # per-branch pos values must not survive: a later stable
            # (iter, pos) sort would use them as keys and interleave the
            # branches, so a constant column stands in.
            merged = ops.union_all(live)
            merged = ops.project(merged, {"iter": "iter", "item": "item"})
            merged = ops.attach(merged, "pos", 1)
            merged = ops.project(merged, {"iter": "iter", "pos": "pos",
                                          "item": "item"})
            merged.props.order = ()
            explain.record("project", "project.pushdown", merged.row_count,
                           merged.row_count, detail="seq")
            return merged
        branches = [ops.attach(part, "branch", index)
                    for index, part in enumerate(live)]
        merged = ops.union_all(branches)
        merged = sort(merged, ("iter", "branch", "pos"),
                      use_properties=self.options.order_optimization)
        merged = ops.rownum(merged, "new_pos", ("branch", "pos"),
                            partition="iter",
                            use_properties=self.options.order_optimization)
        result = ops.project(merged, {"iter": "iter", "pos": "new_pos",
                                      "item": "item"})
        result.props.order = ("iter", "pos")
        return result

    # -- FLWOR ----------------------------------------------------------------- #
    def _advance_clause_keys(self, clause_keys: dict[int, dict[int, int]],
                             clause_index: int, scope_map,
                             ordinals: list[int]) -> dict[int, dict[int, int]]:
        """Re-key the tuple-order bookkeeping through one scope map, adding
        the item ordinal this clause contributed per new inner iteration."""
        advanced: dict[int, dict[int, int]] = {}
        for outer, inner, ordinal in zip(scope_map.col("outer"),
                                         scope_map.col("inner"), ordinals):
            entry = dict(clause_keys.get(outer, {}))
            entry[clause_index] = ordinal
            advanced[inner] = entry
        return advanced

    def _restore_clause_order(self, outer_loop, current_loop, env: dict,
                              tuple_map, clause_keys: dict[int, dict[int, int]],
                              nclauses: int):
        """Relabel the inner loop so iteration ids follow the *syntactic*
        clause nesting again after a cost-ordered clause schedule.

        The desired tuple order is (enclosing iteration, item ordinal of
        clause 0, ordinal of clause 1, ...); the loop, every environment
        table and the composed scope map are renumbered accordingly.
        """
        origin = dict(zip(tuple_map.col("inner"), tuple_map.col("outer")))
        outer_rank = {iteration: rank for rank, iteration
                      in enumerate(outer_loop.col("iter"))}

        def sort_key(iteration: int):
            entry = clause_keys.get(iteration, {})
            return (outer_rank.get(origin.get(iteration), 0),
                    *(entry.get(index, 0) for index in range(nclauses)))

        old_iters = list(current_loop.col("iter"))
        ordered = sorted(old_iters, key=sort_key)
        if ordered == old_iters:
            return current_loop, env, tuple_map
        mapping = {old: new for new, old in enumerate(ordered, start=1)}
        explain.record("join", "join.order-restore", len(old_iters),
                       len(old_iters))

        new_loop = make_loop(range(1, len(ordered) + 1))
        new_env = {name: self._relabel_sequence(table, mapping)
                   for name, table in env.items()}
        pairs = sorted((outer, mapping[inner]) for outer, inner
                       in zip(tuple_map.col("outer"), tuple_map.col("inner"))
                       if inner in mapping)
        new_map = Table([
            Column("outer", [pair[0] for pair in pairs]),
            Column("inner", [pair[1] for pair in pairs], infer=True),
        ], props=TableProps(order=("outer", "inner")))
        return new_loop, new_env, new_map

    def _relabel_sequence(self, table, mapping: dict[int, int]):
        """Apply an iteration renumbering to an ``iter|pos|item`` table."""
        rows = [(mapping[iteration], position, item)
                for iteration, position, item
                in zip(table.col("iter"), table.col("pos"), table.col("item"))
                if iteration in mapping]
        rows.sort(key=lambda row: (row[0], row[1]))
        return Table([
            Column("iter", [row[0] for row in rows]),
            Column("pos", [row[1] for row in rows]),
            Column("item", [row[2] for row in rows]),
        ], props=TableProps(order=("iter", "pos")))

    def _filter_binding(self, sequence, var: str, predicates, env: dict):
        """Apply pushed-down plan-level predicates to a for-clause binding
        sequence: per-item EBV of the moved ``where`` conjuncts, with the
        clause variable bound to the candidate item."""
        if sequence.row_count == 0 or not predicates:
            return sequence
        scope_map, sub_loop, variable, positions = for_binding(
            sequence, use_properties=self.options.order_optimization)
        sub_env = lift_environment(env, scope_map)
        sub_env[var] = variable
        active_loop, active_env = sub_loop, sub_env
        survivors = set(sub_loop.col("iter"))
        for predicate in predicates:
            if not survivors:
                break
            grouped = items_by_iteration(
                self.compile(predicate, active_loop, active_env))
            survivors = {iteration for iteration in survivors
                         if effective_boolean_value(
                             grouped.get(iteration, []))}
            if len(survivors) < active_loop.row_count:
                # later predicates only run over the still-live items
                kept = sorted(survivors)
                active_loop = make_loop(kept)
                active_env = {name: restrict_sequence(table, kept)
                              for name, table in active_env.items()}
        rows = [(outer, position, item)
                for outer, inner, position, item
                in zip(scope_map.col("outer"), scope_map.col("inner"),
                       positions.col("item"), variable.col("item"))
                if inner in survivors]
        explain.record("predicate", "predicate.pushdown",
                       sequence.row_count, len(rows), detail=f"${var}")
        return Table([
            Column("iter", [row[0] for row in rows]),
            Column("pos", [row[1] for row in rows]),
            Column("item", [row[2] for row in rows]),
        ], props=TableProps(order=("iter", "pos")))

    def _compose_maps(self, outer_map, inner_map):
        """Compose two scope maps: (outer->mid) ∘ (mid->inner) = outer->inner."""
        if outer_map is None:
            return inner_map
        renamed = ops.project(outer_map, {"outermost": "outer", "mid": "inner"})
        joined = ops.join(inner_map, renamed, "outer", "mid",
                          use_positional=self.options.positional_lookup)
        composed = ops.project(joined, {"outer": "outermost", "inner": "inner"})
        composed.props.order = ("outer", "inner")
        return composed

    def _order_by_ranks(self, specs, loop, env):
        """One rank value per iteration implementing the ``order by`` keys."""
        keys_per_spec = []
        for spec in specs:
            table = self.compile(spec.children[0], loop, env)
            keys_per_spec.append((singleton_values(table),
                                  spec.p("descending")))
        iterations = list(loop.col("iter"))

        # stable two-phase sort: strings cannot be negated, so descending
        # string keys are handled by sorting each spec separately (last spec
        # first) with Python's stable sort
        ordered = list(iterations)
        for index in range(len(keys_per_spec) - 1, -1, -1):
            values, descending = keys_per_spec[index]

            def spec_key(iteration: int, values=values):
                value = values.get(iteration)
                value = atomize(value) if value is not None else None
                number = to_number(value) if value is not None else None
                if number is not None:
                    return (0, number, "")
                if value is None:
                    return (1, 0, "")
                return (0, float("inf"), to_string(value))

            ordered.sort(key=spec_key, reverse=descending)
        ranks = {iteration: rank for rank, iteration in enumerate(ordered, start=1)}
        return Table([
            Column("iter", iterations),
            Column("okey", [ranks[iteration] for iteration in iterations]),
        ], props=TableProps(order=("iter",)))

    # -- join execution (Section 4.1 indep / Section 4.2) ---------------------- #
    def _empty_join_result(self, clause: PlanNode):
        """The (scope map, loop, bindings, ranks) of a join with no pairs."""
        empty_map = Table.from_dict({"outer": [], "inner": []},
                                    order=("outer", "inner"))
        return (empty_map, make_loop([]),
                {clause.p("var"): empty_sequence()}, [])

    def _execute_join(self, clause: PlanNode, conjunct: PlanNode, v_side: int,
                      current_loop, env: dict,
                      estimate: JoinEstimate | None = None):
        """Evaluate an optimizer-annotated ``for $v ... where lhs ⊖ rhs``
        clause as a value join.

        The loop-invariance of the binding sequence was established
        statically by the rewrite; what remains dynamic is the context
        document check — independence only holds when every iteration sees
        the same context root.  Returns ``None`` to fall back to the lifted
        nested-loop evaluation.  Pushed-down plan-level predicates filter
        the binding sequence before the join; a cost-model ``estimate``
        decides which input becomes the theta-join build side.
        """
        if current_loop.row_count == 0:
            # no enclosing iterations: the join yields no pairs, and the
            # (possibly context-dependent) binding sequence must not run —
            # the lifted environment carries no context rows to run it with
            return self._empty_join_result(clause)
        constant_context = None
        if "." in env:
            roots = {(id(item.container), item.container.root_pre(item.pre))
                     for item in env["."].col("item")
                     if isinstance(item, NodeRef)}
            if len(roots) > 1:
                return None
            for item in env["."].col("item"):
                if isinstance(item, NodeRef):
                    constant_context = NodeRef(item.container,
                                               item.container.root_pre(item.pre))
                    break

        v_node = conjunct.children[v_side]
        other_node = conjunct.children[1 - v_side]
        op = conjunct.p("op")
        if v_side == 0:
            op = flip_comparison(op)

        # 1. evaluate the loop-invariant binding sequence once (pushed-down
        #    predicates shrink it before the join sees it)
        base_loop = unit_loop()
        base_env: dict[str, Any] = {}
        if constant_context is not None:
            base_env["."] = lift_constant(base_loop, constant_context)
        sequence = self.compile(clause.children[0], base_loop, base_env)
        if len(clause.children) > 1:
            sequence = self._filter_binding(sequence, clause.p("var"),
                                            clause.children[1:], base_env)
        items = sequence_items(sequence, 1)
        if not items:
            # no binding items: the FLWOR contributes nothing for any outer
            # iteration — an empty scope map expresses exactly that
            return self._empty_join_result(clause)

        # 2. the side of the comparison that depends on $v, per binding item
        item_loop = make_loop(range(1, len(items) + 1))
        item_env = {clause.p("var"): Table([
            Column.dense("iter", len(items), base=1),
            Column.constant("pos", 1, len(items)),
            Column("item", list(items)),
        ], props=TableProps(order=("iter", "pos")))}
        if constant_context is not None:
            item_env["."] = lift_constant(item_loop, constant_context)
        v_values_table = self.compile(v_node, item_loop, item_env)
        v_rows = [(iteration, atomize(item))
                  for iteration, item in zip(v_values_table.col("iter"),
                                             v_values_table.col("item"))]

        # 3. the other side, per enclosing-loop iteration
        other_table = self.compile(other_node, current_loop, env)
        other_rows = [(iteration, atomize(item))
                      for iteration, item in zip(other_table.col("iter"),
                                                 other_table.col("item"))]

        # 4. existential theta-join: distinct (outer iteration, item index);
        #    the cost model's estimate picks the build side of the join —
        #    the right input of the theta-join is what the hash/index build
        #    consumes, so the smaller side is swapped there
        strategy = "auto" if self.options.existential_aggregates else "dedup"
        swap_build = (estimate is not None and estimate.build_side == "outer"
                      and self.options.cost_based_joins)
        if swap_build:
            swapped = existential_join(v_rows, other_rows,
                                       flip_comparison(op), strategy=strategy)
            pairs = [(outer, index) for index, outer in swapped]
        else:
            pairs = existential_join(other_rows, v_rows, op,
                                     strategy=strategy)

        # 5. build the scope map / inner loop / $v binding for the survivors
        pairs.sort()
        outer_column = [pair[0] for pair in pairs]
        scope_map = Table([
            Column("outer", outer_column),
            Column.dense("inner", len(pairs), base=1),
        ], props=TableProps(order=("outer", "inner")))
        inner_loop = make_loop(range(1, len(pairs) + 1))
        bound_items = [items[pair[1] - 1] for pair in pairs]
        bindings = {clause.p("var"): Table([
            Column.dense("iter", len(pairs), base=1),
            Column.constant("pos", 1, len(pairs)),
            Column("item", bound_items),
        ], props=TableProps(order=("iter", "pos")))}
        ranks = [pair[1] for pair in pairs]
        return scope_map, inner_loop, bindings, ranks

    # -- worst-case-optimal multi-way joins ------------------------------------ #
    def _execute_wcoj(self, clauses, conjuncts, spec, current_loop, env):
        """Evaluate an optimizer-annotated multi-way value-join clique as
        one generic join (worst-case optimal).

        Every clause's loop-invariant binding sequence is evaluated once;
        each ``eq`` conjunct becomes one join attribute whose two sides are
        encoded into sorted ``(key, item)`` int buffers following the
        per-pair promotion rules (genuine numeric vs. numeric cast vs.
        string).  The generic join narrows candidate item sets attribute by
        attribute, so no pairwise intermediate is ever materialised; the
        result tuples are ordered syntactically (clause 0 major) and
        replicated per enclosing iteration — bit-identical to the
        nested-loop tuple order.  Returns ``None`` to fall back to the
        pairwise join plan (context roots differ between iterations).
        """
        consumed = {triple[0] for triple in spec}
        if current_loop.row_count == 0:
            # no enclosing iterations: nothing may run (the binding
            # sequences could be context-dependent), nothing is bound
            empty_map = Table.from_dict({"outer": [], "inner": []},
                                        order=("outer", "inner"))
            lifted = lift_environment(dict(env), empty_map)
            lifted.update({clause.p("var"): empty_sequence()
                           for clause in clauses})
            return empty_map, make_loop([]), lifted, consumed

        constant_context = None
        if "." in env:
            roots = {(id(item.container), item.container.root_pre(item.pre))
                     for item in env["."].col("item")
                     if isinstance(item, NodeRef)}
            if len(roots) > 1:
                return None
            for item in env["."].col("item"):
                if isinstance(item, NodeRef):
                    constant_context = NodeRef(
                        item.container, item.container.root_pre(item.pre))
                    break

        # 1. every loop-invariant binding sequence runs exactly once
        #    (pushed-down predicates shrink it before the join sees it)
        items_per_clause: list[list[Any]] = []
        for clause in clauses:
            base_loop = unit_loop()
            base_env: dict[str, Any] = {}
            if constant_context is not None:
                base_env["."] = lift_constant(base_loop, constant_context)
            sequence = self.compile(clause.children[0], base_loop, base_env)
            if len(clause.children) > 1:
                sequence = self._filter_binding(sequence, clause.p("var"),
                                                clause.children[1:], base_env)
            items_per_clause.append(sequence_items(sequence, 1))

        # 2. one join attribute per conjunct: both sides evaluated per
        #    binding item, values typed and interned into sorted buffers
        attributes = []
        for conjunct_index, left_clause, right_clause in spec:
            conjunct = conjuncts[conjunct_index]
            attribute = wcoj.JoinAttribute(left_clause, right_clause)
            for clause_index, side in ((left_clause, 0), (right_clause, 1)):
                values = self._wcoj_side_values(
                    clauses[clause_index], conjunct.children[side],
                    items_per_clause[clause_index], constant_context)
                attribute.add_side(self._wcoj_encode(attribute, values))
            attributes.append(attribute)

        tuples = wcoj.generic_join(
            [len(items) for items in items_per_clause], attributes)
        ordered = sorted(tuples)
        explain.record("plan", "plan.wcoj",
                       sum(len(items) for items in items_per_clause),
                       len(ordered), detail=f"{len(clauses)}-way generic join")

        # 3. scope map, inner loop and bindings in syntactic tuple order
        outer_iters = sorted(current_loop.col("iter"))
        total = len(outer_iters) * len(ordered)
        scope_map = Table([
            Column("outer", [outer for outer in outer_iters
                             for _ in ordered]),
            Column.dense("inner", total, base=1),
        ], props=TableProps(order=("outer", "inner")))
        inner_loop = make_loop(range(1, total + 1))
        current_env = lift_environment(dict(env), scope_map)
        for index, clause in enumerate(clauses):
            items = items_per_clause[index]
            bound = [items[combo[index]] for _ in outer_iters
                     for combo in ordered]
            current_env[clause.p("var")] = Table([
                Column.dense("iter", total, base=1),
                Column.constant("pos", 1, total),
                Column("item", bound),
            ], props=TableProps(order=("iter", "pos")))
        return scope_map, inner_loop, current_env, consumed

    def _wcoj_side_values(self, clause, side_node, items, constant_context):
        """One comparison side evaluated per binding item: a list (one entry
        per item, in item order) of the side's atomized values."""
        if not items:
            return []
        item_loop = make_loop(range(1, len(items) + 1))
        item_env = {clause.p("var"): Table([
            Column.dense("iter", len(items), base=1),
            Column.constant("pos", 1, len(items)),
            Column("item", list(items)),
        ], props=TableProps(order=("iter", "pos")))}
        if constant_context is not None:
            item_env["."] = lift_constant(item_loop, constant_context)
        grouped = items_by_iteration(
            self.compile(side_node, item_loop, item_env))
        return [[atomize(item) for item in grouped.get(ordinal, [])]
                for ordinal in range(1, len(items) + 1)]

    def _wcoj_encode(self, attribute, values_per_item):
        """Encode one side's values as ``(key_id, item, genuine)`` rows per
        the per-pair typing rules: a genuinely numeric value joins through
        its numeric key; any other value joins through its string key and —
        when castable — additionally through its numeric *cast*, which only
        pairs with genuinely numeric partners (never cast-to-cast)."""
        rows = []
        for item_index, values in enumerate(values_per_item):
            seen = set()
            for value in values:
                if is_numeric_value(value):
                    encoded = [(("n", value), True)]
                else:
                    encoded = [(("s", str(value)), False)]
                    number = to_number(value)
                    if number is not None:
                        encoded.append((("n", number), False))
                for key, genuine in encoded:
                    if (key, genuine) in seen:
                        continue
                    seen.add((key, genuine))
                    rows.append((
                        attribute.intern(key, numeric=key[0] == "n"),
                        item_index, genuine))
        return rows

    # -- paths ------------------------------------------------------------------ #
    def _nodes_in_document_order(self, table, *, need_pos: bool = True):
        rows = sorted(
            zip(table.col("iter"), table.col("item")),
            key=lambda pair: (pair[0], pair[1].order_key()
                              if isinstance(pair[1], NodeRef) else (0, 0, 0, 0)))
        deduped: list[tuple[int, Any]] = []
        previous = None
        for pair in rows:
            if previous is not None and pair == previous:
                continue
            deduped.append(pair)
            previous = pair
        return from_iter_items(deduped, need_pos=need_pos)

    def _apply_predicates(self, sequence, predicates, loop, env, *,
                          reverse: bool = False):
        current = sequence
        for predicate in predicates:
            current = self._apply_one_predicate(current, predicate, loop, env,
                                                reverse=reverse)
        return current

    def _apply_one_predicate(self, sequence, predicate: PlanNode, loop, env, *,
                             reverse: bool = False):
        """Filter one predicate over ``sequence``.

        ``reverse=True`` (the predicate belongs to a reverse-axis step)
        makes ``position()`` count in *proximity* order — reverse document
        order — per the XPath rule that positions follow the axis
        direction.  The rows themselves stay in document order (``pos``
        ascending); the effective position of a row is
        ``count(iteration) - pos + 1``, so ``[1]`` keeps the nearest node
        and ``[last()]`` the farthest.
        """
        if sequence.row_count == 0:
            return sequence
        positions = sequence.col("pos")
        iterations = sequence.col("iter")
        if reverse:
            counts: dict[int, int] = {}
            for iteration in iterations:
                counts[iteration] = counts.get(iteration, 0) + 1
            effective = [counts[iteration] - position + 1
                         for iteration, position in zip(iterations, positions)]
        else:
            effective = positions

        # fast paths: positional literal and last()
        if predicate.kind == "const" and isinstance(predicate.p("value"), int) \
                and not isinstance(predicate.p("value"), bool):
            wanted = predicate.p("value")
            keep = [index for index, position in enumerate(effective)
                    if position == wanted]
            return self._rebuild_filtered(sequence, keep)
        if predicate.kind == "call" and predicate.p("name") == "last" \
                and not predicate.children:
            last_by_iter: dict[int, int] = {}
            for iteration, position in zip(iterations, effective):
                last_by_iter[iteration] = max(last_by_iter.get(iteration, 0), position)
            keep = [index for index, (iteration, position)
                    in enumerate(zip(iterations, effective))
                    if position == last_by_iter[iteration]]
            return self._rebuild_filtered(sequence, keep)

        # general case: a nested iteration scope with one iteration per item
        scope_map, sub_loop, dot, _ = for_binding(
            sequence, use_properties=self.options.order_optimization)
        counts = {}
        for iteration in iterations:
            counts[iteration] = counts.get(iteration, 0) + 1
        sub_env = lift_environment(env, scope_map)
        sub_env["."] = dot
        sub_env["fs:position"] = Table([
            Column("iter", list(sub_loop.col("iter")), infer=True),
            Column.constant("pos", 1, sequence.row_count),
            Column("item", list(effective)),
        ], props=TableProps(order=("iter", "pos")))
        sub_env["fs:last"] = Table([
            Column("iter", list(sub_loop.col("iter")), infer=True),
            Column.constant("pos", 1, sequence.row_count),
            Column("item", [counts[iteration] for iteration in iterations]),
        ], props=TableProps(order=("iter", "pos")))

        verdict_table = self.compile(predicate, sub_loop, sub_env)
        grouped = items_by_iteration(verdict_table)
        keep: list[int] = []
        for index, inner in enumerate(sub_loop.col("iter")):
            outcome = grouped.get(inner, [])
            if not outcome:
                continue
            first = outcome[0]
            if isinstance(first, (int, float)) and not isinstance(first, bool) \
                    and len(outcome) == 1:
                if first == effective[index]:
                    keep.append(index)
            elif effective_boolean_value(outcome):
                keep.append(index)
        return self._rebuild_filtered(sequence, keep)

    def _rebuild_filtered(self, sequence, keep: list[int]):
        kept = sequence.take(keep, keep_order=True)
        pairs = list(zip(kept.col("iter"), kept.col("item")))
        return from_iter_items(pairs)
