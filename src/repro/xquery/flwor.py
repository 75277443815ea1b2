"""FLWOR and quantified expressions: their closure emitters and run-time.

A ``for`` clause binds its sequence through a *scope map* (outer → inner
iteration); the rest of the block runs in the inner loop and
:func:`~repro.xquery.sequences.back_map` maps the result back.  Clauses
the rewrite optimizer annotated run as joins instead (Section 4.1,
``indep``): the loop-invariant binding sequence is evaluated once and
theta-joined against the outer loop — what makes XMark Q8–Q12 scale
linearly — or, for >= 3 connected clauses, as one worst-case-optimal
generic join; a cost-ordered clause schedule is relabelled back into the
syntactic tuple order.  :class:`FlworEmitters` is a mixin of the closure
builder (:mod:`repro.xquery.codegen`) that settles every static decision
at prepare time and hands the run-time its compiled child closures.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import XQueryUnsupportedError
from ..relational import explain
from ..relational import operators as ops
from ..relational import wcoj
from ..relational.column import Column
from ..relational.plan import PlanNode
from ..relational.properties import TableProps
from ..relational.rewrites import flatten_conjuncts
from ..relational.table import Table
from ..xml.document import NodeRef
from .joins import existential_join, flip_comparison, is_numeric_value
from .sequences import (back_map, empty_sequence, for_binding,
                        item_per_iteration, items_by_iteration, lift_constant,
                        lift_environment, make_loop, restrict_sequence,
                        sequence_items, singleton_per_iter, singleton_values,
                        unit_loop)
from .types import atomize, effective_boolean_value, to_number, to_string

#: ``_context_root`` result when the context nodes span several documents
_MIXED_ROOTS = object()


class FlworEmitters:
    """The ``flwor`` / ``quantified`` emitters of the closure builder."""

    def _gen_flwor(self, node: PlanNode) -> Callable:
        nclauses = node.p("nclauses")
        has_where = node.p("has_where")
        norder = node.p("norder")
        clauses = node.children[:nclauses]
        where = node.children[nclauses] if has_where else None
        spec_start = nclauses + (1 if has_where else 0)
        orderspecs = node.children[spec_start:spec_start + norder]

        conjuncts = flatten_conjuncts(where) if where is not None else []
        conjunct_srcs = [self._ebv_source(conjunct) for conjunct in conjuncts]

        run_wcoj = None
        if node.p("wcoj") is not None and self.join_recognition \
                and self.wcoj:
            run_wcoj = self._wcoj_runner(clauses, conjuncts, node.p("wcoj"))

        # clause index -> (conjunct index, value-join closure)
        joins: dict[int, tuple[int, Callable]] = {}
        if self.join_recognition and node.p("join") is not None:
            estimates = {estimate.clause: estimate for estimate
                         in self.plan.join_estimates.get(node.id, ())}
            for clause_index, conjunct_index, v_side \
                    in node.p("joins") or (node.p("join"),):
                joins[clause_index] = (conjunct_index, self._value_join(
                    clauses[clause_index], conjuncts[conjunct_index], v_side,
                    estimates.get(clause_index)))

        schedule = tuple(range(nclauses))
        if joins and self.cost_based_joins:
            annotated = node.p("clause_order")
            if annotated is not None \
                    and sorted(annotated) == list(range(nclauses)):
                schedule = tuple(annotated)
        reordered = schedule != tuple(range(nclauses))

        clause_info = [(clause.kind == "let", clause.p("var"),
                        clause.p("posvar"), self.closure(clause.children[0]),
                        self._binding_filter(clause.p("var"),
                                             clause.children[1:]))
                       for clause in clauses]
        order_keys = [(self.closure(spec.children[0]), spec.p("descending"))
                      for spec in orderspecs]
        body_fn = self.closure(node.children[-1])
        need_pos = self._needs_pos(node) or norder > 0
        order_opt = self.order_opt
        positional = self.positional_lookup

        def fn(state, loop, env):
            joined = run_wcoj(state, loop, env) if run_wcoj else None
            if joined is not None:
                tuple_map, current_loop, current_env, consumed = joined
            else:
                current_loop = loop
                current_env = dict(env)
                tuple_map = None
                consumed = set()
                clause_keys = {iteration: {}
                               for iteration in loop.col("iter")} \
                    if reordered else None

                for index in schedule:
                    is_let, var, posvar, seq_fn, filter_fn = \
                        clause_info[index]
                    if is_let:
                        current_env[var] = seq_fn(state, current_loop,
                                                  current_env)
                        continue
                    join = joins.get(index)
                    joined = join[1](state, current_loop, current_env) \
                        if join is not None else None
                    if joined is not None:
                        scope_map, inner_loop, bound, ordinals = joined
                        current_env = lift_environment(current_env,
                                                       scope_map)
                        current_env[var] = bound
                        consumed.add(join[0])
                    else:
                        sequence = seq_fn(state, current_loop, current_env)
                        if filter_fn is not None:
                            sequence = filter_fn(state, sequence, current_env)
                        scope_map, inner_loop, variable, positions = \
                            for_binding(sequence, use_properties=order_opt)
                        current_env = lift_environment(current_env,
                                                       scope_map)
                        current_env[var] = variable
                        if posvar:
                            current_env[posvar] = positions
                        ordinals = positions.col("item")
                    tuple_map = _compose_maps(tuple_map, scope_map, positional)
                    if clause_keys is not None:
                        clause_keys = _advance_clause_keys(
                            clause_keys, index, scope_map, ordinals)
                    current_loop = inner_loop

                if reordered and tuple_map is not None:
                    current_loop, current_env, tuple_map = \
                        _restore_clause_order(loop, current_loop, current_env,
                                              tuple_map, clause_keys,
                                              nclauses)

            remaining = [source for index, source in enumerate(conjunct_srcs)
                         if index not in consumed]
            if remaining:
                verdict = combine_verdicts(remaining, True, state,
                                           current_loop, current_env)
                surviving = [it for it in current_loop.col("iter")
                             if verdict.get(it, False)]
                current_loop = make_loop(surviving)
                current_env = {name: restrict_sequence(table, surviving)
                               for name, table in current_env.items()}

            ranks = _order_by_ranks(state, order_keys, current_loop,
                                    current_env) if order_keys else None
            body = body_fn(state, current_loop, current_env)
            if tuple_map is None:
                if ranks is not None:
                    raise XQueryUnsupportedError(
                        "order by requires at least one for clause")
                return body
            return back_map(tuple_map, body, order_keys=ranks,
                            use_properties=order_opt, need_pos=need_pos)
        return fn

    def _gen_quantified(self, node: PlanNode) -> Callable:
        variables = node.p("variables")
        every = node.p("quantifier") != "some"
        sequence_fns = [self.closure(child) for child in node.children[:-1]]
        verdict_src = self._ebv_source(node.children[-1])
        order_opt = self.order_opt
        positional = self.positional_lookup

        def fn(state, loop, env):
            current_loop = loop
            current_env = dict(env)
            tuple_map = None
            for variable, seq_fn in zip(variables, sequence_fns):
                sequence = seq_fn(state, current_loop, current_env)
                scope_map, inner_loop, bound, _ = for_binding(
                    sequence, use_properties=order_opt)
                current_env = lift_environment(current_env, scope_map)
                current_env[variable] = bound
                tuple_map = _compose_maps(tuple_map, scope_map, positional)
                current_loop = inner_loop

            verdict = verdict_src(state, current_loop, current_env)
            per_outer: dict[int, list[bool]] = {}
            if tuple_map is not None:
                for outer, inner in zip(tuple_map.col("outer"),
                                        tuple_map.col("inner")):
                    per_outer.setdefault(outer, []).append(
                        verdict.get(inner, False))
            values = {}
            for iteration in loop.col("iter"):
                outcomes = per_outer.get(iteration, [])
                values[iteration] = all(outcomes) if every else any(outcomes)
            return singleton_per_iter(loop, values)
        return fn

    # ------------------------------------------------------------------ #
    # binding predicates and joins (compiled once per clause)
    # ------------------------------------------------------------------ #
    def _binding_filter(self, var: str, predicates) -> Callable | None:
        """``fn(state, sequence, env) -> Table`` applying a for clause's
        pushed-down plan-level predicates (``None`` without any): per-item
        EBV of the moved ``where`` conjuncts, with ``$var`` bound to the
        candidate item."""
        if not predicates:
            return None
        predicate_fns = [self.closure(predicate) for predicate in predicates]
        order_opt = self.order_opt

        def run(state, sequence, env):
            if sequence.row_count == 0:
                return sequence
            scope_map, sub_loop, variable, positions = for_binding(
                sequence, use_properties=order_opt)
            active_env = lift_environment(env, scope_map)
            active_env[var] = variable
            active_loop = sub_loop
            survivors = set(sub_loop.col("iter"))
            for predicate_fn in predicate_fns:
                if not survivors:
                    break
                grouped = items_by_iteration(
                    predicate_fn(state, active_loop, active_env))
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
            return _rows_table(rows)
        return run

    def _value_join(self, clause: PlanNode, conjunct: PlanNode, v_side: int,
                    estimate) -> Callable:
        """``fn(state, loop, env) -> (scope map, inner loop, $v binding,
        item ordinals)`` evaluating ``for $v ... where lhs ⊖ rhs`` as an
        existential theta-join, or ``None`` (fall back to the nested loop)
        when the iterations see different context roots.  The cost model's
        ``estimate`` may swap the smaller outer side into the build input."""
        var = clause.p("var")
        seq_fn = self.closure(clause.children[0])
        filter_fn = self._binding_filter(var, clause.children[1:])
        v_fn = self.closure(conjunct.children[v_side])
        other_fn = self.closure(conjunct.children[1 - v_side])
        op = conjunct.p("op")
        if v_side == 0:
            op = flip_comparison(op)
        flipped = flip_comparison(op)
        strategy = self.existential_strategy
        swap_build = (estimate is not None and estimate.build_side == "outer"
                      and self.cost_based_joins)

        def run(state, loop, env):
            if loop.row_count == 0:
                # no enclosing iterations: no pairs, and the (possibly
                # context-dependent) binding sequence must not run
                return _no_pairs()
            root = _context_root(env)
            if root is _MIXED_ROOTS:
                return None
            items = _binding_items(state, seq_fn, filter_fn, root)
            if not items:
                return _no_pairs()
            # the $v side per binding item, the other side per iteration
            v_rows = _atomized(v_fn(state, *_item_scope(var, items, root)))
            other_rows = _atomized(other_fn(state, loop, env))
            if swap_build:
                pairs = [(outer, index) for index, outer in existential_join(
                    v_rows, other_rows, flipped, strategy=strategy)]
            else:
                pairs = existential_join(other_rows, v_rows, op,
                                         strategy=strategy)
            pairs.sort()
            scope_map = Table([
                Column("outer", [pair[0] for pair in pairs]),
                Column.dense("inner", len(pairs), base=1),
            ], props=TableProps(order=("outer", "inner")))
            return (scope_map, make_loop(range(1, len(pairs) + 1)),
                    item_per_iteration([items[pair[1] - 1] for pair in pairs]),
                    [pair[1] for pair in pairs])
        return run

    def _wcoj_runner(self, clauses, conjuncts, spec) -> Callable:
        """``fn(state, loop, env) -> (scope map, inner loop, environment,
        consumed conjuncts)`` evaluating a multi-way value-join clique as
        one worst-case-optimal generic join (``None``: context roots
        differ, run the pairwise plan).  Each ``eq`` conjunct is one join
        attribute over sorted ``(key, item)`` buffers; tuples come out in
        the nested-loop order (clause 0 major, per enclosing iteration)."""
        consumed = frozenset(triple[0] for triple in spec)
        variables = [clause.p("var") for clause in clauses]
        bindings = [(self.closure(clause.children[0]),
                     self._binding_filter(clause.p("var"),
                                          clause.children[1:]))
                    for clause in clauses]
        sides = [(left, right,
                  self.closure(conjuncts[index].children[0]),
                  self.closure(conjuncts[index].children[1]))
                 for index, left, right in spec]

        def run(state, loop, env):
            if loop.row_count == 0:
                empty_map, empty_loop, _, _ = _no_pairs()
                lifted = lift_environment(dict(env), empty_map)
                lifted.update({var: empty_sequence() for var in variables})
                return empty_map, empty_loop, lifted, consumed
            root = _context_root(env)
            if root is _MIXED_ROOTS:
                return None
            items_per_clause = [_binding_items(state, seq_fn, filter_fn, root)
                                for seq_fn, filter_fn in bindings]
            attributes = []
            for left, right, left_fn, right_fn in sides:
                attribute = wcoj.JoinAttribute(left, right)
                for clause_index, side_fn in ((left, left_fn),
                                              (right, right_fn)):
                    items = items_per_clause[clause_index]
                    values = _side_values(state, side_fn,
                                          variables[clause_index], items,
                                          root) if items else []
                    attribute.add_side(_wcoj_encode(attribute, values))
                attributes.append(attribute)

            ordered = sorted(wcoj.generic_join(
                [len(items) for items in items_per_clause], attributes))
            explain.record("plan", "plan.wcoj",
                           sum(len(items) for items in items_per_clause),
                           len(ordered),
                           detail=f"{len(clauses)}-way generic join")

            outer_iters = sorted(loop.col("iter"))
            total = len(outer_iters) * len(ordered)
            scope_map = Table([
                Column("outer", [outer for outer in outer_iters
                                 for _ in ordered]),
                Column.dense("inner", total, base=1),
            ], props=TableProps(order=("outer", "inner")))
            current_env = lift_environment(dict(env), scope_map)
            for index, var in enumerate(variables):
                items = items_per_clause[index]
                current_env[var] = item_per_iteration(
                    [items[combo[index]] for _ in outer_iters
                     for combo in ordered])
            return scope_map, make_loop(range(1, total + 1)), current_env, \
                consumed
        return run


# --------------------------------------------------------------------------- #
# run-time
# --------------------------------------------------------------------------- #
def combine_verdicts(sources, every: bool, state, loop, env) -> dict:
    """Per iteration: whether all (``every``) or any of the effective
    boolean values the ``sources`` produce hold."""
    verdict = dict.fromkeys(loop.col("iter"), every)
    for source in sources:
        partial = source(state, loop, env)
        for iteration in verdict:
            if partial.get(iteration, False) is not every:
                verdict[iteration] = not every
    return verdict


def _context_root(env: dict):
    """The document root every context node shares (``None`` without
    context nodes, ``_MIXED_ROOTS`` when they span several roots)."""
    root = None
    context = env.get(".")
    if context is not None:
        for item in context.col("item"):
            if isinstance(item, NodeRef):
                pre = item.container.root_pre(item.pre)
                if root is None:
                    root = NodeRef(item.container, pre)
                elif root.container is not item.container or root.pre != pre:
                    return _MIXED_ROOTS
    return root


def _binding_items(state, seq_fn, filter_fn, root) -> list[Any]:
    """A loop-invariant binding sequence, evaluated once under a unit loop
    (pushed-down predicates shrink it before any join sees it)."""
    loop = unit_loop()
    env = {} if root is None else {".": lift_constant(loop, root)}
    sequence = seq_fn(state, loop, env)
    if filter_fn is not None:
        sequence = filter_fn(state, sequence, env)
    return sequence_items(sequence, 1)


def _item_scope(var: str, items: list[Any], root) -> tuple[Table, dict]:
    """The loop and environment with ``$var`` bound to each item in turn."""
    loop = make_loop(range(1, len(items) + 1))
    env = {var: item_per_iteration(list(items))}
    if root is not None:
        env["."] = lift_constant(loop, root)
    return loop, env


def _rows_table(rows: list[tuple[int, int, Any]]) -> Table:
    """An ``iter|pos|item`` table from rows already in that order."""
    return Table([
        Column("iter", [row[0] for row in rows]),
        Column("pos", [row[1] for row in rows]),
        Column("item", [row[2] for row in rows]),
    ], props=TableProps(order=("iter", "pos")))


def _atomized(table) -> list[tuple[int, Any]]:
    return [(iteration, atomize(item))
            for iteration, item in zip(table.col("iter"), table.col("item"))]


def _no_pairs():
    """The value-join result without pairs."""
    empty_map = Table.from_dict({"outer": [], "inner": []},
                                order=("outer", "inner"))
    return empty_map, make_loop([]), empty_sequence(), []


def _side_values(state, side_fn, var: str, items: list[Any], root
                 ) -> list[list[Any]]:
    """One comparison side evaluated per binding item: its atomized values,
    one list per item in item order."""
    grouped = items_by_iteration(side_fn(state, *_item_scope(var, items,
                                                             root)))
    return [[atomize(item) for item in grouped.get(ordinal, [])]
            for ordinal in range(1, len(items) + 1)]


def _wcoj_encode(attribute, values_per_item) -> list[tuple]:
    """Encode one side's values as ``(key_id, item, genuine)`` rows: a
    genuinely numeric value joins through its numeric key; any other value
    through its string key and — when castable — its numeric *cast*, which
    only pairs with genuinely numeric partners (never cast-to-cast)."""
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
                rows.append((attribute.intern(key, numeric=key[0] == "n"),
                             item_index, genuine))
    return rows


def _compose_maps(outer_map, inner_map, positional: bool):
    """Compose two scope maps: (outer->mid) ∘ (mid->inner) = outer->inner."""
    if outer_map is None:
        return inner_map
    renamed = ops.project(outer_map, {"outermost": "outer", "mid": "inner"})
    joined = ops.join(inner_map, renamed, "outer", "mid",
                      use_positional=positional)
    composed = ops.project(joined, {"outer": "outermost", "inner": "inner"})
    composed.props.order = ("outer", "inner")
    return composed


def _advance_clause_keys(clause_keys: dict[int, dict[int, int]],
                         clause_index: int, scope_map, ordinals
                         ) -> dict[int, dict[int, int]]:
    """Re-key the tuple-order bookkeeping through one scope map, adding the
    item ordinal this clause contributed per new inner iteration."""
    advanced: dict[int, dict[int, int]] = {}
    for outer, inner, ordinal in zip(scope_map.col("outer"),
                                     scope_map.col("inner"), ordinals):
        entry = dict(clause_keys.get(outer, {}))
        entry[clause_index] = ordinal
        advanced[inner] = entry
    return advanced


def _restore_clause_order(outer_loop, current_loop, env: dict, tuple_map,
                          clause_keys: dict[int, dict[int, int]],
                          nclauses: int):
    """Relabel the inner loop so iteration ids follow the *syntactic*
    clause nesting again after a cost-ordered clause schedule: (enclosing
    iteration, item ordinal of clause 0, of clause 1, ...).  The loop,
    every environment table and the composed scope map are renumbered."""
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

    new_env = {}
    for name, table in env.items():
        rows = [(mapping[iteration], position, item)
                for iteration, position, item
                in zip(table.col("iter"), table.col("pos"), table.col("item"))
                if iteration in mapping]
        rows.sort(key=lambda row: (row[0], row[1]))
        new_env[name] = _rows_table(rows)
    pairs = sorted((outer, mapping[inner]) for outer, inner
                   in zip(tuple_map.col("outer"), tuple_map.col("inner"))
                   if inner in mapping)
    new_map = Table([
        Column("outer", [pair[0] for pair in pairs]),
        Column("inner", [pair[1] for pair in pairs], infer=True),
    ], props=TableProps(order=("outer", "inner")))
    return make_loop(range(1, len(ordered) + 1)), new_env, new_map


def _order_by_ranks(state, order_keys, loop, env) -> Table:
    """One rank per iteration implementing the ``order by`` keys, given as
    (key closure, descending) pairs."""
    keys_per_spec = [(singleton_values(key_fn(state, loop, env)), descending)
                     for key_fn, descending in order_keys]
    iterations = list(loop.col("iter"))

    # stable two-phase sort: strings cannot be negated, so descending
    # string keys are handled by sorting each spec separately (last spec
    # first) with Python's stable sort
    ordered = list(iterations)
    for values, descending in reversed(keys_per_spec):
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
