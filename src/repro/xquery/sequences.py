"""The ``iter|pos|item`` sequence encoding and loop-lifting plumbing.

Section 2.1: every XQuery (sub)expression is compiled with respect to its
enclosing ``for``-loops, represented by a unary ``loop`` relation of
iteration numbers.  The value of an expression is an ``iter|pos|item`` table:
tuple ``(i, p, x)`` means "in iteration *i* the item at position *p* is *x*".

This module provides the building blocks the compiler uses:

* :func:`lift_constant` / :func:`lift_items` — loop-lifting of constants and
  literal sequences (``loop × (pos, item)``),
* :func:`for_binding` — the ρ-based construction of the *scope map*
  (``outer|inner``), the inner loop relation and the variable representation
  for a ``for`` clause,
* :func:`lift_environment` — re-keying free variables to an inner loop via
  the scope map,
* :func:`back_map` — mapping an inner-loop result back to the enclosing loop
  (the single equi-join with the scope map, plus positional renumbering),
* small utilities (:func:`sequence_items`, :func:`singleton_per_iter`, ...).

All tables produced here are kept ordered on ``[iter, pos]`` — the invariant
the order-aware physical algebra of Section 4.1 maintains so that sorts can
be skipped downstream.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..relational import operators as ops
from ..relational.column import Column, DenseColumn, IntColumn, make_column
from ..relational.properties import ColumnProps, TableProps
from ..relational.table import Table


SEQ_COLUMNS = ("iter", "pos", "item")


def empty_sequence() -> Table:
    """The relational encoding of the empty sequence ``()`` for every iteration."""
    table = Table.empty(SEQ_COLUMNS)
    table.props.order = ("iter", "pos")
    return table


def make_loop(iterations: Sequence[int]) -> Table:
    """Build a loop relation from explicit iteration numbers (ascending).

    A ``range`` input yields a virtual dense column; everything else is a
    typed ``i64`` column (iteration numbers are always integers).
    """
    if isinstance(iterations, range) and iterations.step == 1:
        column: Column = DenseColumn("iter", len(iterations),
                                     base=iterations.start)
    else:
        column = IntColumn("iter", iterations, infer=True)
    return Table([column], props=TableProps(order=("iter",)))


def unit_loop() -> Table:
    """The outermost loop relation: a single iteration."""
    return make_loop([1])


def sequence_table(rows: Iterable[tuple[int, int, Any]]) -> Table:
    """Build an ``iter|pos|item`` table from explicit rows (test helper)."""
    rows = list(rows)
    table = Table.from_dict({
        "iter": [row[0] for row in rows],
        "pos": [row[1] for row in rows],
        "item": [row[2] for row in rows],
    }, order=("iter", "pos"))
    return table


def lift_constant(loop: Table, value: Any) -> Table:
    """Loop-lift a single constant item: every iteration sees ``(1, value)``."""
    count = loop.row_count
    columns = [
        loop.column("iter").renamed("iter"),
        Column.constant("pos", 1, count),
        Column.constant("item", value, count),
    ]
    return Table(columns, props=TableProps(order=("iter", "pos")))


def lift_items(loop: Table, items: Sequence[Any]) -> Table:
    """Loop-lift a literal item sequence: every iteration sees the whole sequence."""
    from array import array

    iters = array("q")
    positions = array("q")
    values: list[Any] = []
    width = len(items)
    pos_block = range(1, width + 1)
    for iteration in loop.col("iter"):
        iters.extend([iteration] * width)
        positions.extend(pos_block)
        values.extend(items)
    columns = [IntColumn("iter", iters), IntColumn("pos", positions),
               Column("item", values)]
    return Table(columns, props=TableProps(order=("iter", "pos")))


def item_per_iteration(items: Sequence[Any]) -> Table:
    """Iterations ``1..n``, the i-th bound to the singleton ``items[i-1]``."""
    return Table([
        Column.dense("iter", len(items), base=1),
        Column.constant("pos", 1, len(items)),
        Column("item", items),
    ], props=TableProps(order=("iter", "pos")))


def from_iter_items(pairs: Sequence[tuple[int, Any]], *,
                    need_pos: bool = True) -> Table:
    """Build a sequence table from (iter, item) pairs already in sequence order.

    Positions are renumbered densely per iteration (streaming, since the
    pairs are grouped per iteration in order).  With ``need_pos=False`` —
    the projection-pushdown rewrite proved no consumer reads ``pos`` — the
    renumbering is skipped and a constant column stands in.
    """
    iters = [pair[0] for pair in pairs]
    items = [pair[1] for pair in pairs]
    if not need_pos:
        from ..relational import explain
        explain.record("project", "project.pushdown", len(iters), len(iters),
                       detail="pos pruned")
        return Table([
            IntColumn("iter", iters),
            Column.constant("pos", 1, len(iters)),
            Column("item", items),
        ], props=TableProps(order=("iter",)))
    table = Table([IntColumn("iter", iters), Column("item", items)],
                  props=TableProps(order=("iter",)))
    table.add_group_order((), "iter")
    table = ops.rownum(table, "pos", (), partition="iter")
    table = ops.project(table, {"iter": "iter", "pos": "pos", "item": "item"})
    table.props.order = ("iter", "pos")
    return table


def sequence_items(sequence: Table, iteration: int | None = None) -> list[Any]:
    """The items of a sequence table (optionally restricted to one iteration)."""
    if iteration is None:
        return list(sequence.col("item"))
    return [item for it, item in zip(sequence.col("iter"), sequence.col("item"))
            if it == iteration]


def items_by_iteration(sequence: Table) -> dict[int, list[Any]]:
    """Group the items of a sequence table per iteration (in sequence order)."""
    grouped: dict[int, list[Any]] = {}
    for iteration, item in zip(sequence.col("iter"), sequence.col("item")):
        grouped.setdefault(iteration, []).append(item)
    return grouped


def singleton_values(sequence: Table) -> dict[int, Any]:
    """First item per iteration (the singleton-value view of a sequence)."""
    values: dict[int, Any] = {}
    for iteration, item in zip(sequence.col("iter"), sequence.col("item")):
        values.setdefault(iteration, item)
    return values


def ensure_sequence_order(sequence: Table, *, use_properties: bool = True) -> Table:
    """Guarantee the ``[iter, pos]`` ordering of a sequence table."""
    from ..relational.sorting import sort
    return sort(sequence, ("iter", "pos"), use_properties=use_properties)


# --------------------------------------------------------------------------- #
# for-binding: scope map, inner loop, variable representation
# --------------------------------------------------------------------------- #
def for_binding(sequence: Table, *, use_properties: bool = True
                ) -> tuple[Table, Table, Table, Table]:
    """Derive the pieces needed to compile ``for $v in <sequence>``.

    Given the ``iter|pos|item`` encoding of the bound sequence (ordered on
    ``[iter, pos]``), returns a 4-tuple:

    * ``scope_map`` — ``outer|inner`` relation mapping enclosing-loop
      iterations to the new (one per bound item) iterations,
    * ``inner_loop`` — the new loop relation (column ``iter``),
    * ``variable`` — the representation of ``$v`` keyed by the inner loop
      (``iter|pos|item`` with ``pos = 1``),
    * ``positions`` — ``iter|pos|item`` giving the original position of the
      bound item within its enclosing iteration (used for ``at $p``).
    """
    sequence = ensure_sequence_order(sequence, use_properties=use_properties)
    numbered = ops.rownum(sequence, "inner", (), partition=None,
                          use_properties=True)
    count = numbered.row_count

    scope_map = ops.project(numbered, {"outer": "iter", "inner": "inner"})
    # `inner` is numbered in [iter, pos] order, so the map is ordered both on
    # inner alone and lexicographically on (outer, inner)
    scope_map.props.order = ("outer", "inner")
    scope_map.column("inner").props = ColumnProps(dense=True, dense_base=1, key=True)

    inner_loop = ops.project(numbered, {"iter": "inner"})
    inner_loop.props.order = ("iter",)
    inner_loop.column("iter").props = ColumnProps(dense=True, dense_base=1, key=True)

    # `inner` is 1..count by construction: both derived tables get a
    # virtual dense iter column instead of a materialised copy
    variable = Table([
        Column.dense("iter", count, base=1),
        Column.constant("pos", 1, count),
        numbered.column("item").renamed("item"),
    ], props=TableProps(order=("iter", "pos")))

    positions = Table([
        Column.dense("iter", count, base=1),
        Column.constant("pos", 1, count),
        make_column("item", numbered.col("pos")),
    ], props=TableProps(order=("iter", "pos")))

    return scope_map, inner_loop, variable, positions


def lift_environment(environment: dict[str, Table], scope_map: Table, *,
                     use_positional: bool = True) -> dict[str, Table]:
    """Re-key every variable representation to the inner loop of a scope map.

    For each variable the scope map (``outer|inner``, ordered on ``inner``)
    is joined with the variable's ``iter|pos|item`` table on
    ``outer = iter``; the result is keyed by ``inner`` and stays ordered on
    ``[inner, pos]`` because the scope map is scanned in ``inner`` order.
    """
    lifted: dict[str, Table] = {}
    for name, representation in environment.items():
        renamed = ops.project(representation,
                              {"outer_iter": "iter", "pos": "pos", "item": "item"})
        joined = ops.join(scope_map, renamed, "outer", "outer_iter",
                          use_positional=False)
        result = ops.project(joined, {"iter": "inner", "pos": "pos", "item": "item"})
        result.props.order = ("iter", "pos")
        lifted[name] = result
    return lifted


def restrict_loop(loop: Table, iterations: Iterable[int]) -> Table:
    """A new loop relation containing only the given iterations (order kept)."""
    wanted = set(iterations)
    kept = [iteration for iteration in loop.col("iter") if iteration in wanted]
    return make_loop(kept)


def restrict_sequence(sequence: Table, iterations: Iterable[int]) -> Table:
    """Keep only the rows of the given iterations (sequence order preserved)."""
    return ops.select_in(sequence, "iter", iterations)


def back_map(scope_map: Table, body: Table, *,
             order_keys: Table | None = None,
             use_properties: bool = True,
             need_pos: bool = True) -> Table:
    """Map an inner-loop result back to the enclosing loop.

    ``scope_map`` is the ``outer|inner`` relation of :func:`for_binding`;
    ``body`` is the inner-loop result (``iter|pos|item`` keyed by inner
    iterations).  The result is keyed by the *outer* iterations with
    positions renumbered in (outer, inner, pos) order — i.e. concatenating
    the per-iteration results of the inner loop in iteration order, which is
    exactly the XQuery semantics of a ``for`` loop.

    ``order_keys`` optionally supplies ``order by`` sort keys per inner
    iteration (columns ``iter`` and ``key1`` .. ``keyN``): the inner
    iterations are then ordered by the keys instead of their iteration
    number.

    ``need_pos=False`` (only valid without ``order_keys``) applies the
    projection-pushdown rewrite: no consumer reads positions, so the sort
    and the positional renumbering are skipped — the join output already
    carries the right per-iteration item order.
    """
    from ..relational import explain
    from ..relational.sorting import sort

    renamed_body = ops.project(body, {"body_iter": "iter", "body_pos": "pos",
                                      "item": "item"})
    joined = ops.join(scope_map, renamed_body, "inner", "body_iter",
                      use_positional=False)
    # the hash join probes the scope map in its (outer, inner) order and the
    # matches of one inner iteration arrive in body_pos order, so the output
    # is physically ordered on (outer, inner, body_pos) — the property the
    # order-aware peephole pass infers to prune the sort below
    joined.props.order = ("outer", "inner", "body_pos")

    if order_keys is None and not need_pos:
        result = ops.project(joined, {"iter": "outer", "item": "item"})
        result = ops.attach(result, "pos", 1)
        result = ops.project(result, {"iter": "iter", "pos": "pos",
                                      "item": "item"})
        result.props.order = ("iter",)
        explain.record("project", "project.pushdown", joined.row_count,
                       result.row_count, detail="back_map pos pruned")
        return result

    if order_keys is not None:
        key_columns = [name for name in order_keys.column_names if name != "iter"]
        renamed_keys = ops.project(order_keys,
                                   dict({"key_iter": "iter"},
                                        **{name: name for name in key_columns}))
        joined = ops.join(joined, renamed_keys, "inner", "key_iter",
                          use_positional=False)
        minor_order = (*key_columns, "inner", "body_pos")
        joined = sort(joined, ("outer", *minor_order),
                      use_properties=use_properties)
    else:
        minor_order = ("inner", "body_pos")
        joined = sort(joined, ("outer", *minor_order),
                      use_properties=use_properties)
        joined.add_group_order(minor_order, "outer")

    numbered = ops.rownum(joined, "new_pos", minor_order, partition="outer",
                          use_properties=use_properties)
    result = ops.project(numbered, {"iter": "outer", "pos": "new_pos",
                                    "item": "item"})
    result.props.order = ("iter", "pos")
    return result


def singleton_per_iter(loop: Table, values_by_iter: dict[int, Any]) -> Table:
    """Build a sequence table with (at most) one item per loop iteration."""
    iters = []
    items = []
    for iteration in loop.col("iter"):
        if iteration in values_by_iter:
            iters.append(iteration)
            items.append(values_by_iter[iteration])
    table = Table([
        IntColumn("iter", iters, infer=True),
        Column.constant("pos", 1, len(iters)),
        Column("item", items),
    ], props=TableProps(order=("iter", "pos")))
    return table
