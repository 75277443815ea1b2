"""Column-at-a-time relational algebra operators.

These are the physical operators the Pathfinder compiler emits ("MIL
generation"): projection/renaming, selection, equi- and theta-joins, cross
product, disjoint union, difference, duplicate elimination, the row-numbering
operator ``rownum`` (SQL:1999 ``DENSE_RANK() OVER (PARTITION BY g ORDER BY
c1..cn)``), aggregation and row-wise function application.

Every operator

* is **eager**: it materialises its result as a new :class:`Table` (exactly
  MonetDB's operator-at-a-time execution model),
* never mutates its inputs,
* propagates the column/table **properties** of Section 4.1 so that later
  operators can pick cheaper algorithms, and
* records the physical algorithm it chose on the active
  :mod:`~repro.relational.explain` trace.
"""

from __future__ import annotations

import operator as _py_operator
from array import array
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..errors import RelationalError, SchemaError, XQueryRuntimeError
from . import explain
from .column import (Column, DenseColumn, concat_values, int_column_values,
                     make_column)
from .positional import positional_join_positions
from .properties import ColumnProps, GroupOrder, TableProps
from .sorting import refine_sort, sort, total_order_key
from .table import Table


# --------------------------------------------------------------------------- #
# projection / renaming / constant columns
# --------------------------------------------------------------------------- #
def project(table: Table, columns: Sequence[str] | Mapping[str, str]) -> Table:
    """Project (and optionally rename) columns.

    ``columns`` is either a sequence of column names to keep, or a mapping
    ``{new_name: old_name}``.  Ordering properties survive as long as all of
    their columns survive the projection.
    """
    if isinstance(columns, Mapping):
        mapping = dict(columns)
    else:
        mapping = {name: name for name in columns}

    new_columns = []
    reverse: dict[str, str] = {}
    for new_name, old_name in mapping.items():
        new_columns.append(table.column(old_name).renamed(new_name))
        # remember only the first alias of a column for property translation
        reverse.setdefault(old_name, new_name)

    props = TableProps()
    order = []
    for name in table.props.order:
        if name not in reverse:
            break
        order.append(reverse[name])
    props.order = tuple(order)
    group_orders = []
    for grpord in table.props.group_orders:
        translated = grpord.renamed(reverse)
        if translated is not None:
            group_orders.append(translated)
    props.group_orders = tuple(group_orders)

    explain.record("project", "project", table.row_count, table.row_count,
                   detail=",".join(mapping))
    return Table(new_columns, props=props)


def attach(table: Table, name: str, value: Any) -> Table:
    """Attach a constant column (the paper's ``const`` columns)."""
    if name in table.columns:
        raise SchemaError(f"column {name!r} already exists")
    new_column = Column.constant(name, value, table.row_count)
    columns = list(table.columns.values()) + [new_column]
    props = table.props.copy()
    explain.record("attach", "attach", table.row_count, table.row_count, detail=name)
    return Table(columns, props=props)


def add_column(table: Table, name: str, values: Sequence[Any], *,
               props: ColumnProps | None = None) -> Table:
    """Attach a computed column of explicit values."""
    if name in table.columns:
        raise SchemaError(f"column {name!r} already exists")
    if len(values) != table.row_count:
        raise SchemaError(
            f"column {name!r} has {len(values)} values for {table.row_count} rows")
    columns = list(table.columns.values()) + [Column(name, values, props=props)]
    return Table(columns, props=table.props.copy())


def number(table: Table, name: str, base: int = 1) -> Table:
    """Attach a dense row number column in current physical row order.

    This is the ``ρ`` step that attaches a new ``iter`` column "densely
    numbered 1..n in the order given by the pos column" — valid because our
    intermediates are materialised in ``[iter,pos]`` order.
    """
    column = Column.dense(name, table.row_count, base=base)
    columns = list(table.columns.values()) + [column]
    props = table.props.copy()
    explain.record("number", "number", table.row_count, table.row_count, detail=name)
    return Table(columns, props=props)


# --------------------------------------------------------------------------- #
# selection
# --------------------------------------------------------------------------- #
def select_mask(table: Table, mask: Sequence[bool] | str) -> Table:
    """Keep the rows whose mask entry is true (mask column name or list)."""
    values = table.col(mask) if isinstance(mask, str) else mask
    if len(values) != table.row_count:
        raise SchemaError("selection mask length does not match row count")
    positions = [index for index, keep in enumerate(values) if keep]
    explain.record("select", "select.scan", table.row_count, len(positions))
    return table.take(positions, keep_order=True)


def select_eq(table: Table, column: str, value: Any, *,
              use_positional: bool = True) -> Table:
    """Select rows with ``column == value``.

    When the column carries the ``dense`` property (and positional lookup is
    enabled) the row is located by address computation instead of scanning.
    """
    col = table.column(column)
    if use_positional and col.props.dense:
        base = col.props.dense_base
        if isinstance(value, int) and not isinstance(value, bool) \
                and 0 <= value - base < len(col):
            explain.record("select", "select.positional", table.row_count, 1,
                           detail=f"{column}={value}")
            return table.take([value - base], keep_order=True)
        explain.record("select", "select.positional", table.row_count, 0,
                       detail=f"{column}={value}")
        return table.take([], keep_order=True)
    typed = int_column_values(col)
    if typed is not None:
        # typed kernel: scan the raw 64-bit buffer with the memchr-backed
        # bytes.find primitive instead of a per-row comparison loop (the
        # misaligned-hit check rejects byte patterns straddling two
        # values).  Integer cross-type equality (True == 1 == 1.0) is
        # preserved by probing with the integral representative;
        # non-integral probes cannot match an all-int column.
        probe: int | None = None
        if isinstance(value, bool):
            probe = int(value)
        elif isinstance(value, int):
            probe = value
        elif isinstance(value, float) and value.is_integer():
            probe = int(value)
        positions = array("q")
        if probe is not None:
            if isinstance(typed, range):
                if probe in typed:
                    positions.append(typed.index(probe))
            elif -(2 ** 63) <= probe < 2 ** 63:
                buffer = typed.tobytes()
                needle = array("q", (probe,)).tobytes()
                offset = buffer.find(needle)
                while offset != -1:
                    if offset % 8 == 0:
                        positions.append(offset // 8)
                        offset = buffer.find(needle, offset + 8)
                    else:
                        offset = buffer.find(needle, offset + 1)
        explain.record("select", "select.int-scan", table.row_count,
                       len(positions), detail=f"{column}={value}")
        return table.take(positions, keep_order=True)
    positions = [index for index, item in enumerate(col.values) if item == value]
    explain.record("select", "select.scan", table.row_count, len(positions),
                   detail=f"{column}={value}")
    return table.take(positions, keep_order=True)


def select_in(table: Table, column: str, values: Iterable[Any]) -> Table:
    """Select rows whose column value is a member of ``values``."""
    wanted = set(values)
    col = table.col(column)
    positions = [index for index, item in enumerate(col) if item in wanted]
    explain.record("select", "select.in", table.row_count, len(positions),
                   detail=column)
    return table.take(positions, keep_order=True)


# --------------------------------------------------------------------------- #
# joins
# --------------------------------------------------------------------------- #
def _check_disjoint(left: Table, right: Table) -> None:
    overlap = set(left.columns) & set(right.columns)
    if overlap:
        raise SchemaError(
            f"join inputs share column names {sorted(overlap)}; rename first")


def join(left: Table, right: Table, left_on: str, right_on: str, *,
         use_positional: bool = True) -> Table:
    """Equi-join ``left`` and ``right`` on ``left_on == right_on``.

    Column sets of the two inputs must be disjoint (the compiler renames
    before joining).  The physical algorithm is chosen from the properties of
    the join columns:

    * **positional join** when the right join column is dense (autoincrement
      style) and every probe value hits — the "positional lookup" fast path
      the paper advocates; the output has exactly one match per left row and
      keeps the left row order;
    * **hash join** otherwise, building on the right input and probing with
      the left input in order, so the output stays ordered on the left
      ordering columns.
    """
    _check_disjoint(left, right)
    probe_values = left.col(left_on)

    if use_positional:
        positions = positional_join_positions(probe_values, right, right_on)
        if positions is not None:
            columns = [column.take(range(left.row_count))
                       for column in left.columns.values()]
            for name, column in right.columns.items():
                columns.append(column.take(positions))
            props = TableProps(order=tuple(left.props.order),
                               group_orders=tuple(left.props.group_orders))
            result = Table(columns, props=props)
            # properties of the left columns survive 1:1
            for name, column in left.columns.items():
                result.column(name).props = column.props.copy()
            explain.record("join", "join.positional", left.row_count,
                           result.row_count, detail=f"{left_on}={right_on}")
            return result

    buckets: dict[Any, list[int]] = {}
    for index, value in enumerate(right.col(right_on)):
        buckets.setdefault(value, []).append(index)

    left_positions: list[int] = []
    right_positions: list[int] = []
    for index, value in enumerate(probe_values):
        for match in buckets.get(value, ()):
            left_positions.append(index)
            right_positions.append(match)

    columns = [column.take(left_positions) for column in left.columns.values()]
    columns += [column.take(right_positions) for column in right.columns.values()]
    props = TableProps(order=tuple(left.props.order))
    result = Table(columns, props=props)
    explain.record("join", "join.hash", left.row_count + right.row_count,
                   result.row_count, detail=f"{left_on}={right_on}")
    return result


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "eq": _py_operator.eq,
    "ne": _py_operator.ne,
    "lt": _py_operator.lt,
    "le": _py_operator.le,
    "gt": _py_operator.gt,
    "ge": _py_operator.ge,
}


def theta_join(left: Table, right: Table, left_on: str, right_on: str,
               comparison: str, *, algorithm: str = "auto",
               sample_size: int = 32) -> Table:
    """Theta-join with one of the comparisons ``eq ne lt le gt ge``.

    For ``eq`` a hash join is used.  For the other comparisons the paper's
    "choose-plan" strategy applies: a small join sample estimates the hit
    rate; a low hit rate favours the index-lookup join (sort the right input,
    binary-search the qualifying range per probe, refine-sort afterwards),
    while a high hit rate favours the nested-loop join whose output is
    naturally ordered on ``[left, right]`` row order.
    ``algorithm`` may force ``"nested-loop"`` or ``"index"``.
    """
    _check_disjoint(left, right)
    if comparison not in _COMPARATORS:
        raise RelationalError(f"unsupported theta-join comparison {comparison!r}")
    if comparison == "eq":
        return join(left, right, left_on, right_on, use_positional=False)

    compare = _COMPARATORS[comparison]
    left_values = left.col(left_on)
    right_values = right.col(right_on)

    chosen = algorithm
    if chosen == "auto":
        chosen = _choose_theta_algorithm(left_values, right_values, compare,
                                         sample_size)

    if chosen == "index":
        left_positions, right_positions = _index_lookup_join(
            left_values, right_values, comparison)
        algorithm_name = "theta.index"
    else:
        left_positions = []
        right_positions = []
        for lindex, lvalue in enumerate(left_values):
            for rindex, rvalue in enumerate(right_values):
                if _safe_compare(compare, lvalue, rvalue):
                    left_positions.append(lindex)
                    right_positions.append(rindex)
        algorithm_name = "theta.nested-loop"

    columns = [column.take(left_positions) for column in left.columns.values()]
    columns += [column.take(right_positions) for column in right.columns.values()]
    props = TableProps(order=tuple(left.props.order))
    result = Table(columns, props=props)
    explain.record("theta_join", algorithm_name,
                   left.row_count + right.row_count, result.row_count,
                   detail=f"{left_on} {comparison} {right_on}")
    return result


def _safe_compare(compare: Callable[[Any, Any], bool], left: Any, right: Any) -> bool:
    try:
        return bool(compare(left, right))
    except TypeError:
        return False


def _choose_theta_algorithm(left_values: Sequence[Any],
                            right_values: Sequence[Any],
                            compare: Callable[[Any, Any], bool],
                            sample_size: int) -> str:
    """Estimate the join hit rate on a small sample ("choose-plan")."""
    if not left_values or not right_values:
        return "index"
    lstep = max(1, len(left_values) // sample_size)
    rstep = max(1, len(right_values) // sample_size)
    lsample = left_values[::lstep][:sample_size]
    rsample = right_values[::rstep][:sample_size]
    hits = 0
    total = 0
    for lvalue in lsample:
        for rvalue in rsample:
            total += 1
            if _safe_compare(compare, lvalue, rvalue):
                hits += 1
    hit_rate = hits / total if total else 0.0
    return "nested-loop" if hit_rate > 0.25 else "index"


def _index_lookup_join(left_values: Sequence[Any], right_values: Sequence[Any],
                       comparison: str) -> tuple[list[int], list[int]]:
    """Sort the right input once, answer each probe with a range lookup."""
    order = sorted(range(len(right_values)),
                   key=lambda index: total_order_key(right_values[index]))
    sorted_keys = [total_order_key(right_values[index]) for index in order]

    import bisect

    left_positions: list[int] = []
    right_positions: list[int] = []
    for lindex, lvalue in enumerate(left_values):
        key = total_order_key(lvalue)
        if comparison == "lt":          # right values strictly greater
            start = bisect.bisect_right(sorted_keys, key)
            matches = order[start:]
        elif comparison == "le":
            start = bisect.bisect_left(sorted_keys, key)
            matches = order[start:]
        elif comparison == "gt":        # right values strictly smaller
            end = bisect.bisect_left(sorted_keys, key)
            matches = order[:end]
        elif comparison == "ge":
            end = bisect.bisect_right(sorted_keys, key)
            matches = order[:end]
        elif comparison == "ne":
            matches = [index for index in order
                       if total_order_key(right_values[index]) != key]
        else:  # pragma: no cover - eq handled by the hash join
            raise RelationalError(f"unexpected comparison {comparison!r}")
        # refine: emit matches in right row order within each probe
        for rindex in sorted(matches):
            left_positions.append(lindex)
            right_positions.append(rindex)
    return left_positions, right_positions


def cross(left: Table, right: Table) -> Table:
    """Cartesian product (left-major order)."""
    _check_disjoint(left, right)
    left_positions: list[int] = []
    right_positions: list[int] = []
    for lindex in range(left.row_count):
        for rindex in range(right.row_count):
            left_positions.append(lindex)
            right_positions.append(rindex)
    columns = [column.take(left_positions) for column in left.columns.values()]
    columns += [column.take(right_positions) for column in right.columns.values()]
    props = TableProps(order=tuple(left.props.order))
    result = Table(columns, props=props)
    explain.record("cross", "cross", left.row_count + right.row_count,
                   result.row_count)
    return result


# --------------------------------------------------------------------------- #
# set-style operators
# --------------------------------------------------------------------------- #
def union_all(tables: Sequence[Table]) -> Table:
    """Disjoint union: concatenate tables with identical column names."""
    tables = [table for table in tables]
    if not tables:
        raise RelationalError("union_all of zero tables")
    names = tables[0].column_names
    for table in tables[1:]:
        if table.column_names != names:
            raise SchemaError(
                f"union_all schema mismatch: {table.column_names} vs {names}")
    columns = []
    for name in names:
        # the merge stays typed (one array('q') concat) when every input
        # column is typed; any list input degrades the result to a list
        merged_values = concat_values([table.col(name) for table in tables])
        columns.append(make_column(name, merged_values))
    rows_in = sum(table.row_count for table in tables)
    explain.record("union", "union.append", rows_in, rows_in)
    return Table(columns)


def difference(left: Table, right: Table, columns: Sequence[str]) -> Table:
    """Anti-join: keep left rows whose ``columns`` tuple is absent in right."""
    right_keys = set(right.rows(columns))
    positions = [index for index, key in enumerate(left.rows(columns))
                 if key not in right_keys]
    explain.record("difference", "difference.hash", left.row_count + right.row_count,
                   len(positions), detail=",".join(columns))
    return left.take(positions, keep_order=True)


def distinct(table: Table, columns: Sequence[str] | None = None) -> Table:
    """Duplicate elimination on the given columns (all columns by default).

    Keeps the first occurrence of each key in input order.  When the table is
    already ordered on the key columns only adjacent rows have to be compared
    (merge-style ``δ``); otherwise a hash table is used.  Both variants
    produce the same table, only the recorded algorithm differs.
    """
    key_columns = tuple(columns) if columns is not None else table.column_names
    if table.props.ordered_on(key_columns):
        positions = []
        previous = object()
        for index, key in enumerate(table.rows(key_columns)):
            if key != previous:
                positions.append(index)
                previous = key
        explain.record("distinct", "distinct.merge", table.row_count,
                       len(positions), detail=",".join(key_columns))
    else:
        seen: set = set()
        positions = []
        for index, key in enumerate(table.rows(key_columns)):
            if key not in seen:
                seen.add(key)
                positions.append(index)
        explain.record("distinct", "distinct.hash", table.row_count,
                       len(positions), detail=",".join(key_columns))
    return table.take(positions, keep_order=True)


# --------------------------------------------------------------------------- #
# row numbering (DENSE_RANK OVER (PARTITION BY g ORDER BY c1..cn))
# --------------------------------------------------------------------------- #
def rownum(table: Table, name: str, order_by: Sequence[str], *,
           partition: str | None = None, base: int = 1,
           use_properties: bool = True) -> Table:
    """The ``ρ A:<c1..cn>/g`` operator of the paper.

    For every partition (tuple group defined by ``partition``; a single group
    when ``partition`` is None) the rows are numbered ``base, base+1, ...``
    following the ordering given by ``order_by``.  The physical row order of
    the table is unchanged; only the numbering column is added.

    Two algorithms exist:

    * **streaming** (hash-based): a counter per active partition value,
      incremented in scan order.  Valid when the ``grpord(order_by,
      partition)`` property holds, i.e. rows of one partition already appear
      in ``order_by`` order (they need not be clustered).
    * **sorting**: the generic algorithm; computes the rank via an argsort on
      ``[partition, order_by]``.
    """
    if name in table.columns:
        raise SchemaError(f"column {name!r} already exists")
    order_by = tuple(order_by)
    row_count = table.row_count

    streaming_ok = False
    if use_properties:
        if partition is None:
            streaming_ok = table.props.ordered_on(order_by)
        else:
            streaming_ok = table.props.group_ordered_on(order_by, partition)

    if streaming_ok and partition is None:
        # single partition numbered in physical order: the result is by
        # definition base, base+1, ... — emit a virtual dense column
        # without touching a single row
        explain.record("rownum", "rownum.streaming", row_count, row_count,
                       detail=f"{name}:<{','.join(order_by)}>/- (dense)")
        column = DenseColumn(name, row_count, base=base)
        columns = list(table.columns.values()) + [column]
        return Table(columns, props=table.props.copy())

    values: list[int] = [0] * row_count
    if streaming_ok:
        counters: dict[Any, int] = {}
        group_col = table.col(partition) if partition is not None else None
        for index in range(row_count):
            group = group_col[index] if group_col is not None else None
            next_value = counters.get(group, base)
            values[index] = next_value
            counters[group] = next_value + 1
        algorithm = "rownum.streaming"
    else:
        sort_cols = ([partition] if partition is not None else []) + list(order_by)
        cols = [table.col(column) for column in sort_cols]

        def sort_key(index: int) -> tuple:
            return tuple(total_order_key(col[index]) for col in cols)

        order = sorted(range(row_count), key=sort_key)
        group_col = table.col(partition) if partition is not None else None
        counters = {}
        for index in order:
            group = group_col[index] if group_col is not None else None
            next_value = counters.get(group, base)
            values[index] = next_value
            counters[group] = next_value + 1
        algorithm = "rownum.sorting"

    explain.record("rownum", algorithm, row_count, row_count,
                   detail=f"{name}:<{','.join(order_by)}>/{partition or '-'}")
    props = ColumnProps()
    if partition is None:
        # a single partition numbered in (implicit) order: values are a
        # permutation of base..base+n-1 and therefore a key
        props.key = True
    result = add_column(table, name, values, props=props)
    if partition is not None:
        result.add_group_order((name,), partition)
    return result


# --------------------------------------------------------------------------- #
# aggregation
# --------------------------------------------------------------------------- #
_AGGREGATES = {"count", "sum", "min", "max", "avg", "first", "last",
               "min-value", "max-value"}


def aggregate(table: Table, group_by: str | None,
              specs: Sequence[tuple[str, str, str | None]]) -> Table:
    """Grouped aggregation.

    ``specs`` is a sequence of ``(result_column, kind, source_column)`` where
    ``kind`` is one of ``count, sum, min, max, avg, first, last`` (``count``
    ignores the source column).  The output contains one row per group,
    sorted ascending on the group value, with the group column first.  With
    ``group_by=None`` a single global row is produced.

    Grouping is "for free" (merge) when the input is ordered on the group
    column — the situation the paper exploits for the min/max rewrite of
    existential theta-joins — and hash-based otherwise.
    """
    for _, kind, _ in specs:
        if kind not in _AGGREGATES:
            raise RelationalError(f"unknown aggregate {kind!r}")

    groups: dict[Any, list[int]] = {}
    if group_by is None:
        groups[None] = list(range(table.row_count))
        algorithm = "aggregate.global"
    else:
        group_values = table.col(group_by)
        if table.props.ordered_on((group_by,)):
            algorithm = "aggregate.merge"
        else:
            algorithm = "aggregate.hash"
        for index, value in enumerate(group_values):
            groups.setdefault(value, []).append(index)

    group_keys = sorted(groups, key=total_order_key) if group_by is not None else [None]

    columns: list[Column] = []
    if group_by is not None:
        columns.append(Column(group_by, list(group_keys),
                              props=ColumnProps(key=True)))

    source_cols = {source: table.col(source)
                   for _, _, source in specs if source is not None}
    for result_name, kind, source in specs:
        out: list[Any] = []
        for key in group_keys:
            positions = groups[key]
            if kind == "count":
                out.append(len(positions))
                continue
            values = [source_cols[source][position] for position in positions]
            out.append(_aggregate_value(kind, values))
        columns.append(Column(result_name, out))

    props = TableProps(order=(group_by,) if group_by is not None else ())
    result = Table(columns, props=props)
    explain.record("aggregate", algorithm, table.row_count, result.row_count,
                   detail=",".join(f"{kind}" for _, kind, _ in specs))
    return result


def _aggregate_value(kind: str, values: Sequence[Any]) -> Any:
    if kind == "first":
        return values[0] if values else None
    if kind == "last":
        return values[-1] if values else None
    if kind in ("min-value", "max-value"):
        # order-preserving extremum: no numeric coercion (used by the
        # existential min/max join plan on the string-typed domain)
        if not values:
            return None
        chooser = min if kind == "min-value" else max
        return chooser(values, key=total_order_key)
    numeric = [_as_number(value) for value in values]
    numeric = [value for value in numeric if value is not None]
    if kind == "sum":
        return sum(numeric) if numeric else 0
    if not numeric:
        return None
    if kind == "min":
        return min(numeric)
    if kind == "max":
        return max(numeric)
    if kind == "avg":
        return sum(numeric) / len(numeric)
    raise RelationalError(f"unknown aggregate {kind!r}")  # pragma: no cover


def _as_number(value: Any) -> float | int | None:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            if any(ch in value for ch in ".eE"):
                return float(value)
            return int(value)
        except ValueError:
            try:
                return float(value)
            except ValueError:
                return None
    return None


# --------------------------------------------------------------------------- #
# row-wise function application
# --------------------------------------------------------------------------- #
def fun(table: Table, name: str, function: Callable[..., Any],
        arguments: Sequence[str | tuple[str, Any]]) -> Table:
    """Attach a column computed row-wise from other columns.

    ``arguments`` items are either column names or ``("const", value)`` pairs.
    """
    resolved: list[tuple[bool, Any]] = []
    for argument in arguments:
        if isinstance(argument, tuple) and len(argument) == 2 and argument[0] == "const":
            resolved.append((False, argument[1]))
        else:
            resolved.append((True, table.col(argument)))

    values = []
    for index in range(table.row_count):
        args = []
        for is_column, payload in resolved:
            args.append(payload[index] if is_column else payload)
        values.append(function(*args))

    explain.record("fun", "fun.map", table.row_count, table.row_count, detail=name)
    return add_column(table, name, values)


# convenience wrappers for the comparison / arithmetic kernels ---------------- #
def numeric(value: Any) -> float | int | None:
    """Public numeric coercion helper (XQuery-style untyped atomic casting)."""
    return _as_number(value)


def compare_values(op: str, left: Any, right: Any) -> bool:
    """General-comparison kernel with numeric promotion.

    When either operand is numeric, both are promoted to numbers (an
    unconvertible operand simply does not match); otherwise string comparison
    applies.  This mirrors XQuery's untyped-atomic comparison rules closely
    enough for the XMark workload.
    """
    compare = _COMPARATORS[op]
    if isinstance(left, (int, float)) and not isinstance(left, bool) or \
            isinstance(right, (int, float)) and not isinstance(right, bool):
        left_num = _as_number(left)
        right_num = _as_number(right)
        if left_num is None or right_num is None:
            return False
        return compare(left_num, right_num)
    if isinstance(left, bool) or isinstance(right, bool):
        return compare(bool(left), bool(right))
    return _safe_compare(compare, str(left), str(right))


def arithmetic(op: str, left: Any, right: Any) -> float | int | None:
    """Arithmetic kernel with numeric promotion (returns None when an
    operand is not a number).

    ``div``, ``idiv`` and ``mod`` by zero raise ``err:FOAR0001``.  The
    engine has no separate ``xs:double`` (no exponent literals; a float is
    an ``xs:decimal``), so a ``0.0`` divisor raises like ``0`` — there is
    no ``INF``/``NaN``-producing division.
    """
    left_num = _as_number(left)
    right_num = _as_number(right)
    if left_num is None or right_num is None:
        return None
    if op == "add":
        return left_num + right_num
    if op == "sub":
        return left_num - right_num
    if op == "mul":
        return left_num * right_num
    if op not in ("div", "idiv", "mod"):
        raise RelationalError(f"unknown arithmetic operator {op!r}")
    if right_num == 0:
        raise XQueryRuntimeError(
            f"err:FOAR0001: division by zero ({left_num} {op} {right_num})")
    if op == "div":
        return left_num / right_num
    if op == "idiv":
        return int(left_num // right_num)
    return left_num % right_num
