"""Built-in function library of the XQuery front-end.

Every function receives the execution's
:class:`~repro.xquery.codegen.RunState` (``doc()`` reads its document
store), the current loop relation and the already-evaluated
``iter|pos|item`` tables of its arguments, and returns the ``iter|pos|item``
encoding of its result.  Two families cover almost everything:

* *aggregates* (count, sum, avg, max, min, exists, empty, distinct-values)
  fold the argument sequence per iteration — a relational ``aggregate`` by
  the ``iter`` column, which is "for free" because sequence tables are kept
  ordered on ``[iter, pos]``;
* *item-wise* functions (string, number, contains, concat, ...) map the
  per-iteration singleton values of their arguments.

The registry is keyed by function name; unknown functions raise
:class:`~repro.errors.XQueryUnsupportedError` naming the function.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

from ..errors import XQueryRuntimeError, XQueryTypeError, XQueryUnsupportedError
from ..xml.document import NodeKind, NodeRef
from .sequences import (items_by_iteration, lift_constant, sequence_items,
                        singleton_per_iter)
from .types import atomize, effective_boolean_value, to_number, to_string


FunctionImpl = Callable[..., Any]

_REGISTRY: dict[str, FunctionImpl] = {}


def register(name: str) -> Callable[[FunctionImpl], FunctionImpl]:
    def decorator(impl: FunctionImpl) -> FunctionImpl:
        _REGISTRY[name] = impl
        return impl
    return decorator


def lookup(name: str) -> FunctionImpl:
    if name.startswith("fn:"):
        name = name[3:]
    try:
        return _REGISTRY[name]
    except KeyError:
        raise XQueryUnsupportedError(f"unknown function {name}()") from None


def is_builtin(name: str) -> bool:
    if name.startswith("fn:"):
        name = name[3:]
    return name in _REGISTRY


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _first_by_iter(table) -> dict[int, Any]:
    """First item of each iteration (singleton access)."""
    first: dict[int, Any] = {}
    for iteration, item in zip(table.col("iter"), table.col("item")):
        first.setdefault(iteration, item)
    return first


def _map_items(state, loop, args, function, *, required: int | None = None,
               skip_missing: bool = True):
    """Apply ``function`` per iteration to the first item of each argument."""
    required = len(args) if required is None else required
    firsts = [_first_by_iter(argument) for argument in args]
    values: dict[int, Any] = {}
    for iteration in loop.col("iter"):
        operands = [first.get(iteration) for first in firsts]
        if skip_missing and any(operand is None for operand in operands[:required]):
            continue
        result = function(*operands)
        if result is None:
            continue
        values[iteration] = result
    return singleton_per_iter(loop, values)


def _constant_per_iter(loop, values_by_iter: dict[int, Any]):
    return singleton_per_iter(loop, values_by_iter)


# --------------------------------------------------------------------------- #
# sequence aggregates
# --------------------------------------------------------------------------- #
@register("count")
def fn_count(state, loop, args):
    grouped = items_by_iteration(args[0])
    values = {iteration: len(grouped.get(iteration, []))
              for iteration in loop.col("iter")}
    return _constant_per_iter(loop, values)


def _numeric_aggregate(loop, argument, kind: str):
    grouped = items_by_iteration(argument)
    values: dict[int, Any] = {}
    for iteration in loop.col("iter"):
        numbers = [to_number(item) for item in grouped.get(iteration, [])]
        numbers = [number for number in numbers if number is not None]
        if kind == "sum":
            values[iteration] = sum(numbers) if numbers else 0
            continue
        if not numbers:
            continue
        if kind == "min":
            values[iteration] = min(numbers)
        elif kind == "max":
            values[iteration] = max(numbers)
        elif kind == "avg":
            values[iteration] = sum(numbers) / len(numbers)
    return _constant_per_iter(loop, values)


@register("sum")
def fn_sum(state, loop, args):
    return _numeric_aggregate(loop, args[0], "sum")


@register("avg")
def fn_avg(state, loop, args):
    return _numeric_aggregate(loop, args[0], "avg")


@register("min")
def fn_min(state, loop, args):
    return _numeric_aggregate(loop, args[0], "min")


@register("max")
def fn_max(state, loop, args):
    return _numeric_aggregate(loop, args[0], "max")


@register("empty")
def fn_empty(state, loop, args):
    grouped = items_by_iteration(args[0])
    values = {iteration: len(grouped.get(iteration, [])) == 0
              for iteration in loop.col("iter")}
    return _constant_per_iter(loop, values)


@register("exists")
def fn_exists(state, loop, args):
    grouped = items_by_iteration(args[0])
    values = {iteration: len(grouped.get(iteration, [])) > 0
              for iteration in loop.col("iter")}
    return _constant_per_iter(loop, values)


@register("distinct-values")
def fn_distinct_values(state, loop, args):
    from .sequences import from_iter_items
    grouped = items_by_iteration(args[0])
    pairs: list[tuple[int, Any]] = []
    for iteration in loop.col("iter"):
        seen: set[Any] = set()
        for item in grouped.get(iteration, []):
            value = atomize(item)
            key = to_number(value)
            if key is None:
                key = to_string(value)
            if key in seen:
                continue
            seen.add(key)
            pairs.append((iteration, value))
    return from_iter_items(pairs)


@register("reverse")
def fn_reverse(state, loop, args):
    from .sequences import from_iter_items
    grouped = items_by_iteration(args[0])
    pairs: list[tuple[int, Any]] = []
    for iteration in loop.col("iter"):
        for item in reversed(grouped.get(iteration, [])):
            pairs.append((iteration, item))
    return from_iter_items(pairs)


@register("zero-or-one")
def fn_zero_or_one(state, loop, args):
    grouped = items_by_iteration(args[0])
    for iteration, items in grouped.items():
        if len(items) > 1:
            raise XQueryTypeError("zero-or-one() applied to a longer sequence")
    return args[0]


@register("exactly-one")
def fn_exactly_one(state, loop, args):
    grouped = items_by_iteration(args[0])
    for iteration in loop.col("iter"):
        if len(grouped.get(iteration, [])) != 1:
            raise XQueryTypeError("exactly-one() argument is not a singleton")
    return args[0]


@register("one-or-more")
def fn_one_or_more(state, loop, args):
    return args[0]


@register("subsequence")
def fn_subsequence(state, loop, args):
    from .sequences import from_iter_items
    grouped = items_by_iteration(args[0])
    starts = _first_by_iter(args[1])
    lengths = _first_by_iter(args[2]) if len(args) > 2 else {}
    pairs: list[tuple[int, Any]] = []
    for iteration in loop.col("iter"):
        items = grouped.get(iteration, [])
        start = int(to_number(starts.get(iteration, 1)) or 1)
        length = lengths.get(iteration)
        stop = len(items) if length is None else start - 1 + int(to_number(length) or 0)
        for item in items[start - 1:stop]:
            pairs.append((iteration, item))
    return from_iter_items(pairs)


# --------------------------------------------------------------------------- #
# booleans
# --------------------------------------------------------------------------- #
@register("not")
def fn_not(state, loop, args):
    grouped = items_by_iteration(args[0])
    values = {iteration: not effective_boolean_value(grouped.get(iteration, []))
              for iteration in loop.col("iter")}
    return _constant_per_iter(loop, values)


@register("boolean")
def fn_boolean(state, loop, args):
    grouped = items_by_iteration(args[0])
    values = {iteration: effective_boolean_value(grouped.get(iteration, []))
              for iteration in loop.col("iter")}
    return _constant_per_iter(loop, values)


@register("true")
def fn_true(state, loop, args):
    return lift_constant(loop, True)


@register("false")
def fn_false(state, loop, args):
    return lift_constant(loop, False)


# --------------------------------------------------------------------------- #
# strings
# --------------------------------------------------------------------------- #
@register("string")
def fn_string(state, loop, args):
    if not args:
        raise XQueryUnsupportedError("string() without argument needs a context item")
    return _map_items(state, loop, args, lambda value: to_string(value))


@register("data")
def fn_data(state, loop, args):
    from .sequences import from_iter_items
    grouped = items_by_iteration(args[0])
    pairs = [(iteration, atomize(item))
             for iteration in loop.col("iter")
             for item in grouped.get(iteration, [])]
    return from_iter_items(pairs)


@register("string-length")
def fn_string_length(state, loop, args):
    return _map_items(state, loop, args,
                      lambda value: len(to_string(value)))


@register("contains")
def fn_contains(state, loop, args):
    return _map_items(state, loop, args,
                      lambda haystack, needle:
                      to_string(needle) in to_string(haystack))


@register("starts-with")
def fn_starts_with(state, loop, args):
    return _map_items(state, loop, args,
                      lambda haystack, needle:
                      to_string(haystack).startswith(to_string(needle)))


@register("ends-with")
def fn_ends_with(state, loop, args):
    return _map_items(state, loop, args,
                      lambda haystack, needle:
                      to_string(haystack).endswith(to_string(needle)))


@register("substring")
def fn_substring(state, loop, args):
    def substring(value, start, length=None):
        text = to_string(value)
        begin = int(round(to_number(start) or 1)) - 1
        if length is None:
            return text[max(begin, 0):]
        end = begin + int(round(to_number(length) or 0))
        return text[max(begin, 0):max(end, 0)]
    return _map_items(state, loop, args, substring, required=2)


@register("concat")
def fn_concat(state, loop, args):
    def concat(*values):
        return "".join(to_string(value) for value in values if value is not None)
    return _map_items(state, loop, args, concat, required=0, skip_missing=False)


@register("string-join")
def fn_string_join(state, loop, args):
    grouped = items_by_iteration(args[0])
    separators = _first_by_iter(args[1]) if len(args) > 1 else {}
    values: dict[int, str] = {}
    for iteration in loop.col("iter"):
        separator = to_string(separators.get(iteration, ""))
        values[iteration] = separator.join(
            to_string(item) for item in grouped.get(iteration, []))
    return _constant_per_iter(loop, values)


@register("normalize-space")
def fn_normalize_space(state, loop, args):
    return _map_items(state, loop, args,
                      lambda value: " ".join(to_string(value).split()))


@register("upper-case")
def fn_upper_case(state, loop, args):
    return _map_items(state, loop, args, lambda value: to_string(value).upper())


@register("lower-case")
def fn_lower_case(state, loop, args):
    return _map_items(state, loop, args, lambda value: to_string(value).lower())


# --------------------------------------------------------------------------- #
# numbers
# --------------------------------------------------------------------------- #
@register("number")
def fn_number(state, loop, args):
    return _map_items(state, loop, args,
                      lambda value: to_number(value)
                      if to_number(value) is not None else math.nan)


@register("round")
def fn_round(state, loop, args):
    return _map_items(state, loop, args,
                      lambda value: round(to_number(value) or 0))


@register("floor")
def fn_floor(state, loop, args):
    return _map_items(state, loop, args,
                      lambda value: math.floor(to_number(value) or 0))


@register("ceiling")
def fn_ceiling(state, loop, args):
    return _map_items(state, loop, args,
                      lambda value: math.ceil(to_number(value) or 0))


@register("abs")
def fn_abs(state, loop, args):
    return _map_items(state, loop, args,
                      lambda value: abs(to_number(value) or 0))


# --------------------------------------------------------------------------- #
# nodes and documents
# --------------------------------------------------------------------------- #
@register("doc")
def fn_doc(state, loop, args):
    names = _first_by_iter(args[0])
    values: dict[int, Any] = {}
    for iteration in loop.col("iter"):
        name = names.get(iteration)
        if name is None:
            continue
        container = state.store.get(to_string(name))
        values[iteration] = NodeRef(container, 0)
    return _constant_per_iter(loop, values)


@register("document")
def fn_document(state, loop, args):
    return fn_doc(state, loop, args)


@register("name")
def fn_name(state, loop, args):
    def node_name(item):
        if not isinstance(item, NodeRef):
            raise XQueryTypeError("name() requires a node argument")
        return item.name() or ""
    return _map_items(state, loop, args, node_name)


@register("local-name")
def fn_local_name(state, loop, args):
    return fn_name(state, loop, args)


@register("root")
def fn_root(state, loop, args):
    def root_of(item):
        if not isinstance(item, NodeRef):
            raise XQueryTypeError("root() requires a node argument")
        return NodeRef(item.container, item.container.root_pre(item.pre))
    return _map_items(state, loop, args, root_of)
