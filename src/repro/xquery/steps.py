"""Bridging XPath location steps to the staircase-join family.

``axis_step`` receives the relational encoding of the context node sequences
of all iterations (``iter|pos|item`` with node items), converts it into the
``(pre, iter)`` pairs the staircase joins expect, dispatches to

* the **loop-lifted** staircase join (default),
* the **iterative** staircase join (one pass per iteration — the Figure 12
  baseline, selected per axis through the engine options), or
* the **nametest pushdown** variant (candidate lists from the element-name
  index, Section 3.2),

and re-assembles an ``iter|pos|item`` table whose items are node surrogates
in document order per iteration.

The staircase joins deliver their results as paired ``(iter, pre)`` int
arrays; the assembly sorts/dedups on plain integers and boxes a
:class:`~repro.xml.document.NodeRef` only for rows that survive — and with
``need_item=False`` (the required-columns analysis proved every consumer
reads ``iter`` alone, e.g. ``count(path)``) no node surrogate is built at
all: the result table carries a typed ``iter`` column next to constant
``pos``/``item`` stand-ins.

``axis_step_chain`` is the **fused** evaluator for a whole chain of
predicate-free steps: the paired ``(iter, pre)`` arrays of each staircase
join feed the next join directly (sort/dedup on the raw int buffers via
:func:`repro.relational.sorting.sort_dedup_pairs`), so no intermediate step
ever boxes a surrogate or builds an ``iter|pos|item`` table — surrogates
appear once, at the chain's end, or never under dead-``item`` pruning.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from ..errors import XQueryTypeError
from ..relational.column import Column, IntColumn
from ..relational.properties import TableProps
from ..relational.sorting import argsort_ints, sort_dedup_pairs
from ..relational.table import Table
from ..relational import explain
from ..staircase.axes import Axis, NodeTest
from ..staircase.iterative import StaircaseStats
from ..staircase.loop_lifted import (iterative_step_arrays, ll_attribute,
                                     loop_lifted_step_arrays, pairs_to_arrays)
from ..staircase.pushdown import loop_lifted_step_pushdown
from ..xml.document import DocumentContainer, NodeKind, NodeRef
from . import ast


@dataclass
class StepOptions:
    """The ablation switches that govern location-step execution."""

    loop_lifted_child: bool = True
    loop_lifted_descendant: bool = True
    loop_lifted_other: bool = True
    nametest_pushdown: bool = True


def node_test_from_ast(test: "ast.NodeTestExpr") -> NodeTest:
    """Translate an AST node test into a staircase-join node test."""
    name = test.name if test.name not in (None, "*") else None
    return NodeTest(kind=test.kind, name=name)


def _wants_loop_lifted(axis: Axis, options: StepOptions) -> bool:
    if axis is Axis.CHILD:
        return options.loop_lifted_child
    if axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
        return options.loop_lifted_descendant
    return options.loop_lifted_other


def _split_context(context: Table) -> dict[int, tuple[DocumentContainer,
                                                      list[tuple[int, int]],
                                                      list[tuple[int, int]]]]:
    """Split an ``iter|pos|item`` context per document container.

    Returns ``id(container) -> (container, tree_pairs, attr_pairs)`` where
    ``tree_pairs`` are ``(pre, iter)`` tree-node contexts and ``attr_pairs``
    are ``(attr_index, iter)`` attribute-node contexts (routed per axis by
    :func:`_produce_attr_context`); non-node items raise a type error
    (XPTY0019).
    """
    per_container: dict[int, tuple[DocumentContainer, list[tuple[int, int]],
                                   list[tuple[int, int]]]] = {}
    for iteration, item in zip(context.col("iter"), context.col("item")):
        if not isinstance(item, NodeRef):
            raise XQueryTypeError(
                f"path step applied to a non-node item {item!r}")
        container = item.container
        entry = per_container.setdefault(id(container), (container, [], []))
        if item.attr is not None:
            entry[2].append((item.attr, iteration))
        else:
            entry[1].append((item.pre, iteration))
    return per_container


# How each axis treats an *attribute* context node: which axes to run over
# the owning element, and whether the attribute itself belongs to the
# result.  XPath defines the vertical and horizontal axes for attribute
# nodes through the owner: the owner is the attribute's parent, its
# ancestor-or-self chain are the attribute's ancestors, and in document
# order the attribute sits after the owner but before the owner's children
# — so following(attr) is descendant(owner) ∪ following(owner) while
# preceding(attr) excludes the whole ancestor chain and collapses to
# preceding(owner).  Sibling axes are empty for attributes, as are
# child / descendant / attribute; descendant-or-self is the attribute alone.
_ATTR_OWNER_AXES: dict[Axis, tuple[Axis, ...]] = {
    Axis.PARENT: (Axis.SELF,),
    Axis.ANCESTOR: (Axis.ANCESTOR_OR_SELF,),
    Axis.ANCESTOR_OR_SELF: (Axis.ANCESTOR_OR_SELF,),
    Axis.FOLLOWING: (Axis.DESCENDANT, Axis.FOLLOWING),
    Axis.PRECEDING: (Axis.PRECEDING,),
}
_ATTR_SELF_AXES = (Axis.SELF, Axis.ANCESTOR_OR_SELF, Axis.DESCENDANT_OR_SELF)


def _produce_step(container: DocumentContainer, pairs: list[tuple[int, int]],
                  axis: Axis, node_test: NodeTest, options: StepOptions,
                  stats: StaircaseStats | None
                  ) -> tuple[array, array, bool]:
    """One staircase-join dispatch over a normalized per-container context.

    ``pairs`` must already be sorted on ``[pre, iter]`` and duplicate free.
    Returns ``(iters, ranks, is_attr)`` where ``ranks`` are pre ranks for
    tree-node axes and attribute-table row indexes for the attribute axis.
    """
    if axis is Axis.ATTRIBUTE:
        name = node_test.name if node_test.has_name else None
        iters, attrs = pairs_to_arrays(ll_attribute(container, pairs, name))
        explain.record("step", "step.attribute", len(pairs), len(iters))
        return iters, attrs, True

    if _wants_loop_lifted(axis, options):
        if options.nametest_pushdown:
            pushed = loop_lifted_step_pushdown(container, pairs, axis,
                                               node_test, stats=stats,
                                               normalized=True)
            if pushed is not None:
                iters, pres = pushed
                explain.record("step", "step.pushdown", len(pairs),
                               len(iters), detail=axis.value)
                return iters, pres, False
        iters, pres = loop_lifted_step_arrays(container, pairs, axis,
                                              node_test, stats=stats,
                                              normalized=True)
        explain.record("step", "step.loop-lifted", len(pairs),
                       len(iters), detail=axis.value)
        return iters, pres, False

    iters, pres = iterative_step_arrays(container, pairs, axis, node_test,
                                        stats=stats)
    explain.record("step", "step.iterative", len(pairs),
                   len(iters), detail=axis.value)
    return iters, pres, False


def _produce_attr_context(container: DocumentContainer,
                          attr_pairs: list[tuple[int, int]], axis: Axis,
                          node_test: NodeTest, options: StepOptions,
                          stats: StaircaseStats | None
                          ) -> list[tuple[array, array, bool]]:
    """Evaluate one step over attribute-node contexts of one container.

    ``attr_pairs`` must be sorted ``(attr_index, iter)`` and duplicate
    free.  Per :data:`_ATTR_OWNER_AXES` the step is routed through the
    owning elements (and the attribute itself joins the result for the
    self-including axes when the node test accepts attribute nodes) —
    axes undefined for attributes yield nothing.
    """
    batches: list[tuple[array, array, bool]] = []
    if not attr_pairs:
        return batches
    if axis in _ATTR_SELF_AXES and node_test.kind in ("attribute", "node"):
        iters = array("q", (iteration for _, iteration in attr_pairs))
        ranks = array("q", (attr_index for attr_index, _ in attr_pairs))
        explain.record("step", "step.attr-context", len(attr_pairs),
                       len(iters), detail=axis.value)
        batches.append((iters, ranks, True))
    owner_axes = _ATTR_OWNER_AXES.get(axis, ())
    if owner_axes:
        owner_column = container.attr_owner
        owners = sorted({(owner_column[attr_index], iteration)
                         for attr_index, iteration in attr_pairs})
        for owner_axis in owner_axes:
            batches.append(_produce_step(container, owners, owner_axis,
                                         node_test, options, stats))
    return batches


def _produce_all(container: DocumentContainer,
                 tree_pairs: list[tuple[int, int]],
                 attr_pairs: list[tuple[int, int]], axis: Axis,
                 node_test: NodeTest, options: StepOptions,
                 stats: StaircaseStats | None
                 ) -> tuple[list[tuple[array, array, bool]], int]:
    """One step over the mixed tree/attribute contexts of one container.

    Normalizes both context kinds, dispatches tree contexts to the
    staircase joins and attribute contexts to the routing table, and
    returns the result batches plus the normalized context count.  Batches
    may overlap pairwise (e.g. ancestors reached from both a tree and an
    attribute context) — the assembly and the chain threading dedup.
    """
    batches: list[tuple[array, array, bool]] = []
    contexts_in = 0
    if tree_pairs:
        pairs = sorted(set(tree_pairs))
        contexts_in += len(pairs)
        batches.append(_produce_step(container, pairs, axis, node_test,
                                     options, stats))
    if attr_pairs:
        pairs = sorted(set(attr_pairs))
        contexts_in += len(pairs)
        batches.extend(_produce_attr_context(container, pairs, axis,
                                             node_test, options, stats))
    return batches, contexts_in


def _assemble_result(produced: list[tuple[DocumentContainer, array, array, bool]],
                     contexts_in: int, need_item: bool, detail: str, *,
                     kernel_order: bool = True) -> Table:
    """Merge per-container ``(iter, rank)`` arrays into the result table.

    One tree-node batch straight from a staircase kernel
    (``kernel_order``) is duplicate free and in document order per
    iteration already: it needs no row tuples, no dedup, and a sort — one
    stable sort on ``iter`` — only when it spans several iterations.
    Everything else (several containers or batches, attribute rows,
    positional picks) is merged in document order per iteration, duplicate
    free, comparing rows as plain int tuples — (iter, container order key,
    owner pre, attr flag, attr index) mirrors ``NodeRef.order_key()``
    exactly, so the sort/dedup never touches a boxed node surrogate.
    """
    items: list[NodeRef] = []
    if kernel_order and len(produced) == 1 and not produced[0][3]:
        container, iters_out, pres, _ = produced[0]
        if iters_out and iters_out.count(iters_out[0]) != len(iters_out):
            if need_item:
                order = argsort_ints(iters_out)
                iters_out = array("q", map(iters_out.__getitem__, order))
                pres = map(pres.__getitem__, order)
            else:
                iters_out = array("q", sorted(iters_out))
        if need_item:
            items = [NodeRef(container, pre) for pre in pres]
    else:
        rows: list[tuple[int, int, int, int, int, int]] = []
        for cidx, (container, iters, ranks, is_attr) in enumerate(produced):
            okey = container.order_key
            if is_attr:
                owners = container.attr_owner
                rows.extend((iteration, okey, owners[rank], 1, rank, cidx)
                            for iteration, rank in zip(iters, ranks))
            else:
                rows.extend((iteration, okey, rank, 0, 0, cidx)
                            for iteration, rank in zip(iters, ranks))
        rows.sort()
        deduped: list[tuple[int, int, int, int, int, int]] = []
        previous = None
        for row in rows:
            key = row[:5]
            if previous is not None and key == previous:
                continue
            deduped.append(row)
            previous = key
        iters_out = array("q", (row[0] for row in deduped))
        if need_item:
            for _, _, pre, flag, rank, cidx in deduped:
                container = produced[cidx][0]
                items.append(container.attribute(rank) if flag
                             else NodeRef(container, pre))

    if not need_item:
        # dead-item rewrite: per-iteration cardinalities survive, node
        # surrogates are never built and — since consumers read iter
        # alone — a constant pos column stands in (no per-row numbering)
        explain.record("step", "step.item-pruned", contexts_in,
                       len(iters_out), detail=detail)
        return Table([IntColumn("iter", iters_out),
                      Column.constant("pos", 1, len(iters_out)),
                      Column.constant("item", None, len(iters_out))],
                     props=TableProps(order=("iter",)))

    positions = array("q")
    for run in Counter(iters_out).values():     # iters_out is sorted
        positions.extend(range(1, run + 1))
    explain.record("step", "step.materialize", contexts_in,
                   len(items), detail=detail)
    return Table([IntColumn("iter", iters_out),
                  IntColumn("pos", positions),
                  Column("item", items)],
                 props=TableProps(order=("iter", "pos")))


def axis_step(context: Table, axis: Axis, node_test: NodeTest, *,
              options: StepOptions | None = None,
              stats: StaircaseStats | None = None,
              need_item: bool = True) -> Table:
    """Evaluate one location step for every iteration of the context.

    ``context`` is an ``iter|pos|item`` table whose items are
    :class:`~repro.xml.document.NodeRef` values; non-node items raise a type
    error (XPTY0019).  The result is an ``iter|pos|item`` table with the step
    results per iteration in document order, duplicate free, ``pos``
    renumbered 1..n per iteration.

    ``need_item=False`` applies the dead-``item`` rewrite: callers proved no
    consumer ever reads the node surrogates (only per-iteration
    cardinalities matter), so the per-row ``NodeRef`` boxing is skipped and
    ``item`` is a constant stand-in column.
    """
    if options is None:
        options = StepOptions()

    per_container = _split_context(context)
    produced: list[tuple[DocumentContainer, array, array, bool]] = []
    contexts_in = 0
    for container, tree_pairs, attr_pairs in per_container.values():
        batches, count = _produce_all(container, tree_pairs, attr_pairs,
                                      axis, node_test, options, stats)
        contexts_in += count
        produced.extend((container,) + batch for batch in batches)

    return _assemble_result(produced, contexts_in, need_item, axis.value)


def _positional_step(container: DocumentContainer,
                     tree_pairs: list[tuple[int, int]],
                     attr_pairs: list[tuple[int, int]], axis: Axis,
                     node_test: NodeTest, spec: tuple,
                     options: StepOptions, stats: StaircaseStats | None
                     ) -> list[tuple[array, array, bool]]:
    """One chain step with a positional predicate (``[k]`` / ``[last()]``).

    Positional predicates count per *context node*, but the raw ``(iter,
    pre)`` buffers only carry iterations — several context nodes of one
    iteration share an iter value.  So the context is renumbered to one
    fresh dense iteration per context node (the ordinal doubles as an index
    back into the original iterations), the staircase join runs as usual,
    and the counting loop walks its output in per-context *axis* order —
    document order for forward axes, reverse document (proximity) order
    for reverse axes, per the XPath rule that ``position()`` counts along
    the axis direction — keeping the ``k``-th (or last) row of each
    context.  Still surrogate-free: the count runs on the raw int buffers,
    nothing is boxed.
    """
    tree_pairs = sorted(set(tree_pairs))
    attr_pairs = sorted(set(attr_pairs))
    original_iters: list[int] = []
    tree_contexts: list[tuple[int, int]] = []
    attr_contexts: list[tuple[int, int]] = []
    for pre, iteration in tree_pairs:
        original_iters.append(iteration)
        tree_contexts.append((pre, len(original_iters)))
    for attr_index, iteration in attr_pairs:
        original_iters.append(iteration)
        attr_contexts.append((attr_index, len(original_iters)))
    batches, _ = _produce_all(container, tree_contexts, attr_contexts,
                              axis, node_test, options, stats)
    # flatten with document-order keys mirroring NodeRef.order_key so
    # mixed attribute/tree batches interleave correctly
    rows: list[tuple[int, tuple[int, int, int], int, int]] = []
    for batch_index, (iters, ranks, is_attr) in enumerate(batches):
        owners = container.attr_owner if is_attr else None
        for row_index, (ordinal, rank) in enumerate(zip(iters, ranks)):
            key = (owners[rank], 1, rank) if is_attr else (rank, 0, 0)
            rows.append((ordinal, key, batch_index, row_index))
    rows.sort()
    keep_per_batch: dict[int, list[tuple[int, int]]] = {}
    index = 0
    total = len(rows)
    while index < total:
        stop = index
        ordinal = rows[index][0]
        while stop < total and rows[stop][0] == ordinal:
            stop += 1
        group = rows[index:stop]
        if axis.is_reverse:
            group.reverse()             # proximity order for reverse axes
        chosen = None
        if spec[0] == "index":
            if spec[1] <= len(group):
                chosen = group[spec[1] - 1]
        else:  # ("last",)
            chosen = group[-1]
        if chosen is not None:
            _, _, batch_index, row_index = chosen
            keep_per_batch.setdefault(batch_index, []).append(
                (ordinal, row_index))
        index = stop
    out_batches: list[tuple[array, array, bool]] = []
    kept = 0
    for batch_index, (iters, ranks, is_attr) in enumerate(batches):
        selected = keep_per_batch.get(batch_index)
        if not selected:
            continue
        kept += len(selected)
        out_iters = array("q", (original_iters[ordinal - 1]
                                for ordinal, _ in selected))
        out_ranks = array("q", (ranks[row_index]
                                for _, row_index in selected))
        out_batches.append((out_iters, out_ranks, is_attr))
    detail = f"{axis.value}[{spec[1]}]" if spec[0] == "index" \
        else f"{axis.value}[last()]"
    explain.record("step", "step.chain-positional",
                   len(original_iters), kept, detail=detail)
    return out_batches


def axis_step_chain(context: Table,
                    steps: Sequence[tuple], *,
                    options: StepOptions | None = None,
                    stats: StaircaseStats | None = None,
                    need_item: bool = True) -> Table:
    """Evaluate a fused chain of location steps.

    ``steps`` lists the chain bottom-most first — ``(axis, node_test)``
    pairs or ``(axis, node_test, positional_spec)`` triples where the spec
    is ``None``, ``("index", k)`` for a ``[k]`` predicate or ``("last",)``
    for ``[last()]``.  Per container, each staircase join's paired
    ``(iter, pre)`` int arrays are threaded straight into the next join —
    the between-steps sort/dedup runs on the raw buffers — so no
    intermediate step builds an ``iter|pos|item`` table or boxes a
    ``NodeRef``.  Positional predicates run as per-context counting on
    those same buffers (:func:`_positional_step`).  Only the chain's final
    result is assembled (and boxed at most once; never under
    ``need_item=False``), which is what makes whole path pipelines
    surrogate-free.

    Bit-identical to evaluating the steps one ``axis_step`` at a time: the
    intermediate context *sets* are the same (the per-step path dedups on
    the identical ``(iter, container, pre)`` int keys), only their
    materialisation is skipped.  Only the last step may use the attribute
    axis — attribute rows cannot feed a further tree-node step.
    """
    if options is None:
        options = StepOptions()
    if len(steps) < 2:
        raise ValueError("axis_step_chain needs at least two steps")
    normalized = [(step[0], step[1], step[2] if len(step) > 2 else None)
                  for step in steps]
    if any(axis is Axis.ATTRIBUTE for axis, _, _ in normalized[:-1]):
        raise ValueError("the attribute axis can only end a fused chain")

    per_container = _split_context(context)
    produced: list[tuple[DocumentContainer, array, array, bool]] = []
    contexts_in = 0
    for container, tree_pairs, attr_pairs in per_container.values():
        batches: list[tuple[array, array, bool]] = []
        for index, (axis, node_test, spec) in enumerate(normalized):
            if index:
                # thread the previous step's batches into the next context:
                # sort/dedup (iter, rank) -> [rank, iter] on the raw
                # buffers, keeping attribute rows (a mid-chain self step
                # can preserve them) separate from tree rows
                tree_iters = array("q")
                tree_ranks = array("q")
                attr_rows: set[tuple[int, int]] = set()
                for iters, ranks, is_attr in batches:
                    if is_attr:
                        attr_rows.update(zip(ranks, iters))
                    else:
                        tree_iters.extend(iters)
                        tree_ranks.extend(ranks)
                tree_pairs = sort_dedup_pairs(tree_ranks, tree_iters)
                attr_pairs = sorted(attr_rows)
            if spec is None:
                batches, count = _produce_all(container, tree_pairs,
                                              attr_pairs, axis, node_test,
                                              options, stats)
            else:
                batches = _positional_step(container, tree_pairs, attr_pairs,
                                           axis, node_test, spec, options,
                                           stats)
                count = len(set(tree_pairs)) + len(set(attr_pairs))
            if index == 0:
                contexts_in += count
        produced.extend((container,) + batch for batch in batches)

    detail = ">".join(axis.value for axis, _, _ in normalized)
    total_out = sum(len(entry[1]) for entry in produced)
    explain.record("step", "step.chain-fused", contexts_in, total_out,
                   detail=detail)
    return _assemble_result(produced, contexts_in, need_item, detail,
                            kernel_order=normalized[-1][2] is None)
