"""Nametest / predicate pushdown variants of the loop-lifted staircase join.

Section 3.2: instead of applying a name test (or a more general predicate)
as a post-filter on the full step result, the predicate can be evaluated on
the whole document first — typically answered by the element-name index of
the document container — and the location step is then executed only against
this *candidate list*.  Result generation checks membership in the candidate
list via a two-way merge, and the skipping logic can jump over context nodes
that can never reach the next candidate.

This pays off whenever the name test is more selective than the pure
location step (e.g. the descendant steps from the document root in XMark
Q6/Q7, where without pushdown the step would materialise almost the whole
document).
"""

from __future__ import annotations

import bisect
from array import array

from ..xml.document import DocumentContainer
from .axes import Axis, NodeTest
from .iterative import StaircaseStats
from .loop_lifted import (ContextPairs, ResultPairs, ancestor_stack_scan,
                          normalize_context, pairs_to_arrays)


def candidate_list(container: DocumentContainer, node_test: NodeTest) -> list[int] | None:
    """The document-ordered candidate pre list for a node test.

    Returns ``None`` when no index-backed candidate list is available (no
    name test, or a non-element kind test) — callers then fall back to the
    post-filter strategy.
    """
    if node_test is None or not node_test.has_name or node_test.kind != "element":
        return None
    return container.candidates_by_name(node_test.name)


def _enter(context: ContextPairs, stats: StaircaseStats | None,
           normalized: bool) -> tuple[ContextPairs, StaircaseStats]:
    """Kernel prologue: the normalized context and a stats sink."""
    if stats is None:
        stats = StaircaseStats()
    if not normalized:
        context = normalize_context(context)
    stats.contexts_seen += len(context)
    return context, stats


def _pre_iter_order(iters: array, pres: array, in_order: bool
                    ) -> "tuple[array, array]":
    """Paired ``(iter, pre)`` result arrays in the kernels' ``(pre, iter)``
    output order; ``in_order`` says the emission order already is."""
    if not in_order:
        pres, iters = pairs_to_arrays(sorted(zip(pres, iters)))
    return iters, pres


def ll_child_pushdown(container: DocumentContainer, context: ContextPairs,
                      candidates: list[int], *,
                      stats: StaircaseStats | None = None,
                      normalized: bool = False) -> "tuple[array, array]":
    """Loop-lifted child step against a sorted candidate list.

    For every context node the candidates falling inside its subtree are
    one ``bisect`` + slice; a candidate is a child iff its level is one
    below the context node's level.  Returns paired ``(iter, pre)`` arrays.
    """
    context, stats = _enter(context, stats, normalized)
    out_iters = array("q")
    out_pres = array("q")
    size = container.size
    level = container.level
    bisect_right = bisect.bisect_right
    scanned = len(context)
    frontier = -1               # contexts past it emit in (pre, iter) order
    in_order = True
    for pre, iteration in context:
        end = pre + size[pre]
        if pre <= frontier:
            in_order = False
        if end > frontier:
            frontier = end
        start = bisect_right(candidates, pre)
        stop = bisect_right(candidates, end, start)
        scanned += stop - start
        child_level = level[pre] + 1
        for candidate in candidates[start:stop]:
            if level[candidate] == child_level:
                out_iters.append(iteration)
                out_pres.append(candidate)
    stats.touch(scanned)
    return _pre_iter_order(out_iters, out_pres, in_order)


def ll_descendant_pushdown(container: DocumentContainer, context: ContextPairs,
                           candidates: list[int], *, or_self: bool = False,
                           stats: StaircaseStats | None = None,
                           normalized: bool = False) -> "tuple[array, array]":
    """Loop-lifted descendant(-or-self) step against a sorted candidate list.

    Per iteration the context nodes are pruned to their outermost
    representatives; each surviving context contributes the candidates inside
    its pre range — one ``bisect`` + slice, skipping candidate-free document
    regions entirely.  Returns paired ``(iter, pre)`` arrays.
    """
    context, stats = _enter(context, stats, normalized)
    size = container.size
    out_iters = array("q")
    out_pres = array("q")
    # prune per iteration: keep only context nodes not covered by an earlier
    # context node of the same iteration
    covered_until: dict[int, int] = {}
    bisect_left, bisect_right = bisect.bisect_left, bisect.bisect_right
    scanned = 0
    frontier = -1               # contexts past it emit in (pre, iter) order
    in_order = True
    for pre, iteration in context:
        if pre <= covered_until.get(iteration, -1):
            stats.contexts_pruned += 1
            continue
        end = covered_until[iteration] = pre + size[pre]
        if pre <= frontier:
            in_order = False
        if end > frontier:
            frontier = end
        start = bisect_left(candidates, pre if or_self else pre + 1)
        stop = bisect_right(candidates, end, start)
        scanned += 1 + stop - start
        out_iters.extend([iteration] * (stop - start))
        out_pres.extend(candidates[start:stop])
    stats.touch(scanned)
    return _pre_iter_order(out_iters, out_pres, in_order)


def ll_following_pushdown(container: DocumentContainer, context: ContextPairs,
                          candidates: list[int], *,
                          stats: StaircaseStats | None = None,
                          normalized: bool = False) -> ResultPairs:
    """Loop-lifted following step against a sorted candidate list.

    Per iteration the following window is everything after the earliest
    context subtree end; one ``bisect`` finds the matching candidate
    suffix — no document scan, no post-filter.
    """
    context, stats = _enter(context, stats, normalized)
    size = container.size
    bound: dict[int, int] = {}          # iteration -> min subtree end
    for pre, iteration in context:
        end = pre + size[pre]
        if iteration not in bound or end < bound[iteration]:
            bound[iteration] = end
    result: ResultPairs = []
    for iteration, end in bound.items():
        start = bisect.bisect_right(candidates, end)
        stats.touch(len(candidates) - start)
        result.extend((iteration, candidate)
                      for candidate in candidates[start:])
    result.sort(key=lambda pair: (pair[1], pair[0]))
    return result


def ll_preceding_pushdown(container: DocumentContainer, context: ContextPairs,
                          candidates: list[int], *,
                          stats: StaircaseStats | None = None,
                          normalized: bool = False) -> ResultPairs:
    """Loop-lifted preceding step against a sorted candidate list.

    Per iteration only candidates before the latest context pre can
    qualify (one ``bisect``), and of those only the non-ancestors — the
    ``end < bound`` filter drops the O(depth) ancestors of the bound node.
    """
    context, stats = _enter(context, stats, normalized)
    size = container.size
    bound: dict[int, int] = {}          # iteration -> max context pre
    for pre, iteration in context:
        if iteration not in bound or pre > bound[iteration]:
            bound[iteration] = pre
    result: ResultPairs = []
    for iteration, limit in bound.items():
        stop = bisect.bisect_left(candidates, limit)
        stats.touch(stop)
        result.extend((iteration, candidate)
                      for candidate in candidates[:stop]
                      if candidate + size[candidate] < limit)
    result.sort(key=lambda pair: (pair[1], pair[0]))
    return result


def ll_sibling_pushdown(container: DocumentContainer, context: ContextPairs,
                        candidates: list[int], *, following: bool,
                        stats: StaircaseStats | None = None,
                        normalized: bool = False) -> ResultPairs:
    """Loop-lifted sibling steps against a sorted candidate list.

    Parents come from the one-pass ancestor-stack scan; context nodes
    sharing a parent within an iteration collapse to one representative
    (earliest for following-sibling, latest for preceding-sibling).  The
    candidates inside the sibling window are located by binary search; a
    candidate is a sibling iff its level equals the context level —
    within the parent's subtree that pins it to the child level.
    """
    context, stats = _enter(context, stats, normalized)
    size = container.size
    level = container.level
    groups: dict[tuple[int, int, int], int] = {}
    for pre, iterations, stack in ancestor_stack_scan(container, context):
        stats.touch()
        if not stack:
            continue                    # document root: no siblings
        parent, parent_end = stack[-1]
        for iteration in iterations:
            key = (parent, parent_end, iteration)
            if following:
                groups.setdefault(key, pre)
            else:
                groups[key] = pre
    result: ResultPairs = []
    for (parent, parent_end, iteration), pre in groups.items():
        sibling_level = level[pre]
        if following:
            low = bisect.bisect_right(candidates, pre + size[pre])
            high = bisect.bisect_right(candidates, parent_end)
        else:
            low = bisect.bisect_right(candidates, parent)
            high = bisect.bisect_left(candidates, pre)
        stats.touch(high - low)
        result.extend((iteration, candidate)
                      for candidate in candidates[low:high]
                      if level[candidate] == sibling_level)
    result.sort(key=lambda pair: (pair[1], pair[0]))
    return result


def loop_lifted_step_pushdown(container: DocumentContainer, context: ContextPairs,
                              axis: Axis, node_test: NodeTest | None, *,
                              stats: StaircaseStats | None = None,
                              normalized: bool = False
                              ) -> "tuple[array, array] | None":
    """Pushdown-enabled location step, as paired ``(iter, pre)`` arrays.

    Returns ``None`` when pushdown is not applicable for the axis/node-test
    combination, in which case the caller should use the post-filter variant
    (:func:`repro.staircase.loop_lifted.loop_lifted_step_arrays`).  The
    self, parent and ancestor axes stay on the post-filter path: their
    result is bounded by the context (times depth) already, so the candidate
    merge buys nothing.  As with the plain array producers,
    ``normalized=True`` promises the context is already sorted on
    ``[pre, iter]`` and duplicate free.
    """
    candidates = candidate_list(container, node_test) if node_test else None
    if candidates is None:
        return None
    if axis is Axis.CHILD:
        return ll_child_pushdown(container, context, candidates, stats=stats,
                                 normalized=normalized)
    if axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
        return ll_descendant_pushdown(container, context, candidates,
                                      or_self=axis is Axis.DESCENDANT_OR_SELF,
                                      stats=stats, normalized=normalized)
    if axis is Axis.FOLLOWING:
        pairs = ll_following_pushdown(container, context, candidates,
                                      stats=stats, normalized=normalized)
    elif axis is Axis.PRECEDING:
        pairs = ll_preceding_pushdown(container, context, candidates,
                                      stats=stats, normalized=normalized)
    elif axis in (Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING):
        pairs = ll_sibling_pushdown(container, context, candidates,
                                    following=axis is Axis.FOLLOWING_SIBLING,
                                    stats=stats, normalized=normalized)
    else:
        return None
    return pairs_to_arrays(pairs)
