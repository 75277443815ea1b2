"""Logical query plans: a hash-consed relational operator DAG.

Pathfinder separates *plan construction* from *execution*: the XQuery
front-end first builds a DAG of logical relational operators, rewrites it
(join recognition, projection pushdown, common-subplan sharing) and only
then emits the physical algebra.  This module provides the plan
representation shared by the planner (:mod:`repro.xquery.planner`), the
rewrite optimizer (:mod:`repro.relational.rewrites`) and the executor
(:mod:`repro.xquery.codegen`):

* :class:`PlanNode` — an immutable operator node (``kind``, scalar
  ``params``, child plans),
* :class:`PlanBuilder` — the interning constructor.  Structurally equal
  nodes are **hash-consed** to the same object, so common subexpressions
  (repeated path prefixes, duplicated aggregates) become shared DAG nodes
  for free — the CSE rewrite then only has to mark nodes whose reference
  count exceeds one,
* :func:`count_references` / :func:`render_plan` — DAG introspection and
  the textual plan dump used by ``MonetXQuery.explain``.

Plan nodes are *logical*: they carry no tables and are never mutated.
Rewrites produce new nodes through the builder; execution-time facts
(required columns, shared/pure sets) live in side tables keyed by
``PlanNode.id`` so that annotation never disturbs structural identity.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping


class PlanNode:
    """One logical operator in a query plan DAG.

    ``kind`` names the operator (``"step"``, ``"flwor"``, ``"const"``, ...),
    ``children`` are the input plans and ``params`` is a sorted tuple of
    ``(name, value)`` pairs of scalar attributes (axis, variable name,
    literal value, ...).  Nodes are immutable and interned: two nodes are
    the *same object* iff they are structurally equal.
    """

    __slots__ = ("kind", "children", "params", "id", "_params_dict")

    def __init__(self, kind: str, children: tuple["PlanNode", ...],
                 params: tuple[tuple[str, Any], ...], node_id: int):
        self.kind = kind
        self.children = children
        self.params = params
        self.id = node_id
        self._params_dict = dict(params)

    def p(self, name: str, default: Any = None) -> Any:
        """The value of a scalar parameter (``None``/default when absent)."""
        return self._params_dict.get(name, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PlanNode#{self.id}({self.label()})"

    def label(self) -> str:
        """A one-line human-readable rendering of kind and parameters."""
        parts = []
        for name, value in self.params:
            if value is None or value == ():
                continue
            rendered = getattr(value, "value", value)
            parts.append(f"{name}={rendered!r}" if isinstance(value, str)
                         else f"{name}={rendered}")
        return self.kind + (f" [{', '.join(parts)}]" if parts else "")

    def walk(self) -> Iterator["PlanNode"]:
        """Every node of the DAG below (and including) this node, once."""
        seen: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if node.id in seen:
                continue
            seen.add(node.id)
            yield node
            stack.extend(node.children)


class PlanBuilder:
    """Interning constructor: structurally equal nodes share one object.

    All plans of one query (body, global variable initialisers, user
    function bodies) must be built through a single builder so that common
    subplans are shared across them.
    """

    def __init__(self) -> None:
        self._interned: dict[tuple, PlanNode] = {}
        self._next_id = 0

    def node(self, kind: str, children: tuple[PlanNode, ...] = (),
             **params: Any) -> PlanNode:
        """Build (or reuse) the node ``kind(children; params)``."""
        param_items = tuple(sorted(params.items()))
        key = (kind, tuple(child.id for child in children), param_items)
        try:
            return self._interned[key]
        except (KeyError, TypeError):
            # TypeError: an unhashable param (e.g. NaN containers) simply
            # skips interning — correctness is unaffected, only sharing
            pass
        node = PlanNode(kind, children, param_items, self._next_id)
        self._next_id += 1
        try:
            self._interned[key] = node
        except TypeError:  # pragma: no cover - unhashable params
            pass
        return node

    @property
    def node_count(self) -> int:
        return self._next_id


def structural_fingerprint(node: PlanNode,
                           memo: dict[int, str] | None = None) -> str:
    """A fingerprint of a plan subtree that is stable *across* builders.

    Hash-consed node ids identify subplans within one query; the
    cross-query materialized subplan cache needs an identity that two
    independently planned queries agree on (``/site/people/person`` in Q8
    and in Q10 must map to the same cache slot).  The fingerprint is a
    SHA-1 over the canonical ``(kind, params, child fingerprints)``
    rendering of the subtree, memoised per node id so DAG sharing keeps
    the walk linear.
    """
    import hashlib

    if memo is None:
        memo = {}

    cached = memo.get(node.id)
    if cached is not None:
        return cached
    child_prints = [structural_fingerprint(child, memo)
                    for child in node.children]
    payload = repr((node.kind, node.params, child_prints))
    fingerprint = hashlib.sha1(payload.encode("utf-8")).hexdigest()
    memo[node.id] = fingerprint
    return fingerprint


def count_references(roots: list[PlanNode]) -> dict[int, int]:
    """Parent-edge counts per node id across one or more plan roots.

    Each root itself counts as one reference; a node whose count exceeds
    one is a *common subplan* (the DAG analogue of Pathfinder's shared
    subexpression detection).
    """
    counts: dict[int, int] = {}
    visited: set[int] = set()

    def visit(node: PlanNode) -> None:
        counts[node.id] = counts.get(node.id, 0) + 1
        if node.id in visited:
            return
        visited.add(node.id)
        for child in node.children:
            visit(child)

    for root in roots:
        visit(root)
    return counts


def render_plan(root: PlanNode, *,
                shared: frozenset[int] | set[int] = frozenset(),
                annotate: Callable[[PlanNode], str] | None = None,
                indent: str = "") -> str:
    """Render a plan DAG as an indented tree.

    Shared nodes (members of ``shared``) are printed once with a ``@id``
    tag; later occurrences render as a back-reference line ``... = @id``.
    ``annotate`` may append extra per-node text (e.g. required columns).
    """
    lines: list[str] = []
    printed: set[int] = set()

    def visit(node: PlanNode, prefix: str, connector: str) -> None:
        tag = f"@{node.id} " if node.id in shared else ""
        note = annotate(node) if annotate is not None else ""
        extra = f"  {note}" if note else ""
        if node.id in printed and node.id in shared:
            lines.append(f"{prefix}{connector}= @{node.id} ({node.kind}, shared)")
            return
        printed.add(node.id)
        lines.append(f"{prefix}{connector}{tag}{node.label()}{extra}")
        child_prefix = prefix + ("   " if connector in ("", "└─ ") else "│  ")
        for index, child in enumerate(node.children):
            last = index == len(node.children) - 1
            visit(child, child_prefix, "└─ " if last else "├─ ")

    visit(root, indent, "")
    return "\n".join(lines)
