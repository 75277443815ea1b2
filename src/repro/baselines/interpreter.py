"""A conventional tree-walking XQuery interpreter (comparison baseline).

The systems MonetDB/XQuery is compared against in Table 1 / Figure 16
(eXist, Galax, BerkeleyDB-XML, X-Hive, and the literature systems of Table 2)
are unavailable, so this module provides the *class* of engine they
represent: a straightforward interpreter that

* evaluates every expression per binding tuple (no loop-lifting: a path
  inside a ``for`` loop is re-evaluated for every iteration),
* navigates XPath axes node-at-a-time over the same shredded document
  containers (so storage is identical and only the execution strategy
  differs), and
* evaluates joins by nested-loop re-evaluation of the inner FLWOR, giving
  the quadratic Q8–Q12 behaviour the paper reports for the comparison
  systems.

It consumes the same AST as the relational compiler, which also makes it a
semantic cross-check oracle for the integration tests.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from ..errors import XQueryRuntimeError, XQueryTypeError, XQueryUnsupportedError
from ..staircase.axes import Axis
from ..xml.document import DocumentContainer, NodeKind, NodeRef
from ..xquery import ast
from ..xquery.parser import parse
from ..xquery.types import (atomize, effective_boolean_value, to_number,
                            to_string)


class TreeWalkingInterpreter:
    """Evaluate parsed queries by direct AST interpretation."""

    def __init__(self, store, transient: DocumentContainer | None = None):
        self.store = store
        self.transient = transient if transient is not None \
            else DocumentContainer("(transient)", order_key=1 << 30, transient=True)
        self.user_functions: dict[str, ast.FunctionDecl] = {}

    # ------------------------------------------------------------------ #
    def run(self, query: str | ast.Module, context_item: Any | None = None) -> list[Any]:
        module = parse(query) if isinstance(query, str) else query
        self.user_functions = dict(module.functions)
        env: dict[str, list[Any]] = {}
        if context_item is not None:
            env["."] = [context_item]
        for declaration in module.variables:
            env[declaration.name] = self.evaluate(declaration.value, env)
        return self.evaluate(module.body, env)

    # ------------------------------------------------------------------ #
    def evaluate(self, node: ast.Expr, env: dict[str, list[Any]]) -> list[Any]:
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            raise XQueryUnsupportedError(
                f"baseline interpreter: unsupported {type(node).__name__}")
        return method(node, env)

    # -- primitives --------------------------------------------------------- #
    def _eval_Literal(self, node: ast.Literal, env) -> list[Any]:
        return [node.value]

    def _eval_EmptySequence(self, node, env) -> list[Any]:
        return []

    def _eval_VarRef(self, node: ast.VarRef, env) -> list[Any]:
        if node.name not in env:
            raise XQueryRuntimeError(f"unbound variable ${node.name}")
        return list(env[node.name])

    def _eval_ContextItem(self, node, env) -> list[Any]:
        if "." not in env:
            raise XQueryRuntimeError("context item is undefined")
        return list(env["."])

    def _eval_SequenceExpr(self, node: ast.SequenceExpr, env) -> list[Any]:
        result: list[Any] = []
        for item in node.items:
            result.extend(self.evaluate(item, env))
        return result

    def _eval_RangeExpr(self, node: ast.RangeExpr, env) -> list[Any]:
        start = to_number(self._singleton(self.evaluate(node.start, env)))
        end = to_number(self._singleton(self.evaluate(node.end, env)))
        if start is None or end is None:
            return []
        return list(range(int(start), int(end) + 1))

    def _singleton(self, items: list[Any]) -> Any:
        return items[0] if items else None

    # -- FLWOR ---------------------------------------------------------------- #
    def _eval_FLWORExpr(self, node: ast.FLWORExpr, env) -> list[Any]:
        tuples: list[dict[str, list[Any]]] = [dict(env)]
        for clause in node.clauses:
            if isinstance(clause, ast.LetClause):
                for binding in tuples:
                    binding[clause.variable] = self.evaluate(clause.value, binding)
                continue
            expanded: list[dict[str, list[Any]]] = []
            for binding in tuples:
                sequence = self.evaluate(clause.sequence, binding)
                for position, item in enumerate(sequence, start=1):
                    new_binding = dict(binding)
                    new_binding[clause.variable] = [item]
                    if clause.position_variable:
                        new_binding[clause.position_variable] = [position]
                    expanded.append(new_binding)
            tuples = expanded
        if node.where is not None:
            tuples = [binding for binding in tuples
                      if effective_boolean_value(self.evaluate(node.where, binding))]
        if node.order_by:
            def order_key(binding):
                key = []
                for spec in node.order_by:
                    value = self._singleton(self.evaluate(spec.key, binding))
                    value = atomize(value) if value is not None else None
                    number = to_number(value) if value is not None else None
                    if number is None:
                        key.append((1 if value is None else 0, 0.0,
                                    to_string(value) if value is not None else ""))
                    else:
                        key.append((0, number, ""))
                return key
            for index in range(len(node.order_by) - 1, -1, -1):
                spec = node.order_by[index]
                tuples.sort(key=lambda binding, index=index: order_key(binding)[index],
                            reverse=spec.descending)
        result: list[Any] = []
        for binding in tuples:
            result.extend(self.evaluate(node.return_expr, binding))
        return result

    def _eval_QuantifiedExpr(self, node: ast.QuantifiedExpr, env) -> list[Any]:
        bindings: list[dict[str, list[Any]]] = [dict(env)]
        for variable, sequence_expr in node.bindings:
            expanded = []
            for binding in bindings:
                for item in self.evaluate(sequence_expr, binding):
                    new_binding = dict(binding)
                    new_binding[variable] = [item]
                    expanded.append(new_binding)
            bindings = expanded
        outcomes = [effective_boolean_value(self.evaluate(node.satisfies, binding))
                    for binding in bindings]
        if node.quantifier == "some":
            return [any(outcomes)]
        return [all(outcomes)]

    # -- logic / comparisons / arithmetic --------------------------------------- #
    def _eval_IfExpr(self, node: ast.IfExpr, env) -> list[Any]:
        if effective_boolean_value(self.evaluate(node.condition, env)):
            return self.evaluate(node.then_branch, env)
        return self.evaluate(node.else_branch, env)

    def _eval_AndExpr(self, node: ast.AndExpr, env) -> list[Any]:
        return [all(effective_boolean_value(self.evaluate(operand, env))
                    for operand in node.operands)]

    def _eval_OrExpr(self, node: ast.OrExpr, env) -> list[Any]:
        return [any(effective_boolean_value(self.evaluate(operand, env))
                    for operand in node.operands)]

    def _compare(self, op: str, left: Any, right: Any) -> bool:
        from ..relational.operators import compare_values
        return compare_values(op, atomize(left), atomize(right))

    def _eval_GeneralComparison(self, node: ast.GeneralComparison, env) -> list[Any]:
        left = self.evaluate(node.left, env)
        right = self.evaluate(node.right, env)
        return [any(self._compare(node.op, lhs, rhs)
                    for lhs in left for rhs in right)]

    def _eval_ValueComparison(self, node: ast.ValueComparison, env) -> list[Any]:
        left = self._singleton(self.evaluate(node.left, env))
        right = self._singleton(self.evaluate(node.right, env))
        if left is None or right is None:
            return []
        return [self._compare(node.op, left, right)]

    def _eval_ArithmeticExpr(self, node: ast.ArithmeticExpr, env) -> list[Any]:
        from ..relational.operators import arithmetic
        left = self._singleton(self.evaluate(node.left, env))
        right = self._singleton(self.evaluate(node.right, env))
        if left is None or right is None:
            return []
        value = arithmetic(node.op, atomize(left), atomize(right))
        return [] if value is None else [value]

    def _eval_UnaryExpr(self, node: ast.UnaryExpr, env) -> list[Any]:
        value = to_number(self._singleton(self.evaluate(node.operand, env)))
        if value is None:
            return []
        return [-value if node.negate else value]

    # -- paths -------------------------------------------------------------------- #
    def _eval_PathExpr(self, node: ast.PathExpr, env) -> list[Any]:
        if node.absolute:
            context = self._eval_ContextItem(ast.ContextItem(), env)
            current = []
            for item in context:
                if not isinstance(item, NodeRef):
                    raise XQueryTypeError("context item is not a node")
                current.append(NodeRef(item.container,
                                       item.container.root_pre(item.pre)))
        elif node.start is not None:
            current = self.evaluate(node.start, env)
        else:
            current = self._eval_ContextItem(ast.ContextItem(), env)
        for step in node.steps:
            if not isinstance(step, ast.AxisStep):
                raise XQueryUnsupportedError("only axis steps inside paths")
            current = self._eval_axis_step(step, current, env)
        return current

    def _eval_FilterExpr(self, node: ast.FilterExpr, env) -> list[Any]:
        items = self.evaluate(node.base, env)
        for predicate in node.predicates:
            items = self._filter(items, predicate, env)
        return items

    def _eval_axis_step(self, step: ast.AxisStep, context: list[Any], env) -> list[Any]:
        results: list[NodeRef] = []
        seen: set[NodeRef] = set()
        for item in context:
            if not isinstance(item, NodeRef):
                raise XQueryTypeError("path step over a non-node item")
            produced = self._axis_nodes(item, step)
            for predicate in step.predicates:
                produced = self._filter(produced, predicate, env)
            for produced_node in produced:
                if produced_node not in seen:
                    seen.add(produced_node)
                    results.append(produced_node)
        results.sort(key=lambda node: node.order_key())
        return list(results)

    def _axis_nodes(self, node: NodeRef, step: ast.AxisStep) -> list[NodeRef]:
        container = node.container
        test = step.node_test
        axis = step.axis

        if axis is Axis.ATTRIBUTE:
            if node.attr is not None:
                return []
            produced = [container.attribute(index)
                        for index in container.attributes_of(node.pre)]
            if test.name not in (None, "*"):
                produced = [attribute for attribute in produced
                            if attribute.name() == test.name]
            return produced

        if node.attr is not None:
            # XPath defines the vertical and horizontal axes for attribute
            # nodes via the owning element: the owner is the parent, its
            # ancestor-or-self chain are the ancestors, and the attribute
            # sorts after the owner but before the owner's children — so
            # following(attr) = descendant(owner) ∪ following(owner) and
            # preceding(attr) = preceding(owner).  Candidate lists are
            # built in axis order (proximity-first for reverse axes) so
            # positional predicates count along the axis direction.
            owner = NodeRef(container, node.pre)
            if axis is Axis.PARENT:
                return self._axis_nodes(
                    owner, ast.AxisStep(axis=Axis.SELF, node_test=test))
            if axis in (Axis.SELF, Axis.DESCENDANT_OR_SELF):
                return [node] if test.kind in ("attribute", "node") else []
            if axis in (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
                produced = [node] if axis is Axis.ANCESTOR_OR_SELF \
                    and test.kind in ("attribute", "node") else []
                produced += self._axis_nodes(
                    owner, ast.AxisStep(axis=Axis.ANCESTOR_OR_SELF,
                                        node_test=test))
                return produced
            if axis is Axis.FOLLOWING:
                return self._axis_nodes(
                    owner, ast.AxisStep(axis=Axis.DESCENDANT,
                                        node_test=test)) \
                    + self._axis_nodes(
                        owner, ast.AxisStep(axis=Axis.FOLLOWING,
                                            node_test=test))
            if axis is Axis.PRECEDING:
                return self._axis_nodes(
                    owner, ast.AxisStep(axis=Axis.PRECEDING, node_test=test))
            return []

        pre = node.pre
        size = container.size[pre]
        candidates: list[int]
        if axis is Axis.SELF:
            candidates = [pre]
        elif axis is Axis.CHILD:
            candidates = list(container.children_pre(pre))
        elif axis is Axis.DESCENDANT:
            candidates = list(container.descendants_pre(pre))
        elif axis is Axis.DESCENDANT_OR_SELF:
            candidates = [pre] + list(container.descendants_pre(pre))
        elif axis is Axis.PARENT:
            parent = container.parent_pre(pre)
            candidates = [] if parent is None else [parent]
        elif axis in (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
            candidates = []
            if axis is Axis.ANCESTOR_OR_SELF:
                candidates.append(pre)
            current = container.parent_pre(pre)
            while current is not None:
                candidates.append(current)
                current = container.parent_pre(current)
        elif axis is Axis.FOLLOWING:
            candidates = list(range(pre + size + 1, container.node_count))
        elif axis is Axis.PRECEDING:
            # proximity (reverse document) order, like the ancestor chain
            # above: predicates on reverse axes count nearest-first
            candidates = [candidate for candidate in range(pre - 1, -1, -1)
                          if candidate + container.size[candidate] < pre]
        elif axis is Axis.FOLLOWING_SIBLING:
            parent = container.parent_pre(pre)
            candidates = [] if parent is None else [
                sibling for sibling in container.children_pre(parent) if sibling > pre]
        elif axis is Axis.PRECEDING_SIBLING:
            parent = container.parent_pre(pre)
            candidates = [] if parent is None else [
                sibling for sibling in reversed(list(container.children_pre(parent)))
                if sibling < pre]
        else:  # pragma: no cover - defensive
            raise XQueryUnsupportedError(f"axis {axis} not supported")

        produced = []
        for candidate in candidates:
            if self._matches_test(container, candidate, test):
                produced.append(NodeRef(container, candidate))
        return produced

    @staticmethod
    def _matches_test(container: DocumentContainer, pre: int,
                      test: ast.NodeTestExpr) -> bool:
        kind = container.kind[pre]
        if test.kind == "node":
            return True
        if test.kind == "element":
            if kind != NodeKind.ELEMENT:
                return False
            if test.name in (None, "*"):
                return True
            return container.element_name(pre) == test.name
        if test.kind == "text":
            return kind == NodeKind.TEXT
        if test.kind == "comment":
            return kind == NodeKind.COMMENT
        if test.kind == "processing-instruction":
            return kind == NodeKind.PROCESSING_INSTRUCTION
        return False

    def _filter(self, items: list[Any], predicate: ast.Expr, env) -> list[Any]:
        kept = []
        size = len(items)
        for position, item in enumerate(items, start=1):
            local = dict(env)
            local["."] = [item]
            local["fs:position"] = [position]
            local["fs:last"] = [size]
            outcome = self.evaluate(predicate, local)
            if len(outcome) == 1 and isinstance(outcome[0], (int, float)) \
                    and not isinstance(outcome[0], bool):
                if outcome[0] == position:
                    kept.append(item)
            elif effective_boolean_value(outcome):
                kept.append(item)
        return kept

    # -- functions ------------------------------------------------------------------ #
    def _eval_FunctionCall(self, node: ast.FunctionCall, env) -> list[Any]:
        name = node.name[3:] if node.name.startswith("fn:") else node.name
        if name == "position" and not node.arguments:
            return list(env.get("fs:position", []))
        if name == "last" and not node.arguments:
            return list(env.get("fs:last", []))
        if node.name in self.user_functions or name in self.user_functions:
            declaration = self.user_functions.get(node.name) or self.user_functions[name]
            call_env: dict[str, list[Any]] = {}
            for parameter, argument in zip(declaration.parameters, node.arguments):
                call_env[parameter] = self.evaluate(argument, env)
            return self.evaluate(declaration.body, call_env)
        arguments = [self.evaluate(argument, env) for argument in node.arguments]
        return self._builtin(name, arguments, env)

    def _builtin(self, name: str, args: list[list[Any]], env) -> list[Any]:
        def first(index: int) -> Any:
            return args[index][0] if index < len(args) and args[index] else None

        if name == "count":
            return [len(args[0])]
        if name == "sum":
            numbers = [to_number(item) for item in args[0]]
            return [sum(number for number in numbers if number is not None)]
        if name in ("avg", "min", "max"):
            numbers = [to_number(item) for item in args[0]]
            numbers = [number for number in numbers if number is not None]
            if not numbers:
                return []
            if name == "avg":
                return [sum(numbers) / len(numbers)]
            return [min(numbers) if name == "min" else max(numbers)]
        if name == "empty":
            return [len(args[0]) == 0]
        if name == "exists":
            return [len(args[0]) > 0]
        if name == "not":
            return [not effective_boolean_value(args[0])]
        if name == "boolean":
            return [effective_boolean_value(args[0])]
        if name == "true":
            return [True]
        if name == "false":
            return [False]
        if name == "string":
            value = first(0)
            return [to_string(value) if value is not None else ""]
        if name == "data":
            return [atomize(item) for item in args[0]]
        if name == "number":
            value = to_number(first(0))
            return [value if value is not None else math.nan]
        if name == "string-length":
            return [len(to_string(first(0)))]
        if name == "contains":
            return [to_string(first(1)) in to_string(first(0))]
        if name == "starts-with":
            return [to_string(first(0)).startswith(to_string(first(1)))]
        if name == "concat":
            return ["".join(to_string(first(index)) for index in range(len(args)))]
        if name == "string-join":
            separator = to_string(first(1)) if len(args) > 1 else ""
            return [separator.join(to_string(item) for item in args[0])]
        if name == "distinct-values":
            seen = set()
            result = []
            for item in args[0]:
                value = atomize(item)
                key = to_number(value)
                if key is None:
                    key = to_string(value)
                if key not in seen:
                    seen.add(key)
                    result.append(value)
            return result
        if name in ("zero-or-one", "one-or-more", "exactly-one"):
            return args[0]
        if name == "doc":
            container = self.store.get(to_string(first(0)))
            return [NodeRef(container, 0)]
        if name in ("name", "local-name"):
            item = first(0)
            if isinstance(item, NodeRef):
                return [item.name() or ""]
            return [""]
        if name in ("round", "floor", "ceiling", "abs"):
            value = to_number(first(0))
            if value is None:
                return []
            mapping: dict[str, Callable[[float], float]] = {
                "round": round, "floor": math.floor,
                "ceiling": math.ceil, "abs": abs}
            return [mapping[name](value)]
        raise XQueryUnsupportedError(f"baseline interpreter: unknown function {name}()")

    # -- constructors ----------------------------------------------------------------- #
    def _eval_ElementConstructor(self, node: ast.ElementConstructor, env) -> list[Any]:
        from ..xquery.constructors import construct_element
        attributes = []
        for attribute_name, template in node.attributes:
            rendered = []
            for part in template.parts:
                if isinstance(part, str):
                    rendered.append(part)
                else:
                    rendered.append(" ".join(to_string(item)
                                             for item in self.evaluate(part, env)))
            attributes.append((attribute_name, "".join(rendered)))
        content: list[Any] = []
        for part in node.content:
            if isinstance(part, str):
                content.append(part)
            else:
                content.extend(self.evaluate(part, env))
        return [construct_element(self.transient, node.name, attributes, content)]

    def _eval_TextConstructor(self, node: ast.TextConstructor, env) -> list[Any]:
        from ..xquery.constructors import construct_text
        text = " ".join(to_string(item) for item in self.evaluate(node.content, env))
        return [construct_text(self.transient, text)]


def run_baseline(store, query: str, context_document: str) -> list[Any]:
    """Convenience: evaluate a query with the baseline over a loaded document."""
    interpreter = TreeWalkingInterpreter(store)
    container = store.get(context_document)
    return interpreter.run(query, context_item=NodeRef(container, 0))
