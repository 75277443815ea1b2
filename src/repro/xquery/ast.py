"""Abstract syntax tree of the supported XQuery subset.

The node classes are plain dataclasses; the same AST is consumed by both the
relational loop-lifting planner (:mod:`repro.xquery.planner`) and the
conventional tree-walking baseline (:mod:`repro.baselines.interpreter`), so
the two engines are guaranteed to agree on what a query *means*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..staircase.axes import Axis


class Expr:
    """Base class of all expression nodes."""

    def free_variables(self) -> set[str]:
        """Names of the variables the expression references (without ``$``)."""
        names: set[str] = set()
        _collect_free_variables(self, names, bound=set())
        return names


# --------------------------------------------------------------------------- #
# literals, variables, sequences
# --------------------------------------------------------------------------- #
@dataclass
class Literal(Expr):
    value: Any              # int, float, str, bool


@dataclass
class EmptySequence(Expr):
    pass


@dataclass
class VarRef(Expr):
    name: str


@dataclass
class ContextItem(Expr):
    """The context item expression ``.``."""


@dataclass
class SequenceExpr(Expr):
    items: list[Expr]


@dataclass
class RangeExpr(Expr):
    start: Expr
    end: Expr


# --------------------------------------------------------------------------- #
# FLWOR
# --------------------------------------------------------------------------- #
@dataclass
class ForClause(Expr):
    variable: str
    sequence: Expr
    position_variable: str | None = None


@dataclass
class LetClause(Expr):
    variable: str
    value: Expr


@dataclass
class OrderSpec(Expr):
    key: Expr
    descending: bool = False
    empty_greatest: bool = False


@dataclass
class FLWORExpr(Expr):
    clauses: list[Expr]                     # ForClause | LetClause, in order
    where: Expr | None
    order_by: list[OrderSpec]
    return_expr: Expr


@dataclass
class QuantifiedExpr(Expr):
    quantifier: str                         # "some" | "every"
    bindings: list[tuple[str, Expr]]
    satisfies: Expr


# --------------------------------------------------------------------------- #
# control, logic, comparisons, arithmetic
# --------------------------------------------------------------------------- #
@dataclass
class IfExpr(Expr):
    condition: Expr
    then_branch: Expr
    else_branch: Expr


@dataclass
class AndExpr(Expr):
    operands: list[Expr]


@dataclass
class OrExpr(Expr):
    operands: list[Expr]


@dataclass
class GeneralComparison(Expr):
    """Existential comparison: ``=  !=  <  <=  >  >=``."""

    op: str                                 # "eq" "ne" "lt" "le" "gt" "ge"
    left: Expr
    right: Expr


@dataclass
class ValueComparison(Expr):
    """Singleton comparison: ``eq ne lt le gt ge``."""

    op: str
    left: Expr
    right: Expr


@dataclass
class ArithmeticExpr(Expr):
    op: str                                 # "add" "sub" "mul" "div" "idiv" "mod"
    left: Expr
    right: Expr


@dataclass
class UnaryExpr(Expr):
    negate: bool
    operand: Expr


# --------------------------------------------------------------------------- #
# paths
# --------------------------------------------------------------------------- #
@dataclass
class NodeTestExpr(Expr):
    kind: str = "element"                   # element | text | comment | node | ...
    name: str | None = None                 # local name, "*" or None


@dataclass
class AxisStep(Expr):
    axis: Axis
    node_test: NodeTestExpr
    predicates: list[Expr] = field(default_factory=list)


@dataclass
class PathExpr(Expr):
    """``start/step1/step2...``; ``start=None`` means the query context item
    (an absolute path ``/...``)."""

    start: Expr | None
    steps: list[Expr]                       # AxisStep | FilterStep
    absolute: bool = False


@dataclass
class FilterStep(Expr):
    """A primary expression used as a path step (with optional predicates)."""

    expression: Expr
    predicates: list[Expr] = field(default_factory=list)


@dataclass
class FilterExpr(Expr):
    """``primary[predicate]...`` outside a path."""

    base: Expr
    predicates: list[Expr] = field(default_factory=list)


# --------------------------------------------------------------------------- #
# functions
# --------------------------------------------------------------------------- #
@dataclass
class FunctionCall(Expr):
    name: str
    arguments: list[Expr]


@dataclass
class FunctionDecl:
    name: str
    parameters: list[str]
    body: Expr


@dataclass
class VariableDecl:
    name: str
    value: Expr


# --------------------------------------------------------------------------- #
# constructors
# --------------------------------------------------------------------------- #
@dataclass
class AttributeValue(Expr):
    """An attribute value template: literal text mixed with enclosed exprs."""

    parts: list[Any]                        # str | Expr


@dataclass
class ElementConstructor(Expr):
    name: str
    attributes: list[tuple[str, AttributeValue]]
    content: list[Any]                      # str | Expr (enclosed expressions)


@dataclass
class TextConstructor(Expr):
    content: Expr


@dataclass
class Module:
    """A parsed query: prolog declarations plus the body expression."""

    functions: dict[str, FunctionDecl]
    variables: list[VariableDecl]
    body: Expr


# --------------------------------------------------------------------------- #
# free-variable analysis (used by join recognition / independence detection)
# --------------------------------------------------------------------------- #
def _collect_free_variables(node: Any, names: set[str], bound: set[str]) -> None:
    if isinstance(node, VarRef):
        if node.name not in bound:
            names.add(node.name)
        return
    if isinstance(node, FLWORExpr):
        inner_bound = set(bound)
        for clause in node.clauses:
            if isinstance(clause, ForClause):
                _collect_free_variables(clause.sequence, names, inner_bound)
                inner_bound.add(clause.variable)
                if clause.position_variable:
                    inner_bound.add(clause.position_variable)
            elif isinstance(clause, LetClause):
                _collect_free_variables(clause.value, names, inner_bound)
                inner_bound.add(clause.variable)
        if node.where is not None:
            _collect_free_variables(node.where, names, inner_bound)
        for spec in node.order_by:
            _collect_free_variables(spec.key, names, inner_bound)
        _collect_free_variables(node.return_expr, names, inner_bound)
        return
    if isinstance(node, QuantifiedExpr):
        inner_bound = set(bound)
        for variable, sequence in node.bindings:
            _collect_free_variables(sequence, names, inner_bound)
            inner_bound.add(variable)
        _collect_free_variables(node.satisfies, names, inner_bound)
        return
    if isinstance(node, (list, tuple)):
        for child in node:
            _collect_free_variables(child, names, bound)
        return
    if isinstance(node, Expr) or isinstance(node, (OrderSpec, AttributeValue)):
        for value in vars(node).values():
            _collect_free_variables(value, names, bound)
        return
    # plain values (str, int, Axis, ...) carry no variables
