"""AST → logical plan translation (the front half of Pathfinder).

The planner turns a parsed XQuery module into a DAG of logical operators
(:mod:`repro.relational.plan`), *without executing anything*.  The
translation is syntax-directed — every expression kind maps to one plan
operator whose parameters capture the expression's scalar attributes and
whose children are the translated subexpressions — but the result is
relational in shape: a path expression becomes a chain of ``step``
operators threading the context relation, a FLWOR becomes a ``flwor``
operator over clause/where/order/return inputs, and so on.

Because every plan of a module (body, global variable initialisers and
user-defined function bodies) is built through one shared
:class:`~repro.relational.plan.PlanBuilder`, structurally identical
subexpressions — repeated path prefixes, duplicated aggregates — are
hash-consed into *shared* DAG nodes.  The rewrite optimizer
(:mod:`repro.relational.rewrites`) then annotates the DAG and the executor
(:mod:`repro.xquery.codegen`) compiles it into closures over the eager
physical operators.

Plan operator reference (children in parentheses):

========== ============================================================
kind        meaning
========== ============================================================
const       literal item; param ``value``
empty       the empty sequence ``()``
var         variable reference; param ``name``
context     the context item ``.``
root        root of the context document (start of an absolute path)
seq         sequence concatenation (items...)
range       integer range (start, end)
arith       arithmetic; param ``op`` (left, right)
unary       unary +/-; param ``negate`` (operand)
cmp-value   value comparison; param ``op`` (left, right)
cmp-general existential general comparison; param ``op`` (left, right)
and / or    boolean connectives (operands...)
if          conditional via loop splitting (condition, then, else)
flwor       FLWOR block (clauses..., where?, orderspecs..., return)
for         for clause; params ``var``, ``posvar`` (sequence)
let         let clause; param ``var`` (value)
orderspec   one order-by key; param ``descending`` (key)
quantified  some/every; params ``quantifier``, ``variables`` (seqs..., satisfies)
step        one XPath location step; params ``axis``, ``test_kind``,
            ``test_name`` (input, predicates...)
filter      predicate application outside a path (base, predicates...)
call        function call; param ``name`` (arguments...)
elem        element constructor; params ``name``, ``attr_names``,
            ``content_spec`` (attribute templates..., content exprs...)
avt         attribute value template; param ``spec`` (exprs...)
text        text node constructor (content)
========== ============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import XQueryUnsupportedError
from ..relational.plan import PlanBuilder, PlanNode
from ..staircase.axes import Axis
from . import ast


@dataclass
class PlannedFunction:
    """A user-defined function with its body translated to a plan."""

    name: str
    parameters: tuple[str, ...]
    body: PlanNode


@dataclass
class ModulePlan:
    """The logical plans of one parsed module (pre-optimization)."""

    body: PlanNode
    globals: list[tuple[str, PlanNode]]
    functions: dict[str, PlannedFunction]
    builder: PlanBuilder = field(repr=False, default_factory=PlanBuilder)

    @property
    def global_names(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.globals)

    def roots(self) -> list[PlanNode]:
        """All plan roots of the module (body first)."""
        roots = [self.body]
        roots.extend(plan for _, plan in self.globals)
        roots.extend(function.body for function in self.functions.values())
        return roots


def plan_module(module: ast.Module) -> ModulePlan:
    """Translate a parsed module into its logical plans."""
    builder = PlanBuilder()
    planner = _Planner(builder)
    functions = {
        name: PlannedFunction(declaration.name,
                              tuple(declaration.parameters),
                              planner.plan(declaration.body))
        for name, declaration in module.functions.items()
    }
    globals_ = [(declaration.name, planner.plan(declaration.value))
                for declaration in module.variables]
    body = planner.plan(module.body)
    return ModulePlan(body=body, globals=globals_, functions=functions,
                      builder=builder)


def plan_expression(expr: ast.Expr, builder: PlanBuilder | None = None) -> PlanNode:
    """Translate a single expression (test/tooling helper)."""
    return _Planner(builder if builder is not None else PlanBuilder()).plan(expr)


def _is_slash_slash(node: PlanNode) -> bool:
    """Whether a plan node is a bare ``descendant-or-self::node()`` step —
    what the parser emits for the ``//`` abbreviation."""
    return (node.kind == "step" and len(node.children) == 1
            and node.p("axis") is Axis.DESCENDANT_OR_SELF
            and node.p("test_kind") == "node")


class _Planner:
    """The syntax-directed translator (one method per AST node type)."""

    def __init__(self, builder: PlanBuilder):
        self.builder = builder

    def plan(self, node: ast.Expr) -> PlanNode:
        method = getattr(self, f"_plan_{type(node).__name__}", None)
        if method is None:
            raise XQueryUnsupportedError(
                f"unsupported expression {type(node).__name__}")
        return method(node)

    # -- literals, variables, sequences ----------------------------------- #
    def _plan_Literal(self, node: ast.Literal) -> PlanNode:
        return self.builder.node("const", value=node.value)

    def _plan_EmptySequence(self, node: ast.EmptySequence) -> PlanNode:
        return self.builder.node("empty")

    def _plan_VarRef(self, node: ast.VarRef) -> PlanNode:
        return self.builder.node("var", name=node.name)

    def _plan_ContextItem(self, node: ast.ContextItem) -> PlanNode:
        return self.builder.node("context")

    def _plan_SequenceExpr(self, node: ast.SequenceExpr) -> PlanNode:
        return self.builder.node(
            "seq", tuple(self.plan(item) for item in node.items))

    def _plan_RangeExpr(self, node: ast.RangeExpr) -> PlanNode:
        return self.builder.node(
            "range", (self.plan(node.start), self.plan(node.end)))

    # -- arithmetic, comparisons, logic ------------------------------------ #
    def _plan_ArithmeticExpr(self, node: ast.ArithmeticExpr) -> PlanNode:
        return self.builder.node(
            "arith", (self.plan(node.left), self.plan(node.right)), op=node.op)

    def _plan_UnaryExpr(self, node: ast.UnaryExpr) -> PlanNode:
        return self.builder.node("unary", (self.plan(node.operand),),
                                 negate=node.negate)

    def _plan_ValueComparison(self, node: ast.ValueComparison) -> PlanNode:
        return self.builder.node(
            "cmp-value", (self.plan(node.left), self.plan(node.right)),
            op=node.op)

    def _plan_GeneralComparison(self, node: ast.GeneralComparison) -> PlanNode:
        return self.builder.node(
            "cmp-general", (self.plan(node.left), self.plan(node.right)),
            op=node.op)

    def _plan_AndExpr(self, node: ast.AndExpr) -> PlanNode:
        return self.builder.node(
            "and", tuple(self.plan(operand) for operand in node.operands))

    def _plan_OrExpr(self, node: ast.OrExpr) -> PlanNode:
        return self.builder.node(
            "or", tuple(self.plan(operand) for operand in node.operands))

    def _plan_IfExpr(self, node: ast.IfExpr) -> PlanNode:
        return self.builder.node("if", (self.plan(node.condition),
                                        self.plan(node.then_branch),
                                        self.plan(node.else_branch)))

    # -- FLWOR -------------------------------------------------------------- #
    def _plan_FLWORExpr(self, node: ast.FLWORExpr) -> PlanNode:
        children: list[PlanNode] = []
        for clause in node.clauses:
            if isinstance(clause, ast.ForClause):
                children.append(self.builder.node(
                    "for", (self.plan(clause.sequence),),
                    var=clause.variable, posvar=clause.position_variable))
            elif isinstance(clause, ast.LetClause):
                children.append(self.builder.node(
                    "let", (self.plan(clause.value),), var=clause.variable))
            else:  # pragma: no cover - parser produces only for/let
                raise XQueryUnsupportedError("unsupported FLWOR clause")
        nclauses = len(children)
        if node.where is not None:
            children.append(self.plan(node.where))
        for spec in node.order_by:
            children.append(self.builder.node(
                "orderspec", (self.plan(spec.key),),
                descending=spec.descending))
        children.append(self.plan(node.return_expr))
        return self.builder.node("flwor", tuple(children),
                                 nclauses=nclauses,
                                 has_where=node.where is not None,
                                 norder=len(node.order_by))

    def _plan_QuantifiedExpr(self, node: ast.QuantifiedExpr) -> PlanNode:
        children = tuple(self.plan(sequence)
                         for _, sequence in node.bindings)
        children += (self.plan(node.satisfies),)
        return self.builder.node(
            "quantified", children, quantifier=node.quantifier,
            variables=tuple(variable for variable, _ in node.bindings))

    # -- paths --------------------------------------------------------------- #
    def _plan_PathExpr(self, node: ast.PathExpr) -> PlanNode:
        if node.absolute:
            current = self.builder.node("root")
        elif node.start is not None:
            current = self.plan(node.start)
        else:
            current = self.builder.node("context")
        for step in node.steps:
            if not isinstance(step, ast.AxisStep):
                raise XQueryUnsupportedError(
                    "only axis steps are supported inside a path")
            predicates = tuple(self.plan(predicate)
                               for predicate in step.predicates)
            axis = step.axis
            if axis is Axis.CHILD and not predicates \
                    and _is_slash_slash(current):
                # path normal form: descendant-or-self::node()/child::T is
                # descendant::T on node sets, so `//T` never enumerates a
                # whole subtree as an intermediate context — whichever way
                # the plan is later shared, cached, fused or run step by
                # step.  A predicate blocks it: `//b[1]` counts children per
                # descendant-or-self node, `descendant::b[1]` does not.
                axis, current = Axis.DESCENDANT, current.children[0]
            current = self.builder.node(
                "step", (current,) + predicates,
                axis=axis, test_kind=step.node_test.kind,
                test_name=step.node_test.name)
        return current

    def _plan_FilterExpr(self, node: ast.FilterExpr) -> PlanNode:
        children = (self.plan(node.base),) + tuple(
            self.plan(predicate) for predicate in node.predicates)
        return self.builder.node("filter", children)

    # -- functions ------------------------------------------------------------ #
    def _plan_FunctionCall(self, node: ast.FunctionCall) -> PlanNode:
        return self.builder.node(
            "call", tuple(self.plan(argument) for argument in node.arguments),
            name=node.name)

    # -- constructors ---------------------------------------------------------- #
    def _plan_ElementConstructor(self, node: ast.ElementConstructor) -> PlanNode:
        children: list[PlanNode] = []
        attr_names = []
        for attribute_name, template in node.attributes:
            attr_names.append(attribute_name)
            children.append(self._plan_AttributeValue(template))
        content_spec: list[tuple[str, str] | str] = []
        for part in node.content:
            if isinstance(part, str):
                content_spec.append(("t", part))
            else:
                content_spec.append("e")
                children.append(self.plan(part))
        return self.builder.node("elem", tuple(children), name=node.name,
                                 attr_names=tuple(attr_names),
                                 content_spec=tuple(content_spec))

    def _plan_AttributeValue(self, node: ast.AttributeValue) -> PlanNode:
        spec: list[tuple[str, str] | str] = []
        children: list[PlanNode] = []
        for part in node.parts:
            if isinstance(part, str):
                spec.append(("t", part))
            else:
                spec.append("e")
                children.append(self.plan(part))
        return self.builder.node("avt", tuple(children), spec=tuple(spec))

    def _plan_TextConstructor(self, node: ast.TextConstructor) -> PlanNode:
        return self.builder.node("text", (self.plan(node.content),))
