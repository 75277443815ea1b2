"""Plan-to-Python codegen: the executor — one closure per plan operator.

An :class:`~repro.relational.rewrites.OptimizedModulePlan` compiles
**once at prepare time** into one specialized Python closure per plan
operator (closure composition — the approach DevilsDatabase takes for
value expressions, one level up); the closures are the only way a plan
node executes:

* every static decision — operator params, engine options, column
  requirements, join schedules, fused-chain specs, function lookups — is
  resolved here, and every child is called through its compiled closure;
  constant operands skip the ``lift_constant`` table churn entirely,
* :meth:`_ClosureBuilder._wrap` is every node's entry point: the subplan
  cache consultation and the CSE memo live there; a node with neither
  keeps its raw closure,
* ``for``/``let``/``orderspec``/``avt`` are structural: the enclosing
  ``flwor``/``quantified``/``elem`` closure consumes them (the FLWOR
  emitters and their join run-time are :mod:`repro.xquery.flwor`),
* dynamic errors (unknown function, wrong arity, recursion) compile to
  closures that raise at *run* time, so ``prepare()`` succeeds on any
  parsable query.

A closure is ``fn(state, loop, env) -> Table``: the :class:`RunState` of
one execution, the loop relation and the environment of ``iter|pos|item``
variable tables.  The :class:`CompiledProgram` is immutable and shared;
it is cached on :class:`~repro.xquery.engine.PreparedQuery` next to the
plan, so the plan-cache key invalidates both together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import XQueryRuntimeError, XQueryTypeError, XQueryUnsupportedError
from ..relational import explain
from ..relational import operators as ops
from ..relational.plan import PlanNode
from ..relational.rewrites import OptimizedModulePlan, positional_predicate_spec
from ..relational.sorting import sort
from ..staircase.axes import NodeTest
from ..staircase.iterative import StaircaseStats
from ..xml.document import NodeRef
from . import functions
from .constructors import construct_element, construct_text
from .flwor import FlworEmitters, combine_verdicts
from .joins import existential_compare
from .sequences import (back_map, empty_sequence, ensure_sequence_order,
                        for_binding, from_iter_items, item_per_iteration,
                        items_by_iteration, lift_constant, lift_environment,
                        lift_items, make_loop, restrict_sequence,
                        sequence_items, singleton_per_iter, singleton_values,
                        unit_loop)
from .steps import StepOptions, axis_step, axis_step_chain
from .types import atomize, effective_boolean_value, to_number, to_string

#: structural operators without a closure of their own: the enclosing
#: ``flwor`` / ``elem`` closure consumes them inline
_STRUCTURAL = frozenset({"for", "let", "orderspec", "avt"})

#: argless builtins that consume the implicit context item
_CONTEXT_BUILTINS = ("string", "data", "number", "name", "local-name")

#: a compiled ``[last()]`` predicate (see :meth:`_ClosureBuilder._predicates`)
_LAST = object()


@dataclass(slots=True)
class RunState:
    """The state of one execution: created per run, never shared."""

    store: Any
    #: container receiving the nodes constructed by this execution
    transient: Any
    #: the attached cross-query :class:`~repro.server.SubplanCache`, if any
    subplan_cache: Any = None
    global_items: dict[str, list[Any]] = field(default_factory=dict)
    #: CSE memo; the pinned tables keep the ``id()`` keys stable
    memo: dict[tuple, Any] = field(default_factory=dict)
    memo_pins: list[Any] = field(default_factory=list)
    call_stack: list[str] = field(default_factory=list)
    step_stats: StaircaseStats = field(default_factory=StaircaseStats)


@dataclass(frozen=True)
class CompiledProgram:
    """The compiled form of one optimized plan: closures keyed by node id.

    Shared between executions (and threads): the closures close only over
    static plan facts; all run-scoped state lives on the :class:`RunState`.
    """

    by_id: dict[int, Callable] = field(repr=False)
    #: node id -> reason a node has no closure: always empty, every operator
    #: compiles (read by the benchmark's layer view)
    fallbacks: dict[int, str] = field(default_factory=dict, repr=False)
    #: (name, closure) of every global variable, in declaration order
    globals: tuple = field(default=(), repr=False)
    body: Callable | None = field(default=None, repr=False)
    order_opt: bool = True

    @property
    def compiled_count(self) -> int:
        return len(self.by_id)

    def run(self, state: RunState, context_item: Any = None) -> list[Any]:
        """Evaluate the globals, then the body, in a single-iteration loop
        (the context item bound to ``.``); returns the result items."""
        loop = unit_loop()
        env = {} if context_item is None \
            else {".": lift_constant(loop, context_item)}
        for name, fn in self.globals:
            state.global_items[name] = sequence_items(fn(state, loop, env), 1)
        result = ensure_sequence_order(self.body(state, loop, env),
                                       use_properties=self.order_opt)
        return sequence_items(result, 1)


def compile_plan(optimized: OptimizedModulePlan, options: Any
                 ) -> CompiledProgram:
    """Compile every operator of an optimized plan — body, globals and
    user-function bodies — to a closure."""
    builder = _ClosureBuilder(optimized, options)
    for root in optimized.roots():
        for node in root.walk():
            if node.kind not in _STRUCTURAL:
                builder.closure(node)
    by_id = builder.by_id
    return CompiledProgram(
        by_id=by_id, body=by_id[optimized.body.id],
        globals=tuple((name, by_id[plan.id])
                      for name, plan in optimized.globals),
        order_opt=builder.order_opt)


class _ClosureBuilder(FlworEmitters):
    """Walks the plan DAG once, emitting one closure per operator."""

    def __init__(self, plan: OptimizedModulePlan, options: Any):
        self.plan = plan
        self.by_id: dict[int, Callable] = {}
        # every option consulted per node, resolved once
        self.order_opt = options.order_optimization
        self.positional_lookup = options.positional_lookup
        self.existential_strategy = "auto" \
            if options.existential_aggregates else "dedup"
        self.join_recognition = options.join_recognition
        self.cost_based_joins = options.cost_based_joins
        self.wcoj = options.wcoj
        self.step_fusion = options.step_fusion
        self.typed_columns = options.typed_columns
        self.step_options = StepOptions(
            loop_lifted_child=options.loop_lifted_child,
            loop_lifted_descendant=options.loop_lifted_descendant,
            loop_lifted_other=options.loop_lifted_other,
            nametest_pushdown=options.nametest_pushdown,
        )

    # ------------------------------------------------------------------ #
    # closure lookup / wrapping
    # ------------------------------------------------------------------ #
    def closure(self, node: PlanNode) -> Callable:
        """The executable closure of a node (generated and wrapped once)."""
        fn = self.by_id.get(node.id)
        if fn is None:
            generate = getattr(self, "_gen_" + node.kind.replace("-", "_"))
            fn = self.by_id[node.id] = self._wrap(node, generate(node))
        return fn

    def _wrap(self, node: PlanNode, raw: Callable) -> Callable:
        """Every node's entry point: the cross-query subplan-cache
        consultation, then the shared-subplan (CSE) memo.  Nodes with
        neither stay raw (no extra frame)."""
        fingerprint = self.plan.cache_keys.get(node.id)
        shared = node.id in self.plan.shared \
            and node.id not in self.plan.impure
        if fingerprint is None and not shared:
            return raw
        # the environment entries the value can depend on, in key order
        free = tuple(sorted(self.plan.free(node))) if shared else None
        return _entry(raw, node.id, node.kind, fingerprint, free)

    # ------------------------------------------------------------------ #
    # static column requirements (resolved once, not per execution)
    # ------------------------------------------------------------------ #
    def _needs_pos(self, node: PlanNode) -> bool:
        return "pos" in self.plan.required_columns(node)

    def _needs_item(self, node: PlanNode) -> tuple[bool, bool]:
        """Whether any consumer reads the node's ``item`` column, as
        (static verdict, cache-dependent bit): without readers the step
        kernels skip item materialisation (``count()`` reads ``iter``
        alone), unless a subplan cache is attached and the node is
        cache-marked — other queries' consumers read its slot."""
        if not self.typed_columns:
            return True, False
        static = "item" in self.plan.required_columns(node)
        cache_dependent = not static \
            and self.plan.cache_keys.get(node.id) is not None
        return static, cache_dependent

    # ------------------------------------------------------------------ #
    # operand sources: per-iteration views with constant fast paths
    # ------------------------------------------------------------------ #
    def _inline_const(self, child: PlanNode) -> bool:
        """A constant operand's per-iteration view can be built directly
        (no lifted table) — except for shared consts, which keep going
        through their memoising closure."""
        return child.kind == "const" and child.id not in self.plan.shared

    def _scalar_source(self, child: PlanNode) -> Callable:
        """``fn(state, loop, env) -> {iteration: first item}``.  A constant
        operand skips the lifted table entirely — its singleton view is a
        direct per-iteration dict of the literal."""
        if self._inline_const(child):
            value = child.p("value")
            return lambda state, loop, env: dict.fromkeys(loop.col("iter"),
                                                          value)
        fn = self.closure(child)
        return lambda state, loop, env: singleton_values(fn(state, loop, env))

    def _grouped_source(self, child: PlanNode) -> Callable:
        """``fn(state, loop, env) -> {iteration: [items]}`` (sequence view)."""
        if self._inline_const(child):
            value = child.p("value")
            return lambda state, loop, env: {
                iteration: [value] for iteration in loop.col("iter")}
        fn = self.closure(child)
        return lambda state, loop, env: items_by_iteration(
            fn(state, loop, env))

    def _ebv_source(self, child: PlanNode) -> Callable:
        """``fn(state, loop, env) -> {iteration: effective boolean value}``.
        Constant operands precompute their EBV at codegen time."""
        if self._inline_const(child):
            verdict = effective_boolean_value([child.p("value")])
            return lambda state, loop, env: dict.fromkeys(loop.col("iter"),
                                                          verdict)
        fn = self.closure(child)

        def source(state, loop, env):
            grouped = items_by_iteration(fn(state, loop, env))
            return {iteration: effective_boolean_value(
                        grouped.get(iteration, []))
                    for iteration in loop.col("iter")}
        return source

    # ------------------------------------------------------------------ #
    # literals, variables, sequences
    # ------------------------------------------------------------------ #
    def _gen_const(self, node: PlanNode) -> Callable:
        value = node.p("value")
        return lambda state, loop, env: lift_constant(loop, value)

    def _gen_empty(self, node: PlanNode) -> Callable:
        return lambda state, loop, env: empty_sequence()

    def _gen_var(self, node: PlanNode) -> Callable:
        name = node.p("name")

        def fn(state, loop, env):
            table = env.get(name)
            if table is not None:
                return table
            if name in state.global_items:
                return lift_items(loop, state.global_items[name])
            raise XQueryRuntimeError(f"unbound variable ${name}")
        return fn

    def _gen_context(self, node: PlanNode) -> Callable:
        def fn(state, loop, env):
            table = env.get(".")
            if table is None:
                raise XQueryRuntimeError("the context item is undefined here")
            return table
        return fn

    def _gen_root(self, node: PlanNode) -> Callable:
        def fn(state, loop, env):
            context = env.get(".")
            if context is None:
                raise XQueryRuntimeError(
                    "absolute path used without a context document")
            values: dict[int, Any] = {}
            for iteration, item in zip(context.col("iter"),
                                       context.col("item")):
                if not isinstance(item, NodeRef):
                    raise XQueryTypeError("the context item is not a node")
                values.setdefault(
                    iteration, NodeRef(item.container,
                                       item.container.root_pre(item.pre)))
            return singleton_per_iter(loop, values)
        return fn

    def _gen_seq(self, node: PlanNode) -> Callable:
        part_fns = [self.closure(child) for child in node.children]
        need_pos = self._needs_pos(node)
        order_opt = self.order_opt

        def fn(state, loop, env):
            return _concatenate([part(state, loop, env) for part in part_fns],
                                need_pos, order_opt)
        return fn

    def _gen_range(self, node: PlanNode) -> Callable:
        start_src = self._scalar_source(node.children[0])
        end_src = self._scalar_source(node.children[1])

        def fn(state, loop, env):
            start = start_src(state, loop, env)
            end = end_src(state, loop, env)
            pairs: list[tuple[int, Any]] = []
            for iteration in loop.col("iter"):
                low = to_number(start.get(iteration))
                high = to_number(end.get(iteration))
                if low is None or high is None:
                    continue
                for value in range(int(low), int(high) + 1):
                    pairs.append((iteration, value))
            return from_iter_items(pairs)
        return fn

    # ------------------------------------------------------------------ #
    # arithmetic, comparisons, logic
    # ------------------------------------------------------------------ #
    def _gen_arith(self, node: PlanNode) -> Callable:
        left_src = self._scalar_source(node.children[0])
        right_src = self._scalar_source(node.children[1])
        op = node.p("op")
        arithmetic = ops.arithmetic

        def fn(state, loop, env):
            left = left_src(state, loop, env)
            right = right_src(state, loop, env)
            values: dict[int, Any] = {}
            for iteration in loop.col("iter"):
                if iteration not in left or iteration not in right:
                    continue
                result = arithmetic(op, atomize(left[iteration]),
                                    atomize(right[iteration]))
                if result is not None:
                    values[iteration] = result
            return singleton_per_iter(loop, values)
        return fn

    def _gen_unary(self, node: PlanNode) -> Callable:
        operand_src = self._scalar_source(node.children[0])
        negate = node.p("negate")

        def fn(state, loop, env):
            operand = operand_src(state, loop, env)
            values: dict[int, Any] = {}
            for iteration in loop.col("iter"):
                if iteration not in operand:
                    continue
                number = to_number(operand[iteration])
                if number is None:
                    continue
                values[iteration] = -number if negate else number
            return singleton_per_iter(loop, values)
        return fn

    def _gen_cmp_value(self, node: PlanNode) -> Callable:
        left_src = self._scalar_source(node.children[0])
        right_src = self._scalar_source(node.children[1])
        op = node.p("op")
        compare_values = ops.compare_values

        def fn(state, loop, env):
            left = left_src(state, loop, env)
            right = right_src(state, loop, env)
            values: dict[int, Any] = {}
            for iteration in loop.col("iter"):
                if iteration not in left or iteration not in right:
                    continue
                values[iteration] = compare_values(
                    op, atomize(left[iteration]), atomize(right[iteration]))
            return singleton_per_iter(loop, values)
        return fn

    def _gen_cmp_general(self, node: PlanNode) -> Callable:
        left_src = self._grouped_source(node.children[0])
        right_src = self._grouped_source(node.children[1])
        op = node.p("op")
        strategy = self.existential_strategy

        def fn(state, loop, env):
            true_iterations = existential_compare(
                left_src(state, loop, env), right_src(state, loop, env), op,
                strategy=strategy)
            values = {iteration: iteration in true_iterations
                      for iteration in loop.col("iter")}
            return singleton_per_iter(loop, values)
        return fn

    def _gen_and(self, node: PlanNode, every: bool = True) -> Callable:
        sources = [self._ebv_source(child) for child in node.children]
        return lambda state, loop, env: singleton_per_iter(
            loop, combine_verdicts(sources, every, state, loop, env))

    def _gen_or(self, node: PlanNode) -> Callable:
        return self._gen_and(node, every=False)

    def _gen_if(self, node: PlanNode) -> Callable:
        condition_src = self._ebv_source(node.children[0])
        then_fn = self.closure(node.children[1])
        else_fn = self.closure(node.children[2])
        order_opt = self.order_opt

        def fn(state, loop, env):
            verdict = condition_src(state, loop, env)
            then_iters = [it for it in loop.col("iter")
                          if verdict.get(it, False)]
            else_iters = [it for it in loop.col("iter")
                          if not verdict.get(it, False)]
            parts = []
            for iters, branch_fn in ((then_iters, then_fn),
                                     (else_iters, else_fn)):
                if iters:
                    parts.append(branch_fn(
                        state, make_loop(iters),
                        {name: restrict_sequence(table, iters)
                         for name, table in env.items()}))
            parts = [part for part in parts if part.row_count]
            if not parts:
                return empty_sequence()
            merged = ops.union_all(parts)
            return sort(merged, ("iter", "pos"), use_properties=order_opt)
        return fn

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    def _chain_nodes(self, node: PlanNode, *, trim_at_cache: bool
                     ) -> list[PlanNode] | None:
        """The step nodes (head first) of the node's fused chain, as long
        as the rewrite annotated it; with ``trim_at_cache`` a cache-marked
        interior node stays a boundary (it runs standalone, filling its
        cache slot).  ``None`` when fewer than two steps survive."""
        if not self.step_fusion:
            return None
        length = self.plan.fused_chains.get(node.id, 0)
        if length < 2:
            return None
        chain = [node]
        current = node
        while len(chain) < length:
            deeper = current.children[0]
            if trim_at_cache and deeper.id in self.plan.cache_keys:
                break
            chain.append(deeper)
            current = deeper
        if len(chain) < 2:
            return None
        return chain

    def _chain_runner(self, chain: list[PlanNode] | None
                      ) -> Callable | None:
        """A closure running one precomputed fused chain (specs resolved,
        positional predicates included) through ``axis_step_chain``."""
        if chain is None:
            return None
        head = chain[0]
        base_fn = self.closure(chain[-1].children[0])
        specs = []
        for step in reversed(chain):
            name = step.p("test_name")
            pos_spec = positional_predicate_spec(step.children[1]) \
                if len(step.children) > 1 else None
            specs.append((step.p("axis"),
                          NodeTest(kind=step.p("test_kind"),
                                   name=name if name not in (None, "*")
                                   else None),
                          pos_spec))
        item_static, item_cache_dep = self._needs_item(head)
        step_options = self.step_options

        def run(state, loop, env):
            return axis_step_chain(
                base_fn(state, loop, env), specs, options=step_options,
                stats=state.step_stats,
                need_item=item_static or (item_cache_dep
                                          and state.subplan_cache is not None))
        return run

    def _gen_step(self, node: PlanNode) -> Callable:
        context_fn = self.closure(node.children[0])
        name = node.p("test_name")
        node_test = NodeTest(kind=node.p("test_kind"),
                             name=name if name not in (None, "*") else None)
        axis = node.p("axis")
        step_options = self.step_options
        order_opt = self.order_opt
        item_static, item_cache_dep = self._needs_item(node)
        need_pos = self._needs_pos(node)

        # the fused-chain decision is static except for one bit — whether a
        # cross-query subplan cache is attached (cache-marked interior nodes
        # must stay chain boundaries so their slots keep materialising) —
        # so both variants are precompiled and the runtime picks by that bit
        plain = self._chain_nodes(node, trim_at_cache=False)
        trimmed = self._chain_nodes(node, trim_at_cache=True)
        run_plain = self._chain_runner(plain)
        run_trimmed = run_plain if trimmed == plain \
            else self._chain_runner(trimmed)

        predicates = self._predicates(node.children[1:])

        def fn(state, loop, env):
            runner = run_trimmed if state.subplan_cache is not None \
                else run_plain
            if runner is not None:
                return runner(state, loop, env)
            if not predicates:
                return axis_step(
                    context_fn(state, loop, env), axis, node_test,
                    options=step_options, stats=state.step_stats,
                    need_item=item_static or (
                        item_cache_dep and state.subplan_cache is not None))
            # predicates need positions relative to each context node: a
            # nested iteration scope with one iteration per context node
            context = context_fn(state, loop, env)
            scope_map, sub_loop, dot, _ = for_binding(
                context, use_properties=order_opt)
            produced = axis_step(dot, axis, node_test, options=step_options,
                                 stats=state.step_stats)
            sub_env = lift_environment(env, scope_map)
            sub_env["."] = dot
            filtered = _apply_predicates(state, produced, predicates,
                                         sub_env, axis.is_reverse, order_opt)
            merged = back_map(scope_map, filtered, use_properties=order_opt)
            return _nodes_in_document_order(merged, need_pos)
        return fn

    def _gen_filter(self, node: PlanNode) -> Callable:
        base_fn = self.closure(node.children[0])
        predicates = self._predicates(node.children[1:])
        order_opt = self.order_opt

        def fn(state, loop, env):
            return _apply_predicates(state, base_fn(state, loop, env),
                                     predicates, env, False, order_opt)
        return fn

    def _predicates(self, predicates) -> list[tuple[Any, Callable | None]]:
        """Compile XPath predicates for :func:`_apply_predicates`: a
        positional literal ``k`` as ``(k, None)``, ``last()`` as
        ``(_LAST, None)``, anything else as ``(None, closure)``."""
        compiled = []
        for predicate in predicates:
            value = predicate.p("value") if predicate.kind == "const" else None
            if isinstance(value, int) and not isinstance(value, bool):
                compiled.append((value, None))
            elif predicate.kind == "call" and predicate.p("name") == "last" \
                    and not predicate.children:
                compiled.append((_LAST, None))
            else:
                compiled.append((None, self.closure(predicate)))
        return compiled

    # ------------------------------------------------------------------ #
    # function calls
    # ------------------------------------------------------------------ #
    def _gen_call(self, node: PlanNode) -> Callable:
        name = node.p("name")
        if name.startswith("fn:"):
            name = name[3:]

        if name in ("position", "last") and not node.children:
            variable = "fs:" + name

            def fn(state, loop, env):
                table = env.get(variable)
                if table is None:
                    raise XQueryRuntimeError(
                        f"{name}() used outside a predicate")
                return table
            return fn

        planned = self.plan.functions.get(node.p("name")) \
            or self.plan.functions.get(name)
        if planned is not None:
            return self._gen_user_call(node, planned)
        if not functions.is_builtin(name):
            # a dynamic error: prepare()/explain() must keep succeeding
            return lambda state, loop, env: functions.lookup(name)
        implementation = functions.lookup(name)

        if name in _CONTEXT_BUILTINS and not node.children:
            def fn(state, loop, env):
                context = env.get(".")
                if context is None:
                    raise XQueryRuntimeError(
                        "the context item is undefined here")
                return implementation(state, loop, [context])
            return fn

        argument_fns = [self.closure(argument)
                        for argument in node.children]

        def fn(state, loop, env):
            return implementation(
                state, loop, [argument(state, loop, env)
                              for argument in argument_fns])
        return fn

    def _gen_user_call(self, node: PlanNode, planned) -> Callable:
        """A (non-recursive) user-function call: the body closure runs
        under an environment holding only the parameters.  The body is
        looked up at run time — it compiles as its own root, and resolving
        it here would not terminate on a recursive declaration."""
        function = planned.name
        parameters = planned.parameters
        argument_fns = [self.closure(argument)
                        for argument in node.children]
        body_id = planned.body.id
        by_id = self.by_id

        def fn(state, loop, env):
            if function in state.call_stack:
                raise XQueryUnsupportedError(
                    f"recursive user function {function}() is not "
                    "supported by the eager loop-lifting evaluator")
            if len(argument_fns) != len(parameters):
                raise XQueryTypeError(
                    f"{function}() expects {len(parameters)} "
                    f"arguments, got {len(argument_fns)}")
            call_env = {parameter: argument(state, loop, env)
                        for parameter, argument
                        in zip(parameters, argument_fns)}
            state.call_stack.append(function)
            try:
                return by_id[body_id](state, loop, call_env)
            finally:
                state.call_stack.pop()
        return fn

    # ------------------------------------------------------------------ #
    # constructors (into the execution's transient container)
    # ------------------------------------------------------------------ #
    def _spec_source(self, spec, children) -> Callable:
        """``fn(state, loop, env) -> [str | {iteration: [items]}]``: a
        content/template spec with every ``"e"`` slot evaluated (in order)
        and the literal text parts passed through."""
        expressions = iter(children)
        parts = [self._grouped_source(next(expressions)) if part == "e"
                 else part[1] for part in spec]
        return lambda state, loop, env: [
            part if isinstance(part, str) else part(state, loop, env)
            for part in parts]

    def _string_source(self, spec, children) -> Callable:
        """``fn(state, loop, env) -> {iteration: str}``: the literal parts
        joined with the space-separated string values of each ``{expr}``."""
        parts_src = self._spec_source(spec, children)

        def source(state, loop, env):
            parts = parts_src(state, loop, env)
            return {iteration: "".join(
                        part if isinstance(part, str)
                        else " ".join(map(to_string,
                                          part.get(iteration, ())))
                        for part in parts)
                    for iteration in loop.col("iter")}
        return source

    def _gen_elem(self, node: PlanNode) -> Callable:
        name = node.p("name")
        attr_names = node.p("attr_names")
        attr_srcs = [self._string_source(template.p("spec"),
                                         template.children)
                     for template in node.children[:len(attr_names)]]
        content_src = self._spec_source(node.p("content_spec"),
                                        node.children[len(attr_names):])

        def fn(state, loop, env):
            # every nested expression runs (and constructs) for the whole
            # loop before the first element of this constructor is built
            attr_values = [source(state, loop, env) for source in attr_srcs]
            content_parts = content_src(state, loop, env)
            container = state.transient
            values: dict[int, Any] = {}
            for iteration in loop.col("iter"):
                content: list[Any] = []
                for part in content_parts:
                    if isinstance(part, str):
                        content.append(part)
                    else:
                        content.extend(part.get(iteration, ()))
                attributes = [(attr_name, per_iter[iteration])
                              for attr_name, per_iter
                              in zip(attr_names, attr_values)]
                values[iteration] = construct_element(container, name,
                                                      attributes, content)
            return singleton_per_iter(loop, values)
        return fn

    def _gen_text(self, node: PlanNode) -> Callable:
        text_src = self._string_source(("e",), node.children)

        def fn(state, loop, env):
            texts = text_src(state, loop, env)
            container = state.transient
            return singleton_per_iter(loop, {
                iteration: construct_text(container, text)
                for iteration, text in texts.items()})
        return fn


# --------------------------------------------------------------------------- #
# run-time
# --------------------------------------------------------------------------- #
def _entry(raw: Callable, node_id: int, kind: str, fingerprint: str | None,
           free: tuple[str, ...] | None) -> Callable:
    """The closure :meth:`_ClosureBuilder._wrap` puts in front of ``raw``:
    the subplan cache (with a ``fingerprint``), then the CSE memo keyed on
    the loop and the ``free`` variables' tables (``None``: not shared)."""

    def wrapped(state, loop, env):
        if fingerprint is not None and state.subplan_cache is not None:
            materialized = _cached_subplan(state, kind, fingerprint, raw,
                                           loop, env)
            if materialized is not None:
                return materialized
        if free is None:
            return raw(state, loop, env)
        pins = state.memo_pins
        pins.append(loop)
        key = [node_id, id(loop)]
        for name in free:
            table = env.get(name)
            if table is not None:
                pins.append(table)
            key.append((name, None if table is None else id(table)))
        key = tuple(key)
        hit = state.memo.get(key)
        if hit is not None:
            explain.record("plan", "plan.cse.reuse", hit.row_count,
                           hit.row_count, detail=kind)
            return hit
        result = state.memo[key] = raw(state, loop, env)
        return result
    return wrapped


def _cached_subplan(state: RunState, kind: str, fingerprint: str,
                    evaluate: Callable, loop, env: dict):
    """Serve a cacheable absolute-path subplan from the cross-query cache,
    evaluating and materializing it on a miss.

    The rewrite proved the subplan a pure absolute path; when every
    iteration sees one persistent document root its value is
    loop-invariant — computed once under a unit loop, keyed on
    (fingerprint, store version, container, root) and re-lifted into the
    current loop.  ``None``: no/ambiguous/transient context, the caller
    evaluates the node itself."""
    context = env.get(".")
    if context is None or loop.row_count == 0:
        return None
    container = None
    root_pre = -1
    for item in context.col("item"):
        if not isinstance(item, NodeRef) or item.container.transient:
            return None
        pre = item.container.root_pre(item.pre)
        if container is None:
            container, root_pre = item.container, pre
        elif container is not item.container or root_pre != pre:
            return None
    if container is None:
        return None
    cache = state.subplan_cache
    key = cache.make_key(fingerprint, state.store.version, container,
                         root_pre)
    items = cache.lookup(key)
    if items is None:
        base_loop = unit_loop()
        base_env = {".": lift_constant(base_loop,
                                       NodeRef(container, root_pre))}
        # ``evaluate`` is the node's raw (unwrapped) closure, so this node
        # cannot consult the cache again; nested prefix steps run through
        # their wrapped closures and populate their own slots
        table = evaluate(state, base_loop, base_env)
        items = cache.insert(key, tuple(sequence_items(table, 1)),
                             pin=container)
        explain.record("plan", "plan.subplan.materialize", len(items),
                       len(items), detail=kind)
    else:
        explain.record("plan", "plan.subplan.hit", len(items), len(items),
                       detail=kind)
    return lift_items(loop, items)


def _concatenate(parts: list, need_pos: bool, order_opt: bool):
    """Sequence concatenation, branch-major per iteration."""
    live = [part for part in parts if part.row_count]
    if not live:
        return empty_sequence()
    if not need_pos:
        # projection pushdown: no consumer reads pos, so the branch-major
        # union already carries the right per-iteration item order — skip
        # the sort and the positional renumbering entirely.  The stale
        # per-branch pos values must not survive: a later stable
        # (iter, pos) sort would use them as keys and interleave the
        # branches, so a constant column stands in.
        merged = ops.union_all(live)
        merged = ops.project(merged, {"iter": "iter", "item": "item"})
        merged = ops.attach(merged, "pos", 1)
        merged = ops.project(merged, {"iter": "iter", "pos": "pos",
                                      "item": "item"})
        merged.props.order = ()
        explain.record("project", "project.pushdown", merged.row_count,
                       merged.row_count, detail="seq")
        return merged
    branches = [ops.attach(part, "branch", index)
                for index, part in enumerate(live)]
    merged = ops.union_all(branches)
    merged = sort(merged, ("iter", "branch", "pos"), use_properties=order_opt)
    merged = ops.rownum(merged, "new_pos", ("branch", "pos"),
                        partition="iter", use_properties=order_opt)
    result = ops.project(merged, {"iter": "iter", "pos": "new_pos",
                                  "item": "item"})
    result.props.order = ("iter", "pos")
    return result


def _nodes_in_document_order(table, need_pos: bool):
    rows = sorted(
        zip(table.col("iter"), table.col("item")),
        key=lambda pair: (pair[0], pair[1].order_key()
                          if isinstance(pair[1], NodeRef) else (0, 0, 0, 0)))
    return from_iter_items([pair for index, pair in enumerate(rows)
                            if index == 0 or pair != rows[index - 1]],
                           need_pos=need_pos)


def _apply_predicates(state: RunState, sequence, predicates, env: dict,
                      reverse: bool, order_opt: bool):
    """Filter ``sequence`` through predicates compiled by
    :meth:`_ClosureBuilder._predicates`, one after the other.

    ``reverse=True`` (the predicates belong to a reverse-axis step) makes
    ``position()`` count in *proximity* order — reverse document order —
    per the XPath rule that positions follow the axis direction.  The rows
    themselves stay in document order (``pos`` ascending); the effective
    position of a row is ``count(iteration) - pos + 1``, so ``[1]`` keeps
    the nearest node and ``[last()]`` the farthest.
    """
    for wanted, verdict_fn in predicates:
        if sequence.row_count == 0:
            return sequence
        positions = sequence.col("pos")
        iterations = sequence.col("iter")
        effective = positions
        if reverse or verdict_fn is not None:
            counts: dict[int, int] = {}
            for iteration in iterations:
                counts[iteration] = counts.get(iteration, 0) + 1
            if reverse:
                effective = [counts[iteration] - position + 1 for
                             iteration, position in zip(iterations, positions)]

        if wanted is _LAST:
            last_by_iter: dict[int, int] = {}
            for iteration, position in zip(iterations, effective):
                last_by_iter[iteration] = max(last_by_iter.get(iteration, 0),
                                              position)
            keep = [index for index, (iteration, position)
                    in enumerate(zip(iterations, effective))
                    if position == last_by_iter[iteration]]
        elif wanted is not None:
            keep = [index for index, position in enumerate(effective)
                    if position == wanted]
        else:
            keep = _predicate_verdicts(state, sequence, verdict_fn, counts,
                                       effective, env, order_opt)
        kept = sequence.take(keep, keep_order=True)
        sequence = from_iter_items(list(zip(kept.col("iter"),
                                            kept.col("item"))))
    return sequence


def _predicate_verdicts(state: RunState, sequence, verdict_fn, counts,
                        effective, env: dict, order_opt: bool) -> list[int]:
    """The rows a general predicate keeps: it runs in a nested scope with
    one iteration per item (``.``, ``position()`` and ``last()`` bound); a
    single numeric outcome compares against the position, anything else
    is an effective boolean value."""
    iterations = sequence.col("iter")
    scope_map, sub_loop, dot, _ = for_binding(sequence,
                                              use_properties=order_opt)
    sub_env = lift_environment(env, scope_map)
    sub_env["."] = dot
    sub_iters = sub_loop.col("iter")
    sub_env["fs:position"] = item_per_iteration(list(effective))
    sub_env["fs:last"] = item_per_iteration(
        [counts[iteration] for iteration in iterations])

    grouped = items_by_iteration(verdict_fn(state, sub_loop, sub_env))
    keep: list[int] = []
    for index, inner in enumerate(sub_iters):
        outcome = grouped.get(inner, [])
        if not outcome:
            continue
        first = outcome[0]
        if isinstance(first, (int, float)) and not isinstance(first, bool) \
                and len(outcome) == 1:
            if first == effective[index]:
                keep.append(index)
        elif effective_boolean_value(outcome):
            keep.append(index)
    return keep
