"""Plan-to-Python codegen: the compiled closures are the only executor.

Every operator kind must execute through its specialized closure and
agree with the independent tree-walking interpreter
(:mod:`repro.baselines`); every node of every plan root — user-function
bodies included — must compile; dynamic errors must stay dynamic; and the
compiled program must share the plan cache's lifecycle (store-version
invalidation).
"""

from __future__ import annotations

import re

import pytest

from repro import MonetXQuery
from repro.baselines.interpreter import run_baseline
from repro.errors import (ReproError, XQueryTypeError,
                          XQueryUnsupportedError)
from repro.relational import capture
from repro.xmark import XMARK_QUERIES
from repro.xml.serializer import serialize_sequence
from repro.xquery.codegen import CompiledProgram, compile_plan

from conftest import SMALL_XML
from test_differential import (generated_chain_queries,
                               generated_join_queries, generated_queries)


#: one query per operator kind (some exercise several at once)
KIND_QUERIES = {
    "const": "42",
    "seq": "(1, 2, 3)",
    "range": "1 to 4",
    "arith": "2 + 3 * 4",
    "unary": "-(1 + 2)",
    "cmp-value": "1 lt 2",
    "cmp-general": "(1, 2) = (2, 3)",
    "and-or": "1 = 1 and (2 = 3 or 4 = 4)",
    "if": 'if (count(//person) > 1) then "many" else "few"',
    "step": "/site/people/person/name",
    "step-predicate": '//person[@id = "person1"]/name/text()',
    "positional": "/site/people/person[2]/name",
    "last": "/site/people/person[last()]/name",
    "filter": "(1 to 9)[. mod 3 = 0]",
    "call": "count(//person)",
    "context-builtin": "string(/site/people/person[1]/name)",
    "flwor": ("for $p in /site/people/person "
              "where $p/profile/@income >= 30000 "
              "return $p/name/text()"),
    "flwor-join": ("for $p in /site/people/person "
                   "for $t in /site/closed_auctions/closed_auction "
                   "where $t/buyer/@person = $p/@id "
                   "return $t/price/text()"),
    "flwor-order": ("for $p in /site/people/person "
                    "order by $p/name/text() descending "
                    "return $p/name/text()"),
    "let": ("for $p in /site/people/person "
            "let $n := count($p/profile/interest) return $n"),
    "quantified": ("for $a in /site/open_auctions/open_auction "
                   "where some $b in $a/bidder "
                   "satisfies $b/increase/text() >= 5 "
                   "return $a/@id"),
    "var-global": "declare variable $n := count(//person); $n + 1",
    # constructors and user functions: the shapes the interpreter fallback
    # used to keep off the compiled path
    "elem": ("for $p in /site/people/person "
             "return <n>{count($p/profile/interest)}</n>"),
    "elem-avt-mixed": ('for $p in /site/people/person return '
                       '<p id="x{$p/@id}-{count($p/profile/interest)}y"/>'),
    "elem-avt-sequence": '<r a="{1 to 3}|{()}|"/>',
    "elem-empty-content": "<r>{()}</r>",
    "elem-many-iterations": ('for $i in (1, 2, 3) '
                             'return <e n="{$i}">{$i, "t"}<f>{$i * 2}</f></e>'),
    "elem-copies-subtrees": ("for $a in /site/closed_auctions/closed_auction "
                             "return <sold>{$a/price, $a/buyer/@person}</sold>"),
    "text-multi-item": 'for $i in (1, 2) return text { ($i, "a", 3) }',
    "text-empty": "<r>{text { () }}</r>",
    "user-function": ("declare function local:inc($x) { $x + 1 }; "
                      "(local:inc(1), local:inc(1), local:inc(41))"),
    "user-function-constructor": (
        "declare function local:wrap($p) { <w>{$p/name/text()}</w> }; "
        "for $p in /site/people/person return local:wrap($p)"),
    "user-function-in-predicate": (
        "declare function local:rich($p) { $p/profile/@income >= 40000 }; "
        "/site/people/person[local:rich(.)]/name/text()"),
    "user-function-in-where": (
        "declare function local:rich($p) { $p/profile/@income >= 40000 }; "
        "for $p in /site/people/person "
        "where local:rich($p) return $p/name/text()"),
    "user-function-in-order-by": (
        "declare function local:key($p) { $p/name/text() }; "
        "for $p in /site/people/person "
        "order by local:key($p) descending return $p/@id"),
    "user-function-nested": (
        "declare function local:double($x) { $x * 2 }; "
        "declare function local:quad($x) { local:double(local:double($x)) }; "
        "local:quad(3)"),
}

#: kinds whose closure is emitted inline by the enclosing operator
STRUCTURAL_KINDS = {"for", "let", "orderspec", "avt"}


@pytest.fixture
def engine() -> MonetXQuery:
    mxq = MonetXQuery()
    mxq.load_document_text(SMALL_XML, name="auction.xml")
    return mxq


def assert_fully_compiled(prepared) -> None:
    program = prepared.compiled
    assert program.fallbacks == {}
    assert compile_plan(prepared.plan, prepared.options).fallbacks == {}
    for root in prepared.plan.roots():
        for node in root.walk():
            assert node.id in program.by_id \
                or node.kind in STRUCTURAL_KINDS, (prepared.text, node.kind)


class TestPerKindAgainstReference:
    @pytest.mark.parametrize("kind", sorted(KIND_QUERIES))
    def test_compiled_matches_reference(self, engine, kind):
        query = KIND_QUERIES[kind]
        compiled = engine.query(query)
        reference = serialize_sequence(
            run_baseline(engine.store, query, "auction.xml"))
        assert compiled.serialize() == reference, query
        # every non-structural node has a closure, nothing is left over
        assert_fully_compiled(engine.prepare(query))

    def test_constructor_results(self, engine):
        """Spot values, independent of either engine's serializer path."""
        assert engine.query(KIND_QUERIES["elem-avt-sequence"]).serialize() \
            == '<r a="1 2 3||"/>'
        assert engine.query(KIND_QUERIES["elem-many-iterations"]) \
            .serialize() == ('<e n="1">1 t<f>2</f></e>'
                             '<e n="2">2 t<f>4</f></e>'
                             '<e n="3">3 t<f>6</f></e>')
        assert engine.query(KIND_QUERIES["text-multi-item"]).serialize() \
            == "1 a 32 a 3"
        assert engine.query(KIND_QUERIES["user-function-in-where"]) \
            .strings() == ["Alice"]


class TestCoverage:
    """Every node of every root compiles: there is nothing to fall back to."""

    def test_differential_corpus_fully_compiled(self, engine):
        corpus = (generated_queries() + generated_chain_queries()
                  + generated_join_queries())
        for query in corpus:
            assert_fully_compiled(engine.prepare(query))

    def test_xmark_queries_fully_compiled(self, xmark_engine):
        for number in sorted(XMARK_QUERIES):
            assert_fully_compiled(xmark_engine.prepare(XMARK_QUERIES[number]))

    def test_function_bodies_are_roots(self, engine):
        prepared = engine.prepare(KIND_QUERIES["user-function-constructor"])
        body = prepared.plan.functions["local:wrap"].body
        assert body.kind == "elem"
        assert body.id in prepared.compiled.by_id

    def test_explain_carries_no_executor_annotations(self, engine):
        rendered = engine.explain(KIND_QUERIES["user-function-constructor"])
        assert "interpreted" not in rendered
        assert "codegen" not in rendered


class TestErrorTiming:
    """Dynamic errors surface from ``run()``, never from ``prepare()`` or
    ``explain()`` — only syntax errors are raised at prepare time."""

    CASES = [
        ("nosuch(1)", XQueryUnsupportedError, "unknown function nosuch()"),
        ("for $p in //person return <n>{nosuch($p)}</n>",
         XQueryUnsupportedError, "unknown function nosuch()"),
        ("declare function local:f($x) { $x }; local:f(1, 2)",
         XQueryTypeError, "expects 1 arguments, got 2"),
        ("declare function local:f($x) { local:f($x) }; local:f(1)",
         XQueryUnsupportedError, "recursive user function local:f()"),
        ("declare function local:a($x) { local:b($x) }; "
         "declare function local:b($x) { local:a($x) }; local:a(1)",
         XQueryUnsupportedError, "recursive user function local:a()"),
    ]

    @pytest.mark.parametrize("query,error,message", CASES)
    def test_raised_at_run_time_only(self, engine, query, error, message):
        prepared = engine.prepare(query)
        assert prepared.explain()
        assert_fully_compiled(prepared)
        with pytest.raises(error, match=re.escape(message)) as raised:
            prepared.run()
        assert isinstance(raised.value, ReproError)

    def test_repeated_calls_are_not_recursion(self, engine):
        """The recursion guard unwinds after each call: calling the same
        function twice in one execution is not recursion."""
        query = ("declare function local:inv($x) { 1 div $x }; "
                 "(local:inv(1), local:inv(2))")
        assert engine.query(query).items == [1.0, 0.5]

    def test_unreached_unknown_function_is_harmless(self, engine):
        assert engine.query("if (1 = 1) then 7 else nosuch()").items == [7]


class TestPlanCacheIntegration:
    def test_compiled_program_cached_on_prepared_query(self, engine):
        first = engine.prepare("count(//person)")
        second = engine.prepare("count(//person)")
        assert first is second
        assert isinstance(first.compiled, CompiledProgram)
        assert second.compiled is first.compiled

    def test_store_version_bump_invalidates(self, engine):
        before = engine.prepare("count(//person)")
        engine.load_document_text("<extra/>", name="extra.xml",
                                  default_context=False)
        after = engine.prepare("count(//person)")
        assert after is not before
        assert after.compiled is not before.compiled
        assert after.run().items == [3]

    def test_execute_module_shares_the_prepare_pipeline(self, engine):
        """``execute(module)`` builds the same kind of prepared query as
        ``prepare(text)`` — compiled, uncached."""
        query = KIND_QUERIES["elem"]
        before = engine.plan_cache_stats_snapshot()
        result = engine.execute(engine.parse(query))
        engine.reset_transient()
        assert result.serialize() == engine.query(query).serialize()
        after = engine.plan_cache_stats_snapshot()
        assert (after.hits, after.misses) == (before.hits, before.misses + 1)


class TestPositionalFusedChains:
    """Satellite: ``[k]`` / ``[last()]`` predicates inside fused chains."""

    POSITIONAL_QUERIES = [
        "/site/people/person[1]/name",
        "/site/people/person[2]/name/text()",
        "/site/people/person[last()]/name",
        "count(/site/open_auctions/open_auction[1]/bidder)",
        "//open_auction[last()]/itemref",
        "/site/closed_auctions/closed_auction[3]/price/text()",
        "/site/people/person[7]/name",          # out of range: empty
    ]

    @pytest.mark.parametrize("query", POSITIONAL_QUERIES)
    def test_positional_chains_fuse_and_agree(self, engine, query):
        with capture() as trace:
            fused = engine.query(query)
        assert trace.count("step.chain-positional") >= 1, query
        baseline = engine.query(
            query, options=engine.options.replace(step_fusion=False))
        assert fused.serialize() == baseline.serialize(), query


class TestCompileFunction:
    def test_compile_plan_counts_its_closures(self, engine):
        prepared = engine.prepare("count(//person)")
        program = compile_plan(prepared.plan, prepared.options)
        assert program.compiled_count == len(program.by_id) > 0

    def test_compiled_program_is_shareable(self, engine):
        """One CompiledProgram serves many executions (and threads): the
        closures keep no run state, so repeated runs agree."""
        prepared = engine.prepare(KIND_QUERIES["flwor-join"])
        first = prepared.run().serialize()
        for _ in range(3):
            assert prepared.run().serialize() == first


class TestServingIntegration:
    def test_server_stats_render_plan_counters(self):
        from repro.server import QueryServer

        with QueryServer(threads=2) as server:
            server.load_document_text(SMALL_XML, name="auction.xml")
            for _ in range(3):
                assert server.execute("count(//person)").items == [3]
            stats = server.stats()
            assert (stats.plan_cache.hits, stats.plan_cache.misses) == (2, 1)
            assert "plans[hit=2 miss=1 evict=0]" in stats.render()

    def test_process_pool_serves_compiled_plans(self):
        from repro.server import QueryServer

        queries = [
            "count(//person)",
            KIND_QUERIES["flwor-join"],
            "/site/people/person[2]/name/text()",
        ]
        with QueryServer(threads=2) as threaded, \
                QueryServer(processes=1) as pooled:
            threaded.load_document_text(SMALL_XML, name="auction.xml")
            pooled.load_document_text(SMALL_XML, name="auction.xml")
            for query in queries:
                for _ in range(2):    # second pass: worker plan-cache hit
                    assert pooled.submit(query).result().serialize() \
                        == threaded.execute(query).serialize(), query
