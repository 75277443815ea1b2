"""Step-chain fusion: fused and per-step pipelines must be bit-identical.

The fused evaluator (:func:`repro.xquery.steps.axis_step_chain`) threads the
paired ``(iter, pre)`` int arrays of each staircase join straight into the
next one and boxes ``NodeRef`` surrogates only at the chain's end — these
tests pin down that this changes *how* paths run (traces, explain
annotations), never *what* they return, including on the edge cases the
between-steps sort/dedup must get right.
"""

from __future__ import annotations

import pytest

from repro import EngineOptions, MonetXQuery
from repro.relational.explain import capture
from repro.server import SubplanCache
from repro.staircase.axes import Axis, NodeTest
from repro.xmark import XMARK_QUERIES
from repro.xquery.steps import axis_step_chain

from conftest import SMALL_XML


FUSED = EngineOptions(step_fusion=True)
PER_STEP = EngineOptions(step_fusion=False)

#: nested same-name elements: descendant-of-descendant chains over this
#: document produce the same node for several context nodes, so the fused
#: pipeline's raw-buffer dedup is load-bearing
NESTED_XML = (
    "<a>"
    "  <b><b><c><d/></c></b><c/></b>"
    "  <b><c><c><d/></c></c></b>"
    "  <d/>"
    "</a>"
)


def run_both(engine: MonetXQuery, query: str) -> tuple[str, str]:
    return (engine.query(query, options=FUSED).serialize(),
            engine.query(query, options=PER_STEP).serialize())


class TestFusedBitIdentity:
    """Handcrafted edge cases: fused == per-step, byte for byte."""

    EDGE_QUERIES = [
        # empty intermediate steps: the chain must survive an empty context
        # between two staircase joins
        "/site/nonexistent/person",
        "count(//nothing//item)",
        "/site/people/absent/name/text()",
        # single-context dense window: one outermost context per region, the
        # descendant scan emits one contiguous pre window
        "/site//person",
        "count(/site//text())",
        # deep mixed chains
        "/site/open_auctions/open_auction/bidder/increase/text()",
        "count(//open_auctions//bidder//increase)",
        # attribute axis ends a chain
        "//person/@id",
        "/site//itemref/@item",
        "count(//interest/@category)",
        # wildcard and kind tests inside the chain
        "/site/*/person/name",
        "//europe/*/name/text()",
    ]

    @pytest.mark.parametrize("query", EDGE_QUERIES)
    def test_edge_case_chains(self, engine, query):
        fused, per_step = run_both(engine, query)
        assert fused == per_step

    @pytest.mark.parametrize("query", [
        # duplicate-producing descendant-of-descendant chains: nested b/c
        # elements make several context nodes own the same result node
        "//b//c",
        "//b//c//d",
        "count(//b//c)",
        "//b/b/c",
        "//c//d",
        "count(//b//c//d)",
    ])
    def test_duplicate_producing_descendant_chains(self, query):
        mxq = MonetXQuery()
        mxq.load_document_text(NESTED_XML, name="nested.xml")
        fused, per_step = run_both(mxq, query)
        assert fused == per_step

    def test_chains_inside_flwor_iterations(self, engine):
        query = ("for $a in /site/open_auctions/open_auction "
                 "return count($a/bidder/increase)")
        fused, per_step = run_both(engine, query)
        assert fused == per_step

    def test_predicates_split_but_do_not_break_paths(self, engine):
        # the predicate-bearing step is excluded from fusion; the segments
        # around it still fuse and the result must not change
        query = "/site/people/person[1]/profile/interest/@category"
        fused, per_step = run_both(engine, query)
        assert fused == per_step


class TestFusionTraces:
    """Trace-level regression: what fusion must (not) execute."""

    def test_count_only_chain_never_boxes_a_surrogate(self, xmark_engine):
        """XMark Q6 shape: the fused count-only pipeline is surrogate-free
        end to end — one chain-fused entry, dead-item pruning at the end,
        and *no* per-step surrogate boxing trace at all."""
        query = "count(/site/regions//item)"
        with capture() as fused_trace:
            fused = xmark_engine.query(query, options=FUSED).items
        with capture() as per_step_trace:
            per_step = xmark_engine.query(query, options=PER_STEP).items
        assert fused == per_step

        assert fused_trace.count("step.chain-fused") >= 1
        assert fused_trace.count("step.item-pruned") >= 1
        assert fused_trace.count("step.materialize") == 0, \
            "a fused count-only chain must never box a NodeRef"

        assert per_step_trace.count("step.chain-fused") == 0
        assert per_step_trace.count("step.materialize") >= 1, \
            "the per-step baseline boxes every intermediate step"

    def test_materializing_chain_boxes_exactly_once(self, xmark_engine):
        query = "/site/open_auctions/open_auction/bidder/increase"
        with capture() as fused_trace:
            xmark_engine.query(query, options=FUSED)
        assert fused_trace.count("step.chain-fused") == 1
        assert fused_trace.count("step.materialize") == 1
        with capture() as per_step_trace:
            xmark_engine.query(query, options=PER_STEP)
        assert per_step_trace.count("step.materialize") >= 4

    def test_between_steps_sort_runs_on_raw_buffers(self, engine):
        with capture() as trace:
            engine.query("/site/people/person/name", options=FUSED)
        assert trace.count("step.chain-fused") >= 1
        assert trace.count("sort.int-pairs") >= 1

    def test_fusion_reported_in_explain(self, engine):
        prepared = engine.prepare("count(/site/regions/europe/item)",
                                  options=FUSED)
        assert "(fused" in prepared.explain()
        assert prepared.plan.report.fired("step-fusion")

    def test_no_fusion_annotations_when_disabled(self, engine):
        prepared = engine.prepare("count(/site/regions/europe/item)",
                                  options=PER_STEP)
        assert "(fused" not in prepared.explain()
        assert not prepared.plan.report.fired("step-fusion")


class TestCacheBoundaries:
    """Chains must not fuse across cross-query-cacheable nodes when a
    subplan cache is attached — their materialised item sequences are
    shared with other queries and must keep populating their slots."""

    QUERY = "/site/people/person/name"

    def test_no_fusion_across_attached_cache(self):
        mxq = MonetXQuery(subplan_cache=SubplanCache(admission_threshold=1))
        mxq.load_document_text(SMALL_XML, name="auction.xml")
        expected = mxq.query(self.QUERY, options=PER_STEP).serialize()
        with capture() as trace:
            first = mxq.query(self.QUERY, options=FUSED).serialize()
        # every step of the absolute path is cache-marked: the chain is
        # trimmed at each boundary and evaluated per step
        assert trace.count("step.chain-fused") == 0
        assert first == expected
        # the prefix slots were populated and get served on the next query
        with capture() as trace:
            second = mxq.query(self.QUERY, options=FUSED).serialize()
        assert second == expected
        assert trace.count("plan.subplan.hit") >= 1

    def test_fusion_resumes_without_attached_cache(self):
        mxq = MonetXQuery()
        mxq.load_document_text(SMALL_XML, name="auction.xml")
        with capture() as trace:
            mxq.query(self.QUERY, options=FUSED)
        # no cache is attached, so the cacheable marks are not a boundary
        assert trace.count("step.chain-fused") == 1

    def test_cache_boundary_results_match_cacheless_results(self):
        cached = MonetXQuery(subplan_cache=SubplanCache(admission_threshold=1))
        cached.load_document_text(SMALL_XML, name="auction.xml")
        plain = MonetXQuery()
        plain.load_document_text(SMALL_XML, name="auction.xml")
        for query in ["/site/people/person/name", "count(//bidder/increase)",
                      "//person/@id"]:
            for _ in range(2):          # second pass is served from the cache
                assert cached.query(query, options=FUSED).serialize() \
                    == plain.query(query, options=FUSED).serialize(), query


class TestSharedSubplanBoundaries:
    def test_shared_prefix_stays_memoised(self, engine):
        """A path prefix referenced twice is memoised (CSE); the chain must
        not absorb it, and both consumers still agree with the baseline."""
        query = "count(//person/name/text()) + count(//person)"
        with capture() as trace:
            fused = engine.query(query, options=FUSED).items
        per_step = engine.query(query, options=PER_STEP).items
        assert fused == per_step
        assert trace.count("plan.cse.reuse") >= 1
        assert trace.count("step.chain-fused") >= 1


class TestChainEvaluatorContracts:
    def test_chain_requires_two_steps(self):
        from repro.xquery.sequences import sequence_table
        with pytest.raises(ValueError):
            axis_step_chain(sequence_table([]),
                            [(Axis.CHILD, NodeTest(kind="element"))])

    def test_attribute_axis_only_ends_a_chain(self):
        from repro.xquery.sequences import sequence_table
        with pytest.raises(ValueError):
            axis_step_chain(sequence_table([]), [
                (Axis.ATTRIBUTE, NodeTest(kind="attribute")),
                (Axis.CHILD, NodeTest(kind="element")),
            ])


class TestPathNormalForm:
    """``descendant-or-self::node()/child::T`` is built as ``descendant::T``
    while the plan is constructed — a property of the plan, so it holds in
    every execution mode — and only where no predicate makes the two
    differ."""

    @pytest.mark.parametrize("query", [
        XMARK_QUERIES[6], XMARK_QUERIES[7], XMARK_QUERIES[14],
        "count(//item)", "/site//item", "//a//b//c",
        "for $p in /site return count($p//item) + count($p//person)",
    ])
    @pytest.mark.parametrize("options", [FUSED, PER_STEP], ids=["fused", "per-step"])
    def test_slash_slash_is_a_descendant_step(self, engine, query, options):
        dump = engine.explain(query, options=options)
        assert "axis=descendant," in dump
        assert "descendant-or-self" not in dump

    @pytest.mark.parametrize("query, kept", [
        ("//b[1]", "axis=child, test_kind='element', test_name='b'"),
        ("//b[last()]", "axis=child, test_kind='element', test_name='b'"),
        ("/descendant-or-self::node()/child::c[2]",
         "axis=child, test_kind='element', test_name='c'"),
        ("//@id", "axis=attribute"),
        ("//text()[1]", "axis=child, test_kind='text'"),
        ("/a/descendant-or-self::node()", "axis=child"),
    ])
    def test_predicated_and_non_child_shapes_keep_their_plan(self, engine,
                                                             query, kept):
        dump = engine.explain(query)
        assert "axis=descendant-or-self, test_kind='node'" in dump
        assert kept in dump
        assert "axis=descendant," not in dump

    def test_shared_slash_slash_prefix_probes_the_name_index(self, xmark_engine):
        """The Q7 shape: three ``$p//T`` under one ``for`` used to share one
        memoised descendant-or-self step that no chain could absorb."""
        with capture() as trace:
            xmark_engine.query(XMARK_QUERIES[7])
        assert [entry.detail for entry in trace.entries
                if entry.algorithm == "step.pushdown"].count("descendant") == 3


class TestSlashSlashWorkCounts:
    """Counts, not clocks: a ``//T`` under a ``for`` variable or behind the
    server touches about as many rows as it returns — it never enumerates
    the document as a ``descendant-or-self::node()`` context."""

    @pytest.fixture(scope="class")
    def text(self) -> str:
        from repro.xmark import generate_document
        return generate_document(scale=0.004, seed=11)

    @staticmethod
    def assert_probe_sized(trace, matching: int) -> None:
        steps = [entry for entry in trace.entries if entry.operator == "step"]
        assert not [entry for entry in steps
                    if entry.algorithm == "step.materialize"
                    and "descendant-or-self" in entry.detail]
        assert 0 < sum(entry.rows_out for entry in steps) <= 2 * matching

    @pytest.mark.parametrize("query, matched", [
        (XMARK_QUERIES[7], "count(/site) + count(//description)"
                           " + count(//annotation) + count(//emailaddress)"),
        ("for $b in //site/regions return count($b//item)",
         "count(//site) + count(//site/regions) + count(//item)"),
    ])
    def test_embedded(self, text, query, matched):
        mxq = MonetXQuery()
        mxq.load_document_text(text, name="auction.xml")
        matching = mxq.query(matched).items[0]
        with capture() as trace:
            mxq.query(query)
        self.assert_probe_sized(trace, matching)

    def test_behind_the_server(self, text):
        from repro import QueryServer
        with QueryServer(threads=2) as server:
            server.load_document_text(text, name="auction.xml")
            for query in ("count(//item)", "count(//person)"):
                with capture() as trace:
                    matching = server.execute(query).items[0]
                self.assert_probe_sized(trace, matching)
            nodes = server.engine.store.get("auction.xml").node_count
            cache = server.subplan_cache
            assert len(cache) > 0
            assert nodes not in [len(cache.lookup(key))
                                 for key in cache.keys()]
