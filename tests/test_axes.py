"""Per-axis correctness of the window-arithmetic kernels.

Three layers of checking, per axis:

* **producer contract** — every ``ll_*`` array kernel must return rows
  sorted on ``(pre, iter)``, duplicate free, and per-iteration membership
  must equal both the naive O(|context|·|doc|) oracle and the
  per-iteration plain staircase join (the Figure 12 fallback);
* **pushdown equivalence** — the name-index variants must be
  bit-identical to post-filtering the plain kernel;
* **whole queries** — one query per axis (plus attribute-context and
  reverse-positional shapes) must serialize identically across engine
  configurations (vectorized, iterative fallback, pushdown off, fusion
  on/off, untyped columns) and against the tree-walking baseline
  interpreter, and the explain trace must show the default configuration
  never takes the iterative fallback.
"""

from __future__ import annotations

import random

import pytest

from repro import EngineOptions, MonetXQuery
from repro.baselines.interpreter import run_baseline
from repro.relational.explain import capture
from repro.staircase import (Axis, NodeTest, iterative_step, naive_axis,
                             loop_lifted_step_arrays,
                             loop_lifted_step_pushdown)
from repro.xmark import generate_document
from repro.xml import DocumentStore, shred_document
from repro.xml.serializer import serialize_sequence

from conftest import SMALL_XML


AXES = [Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF, Axis.SELF,
        Axis.PARENT, Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF, Axis.FOLLOWING,
        Axis.PRECEDING, Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING]
PUSHDOWN_AXES = [Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF,
                 Axis.FOLLOWING, Axis.PRECEDING, Axis.FOLLOWING_SIBLING,
                 Axis.PRECEDING_SIBLING]

AXIS_IDS = [axis.value for axis in AXES]
PUSHDOWN_IDS = [axis.value for axis in PUSHDOWN_AXES]


@pytest.fixture(scope="module")
def documents():
    store = DocumentStore()
    return [
        shred_document(SMALL_XML, "small.xml", store),
        shred_document(generate_document(scale=0.0012, seed=11),
                       "xmark.xml", store),
    ]


def sampled_contexts(container, rng, samples=4):
    """A few multi-iteration contexts, sorted ``[pre, iter]`` dup-free."""
    count = container.node_count
    contexts = [
        [(0, 1)],
        sorted({(pre, 1) for pre in rng.sample(range(count),
                                               min(8, count))}),
    ]
    for _ in range(samples):
        pairs = {(rng.randrange(count), rng.randint(1, 4))
                 for _ in range(rng.randint(2, 12))}
        contexts.append(sorted(pairs))
    return contexts


# --------------------------------------------------------------------------- #
# layer 1: the shared producer contract
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("axis", AXES, ids=AXIS_IDS)
def test_producer_contract_and_membership_oracle(axis, documents):
    rng = random.Random(52601 + hash(axis.value) % 1000)
    for container in documents:
        for context in sampled_contexts(container, rng):
            iters, pres = loop_lifted_step_arrays(container, context, axis)
            rows = list(zip(pres, iters))
            # contract: sorted (pre, iter), duplicate free
            assert rows == sorted(rows), (axis, context)
            assert len(rows) == len(set(rows)), (axis, context)
            # membership: per iteration, exactly the naive oracle set
            by_iteration: dict[int, list[int]] = {}
            for pre, iteration in context:
                by_iteration.setdefault(iteration, []).append(pre)
            produced: dict[int, list[int]] = {}
            for iteration, pre in zip(iters, pres):
                produced.setdefault(iteration, []).append(pre)
            for iteration, nodes in by_iteration.items():
                expected = naive_axis(container, nodes, axis)
                assert sorted(produced.get(iteration, [])) == expected, (
                    axis, iteration, nodes)
            # and the per-iteration staircase join fallback agrees
            fallback = sorted((pre, iteration) for iteration, pre
                              in iterative_step(container, context, axis))
            assert rows == fallback, (axis, context)


@pytest.mark.parametrize("axis", PUSHDOWN_AXES, ids=PUSHDOWN_IDS)
def test_pushdown_bit_identical_to_post_filter(axis, documents):
    rng = random.Random(20260808)
    names = ["person", "name", "item", "bidder", "text", "keyword"]
    for container in documents:
        for context in sampled_contexts(container, rng, samples=3):
            for name in names:
                node_test = NodeTest(kind="element", name=name)
                pushed = loop_lifted_step_pushdown(container, context, axis,
                                                   node_test)
                if pushed is None:          # name absent from this document
                    continue
                assert pushed == loop_lifted_step_arrays(
                    container, context, axis, node_test), (axis, name)


def test_pushdown_stays_off_for_context_bounded_axes(documents):
    """self/parent/ancestor results are bounded by the context (times
    depth) already — the dispatcher keeps them on the post-filter path."""
    container = documents[0]
    node_test = NodeTest(kind="element", name="person")
    for axis in (Axis.SELF, Axis.PARENT, Axis.ANCESTOR,
                 Axis.ANCESTOR_OR_SELF):
        assert loop_lifted_step_pushdown(container, [(0, 1)], axis,
                                         node_test) is None


# --------------------------------------------------------------------------- #
# layer 2: whole queries across engine configurations vs. the baseline
# --------------------------------------------------------------------------- #
AXIS_QUERIES = [
    # one per axis
    "//person/self::person",
    "//name/self::*",
    "//name/parent::person",
    "//interest/ancestor::person",
    "//interest/ancestor-or-self::node()",
    "//bidder/following::itemref",
    "//current/preceding::bidder",
    "//initial/following-sibling::*",
    "//reserve/preceding-sibling::bidder",
    "//open_auction/child::initial",
    "//person/descendant::interest",
    "//profile/descendant-or-self::node()",
    # reverse-axis positional predicates count in proximity order
    "//increase/ancestor::*[1]",
    "//interest/ancestor::*[2]",
    "//interest/ancestor::*[last()]",
    "//price/preceding::itemref[1]",
    "//reserve/preceding-sibling::*[1]",
    "//current/preceding-sibling::*[last()]",
    "//name/following-sibling::*[1]",
    # attribute context nodes route through the owning element
    "//profile/@income/ancestor::person",
    "//profile/@income/ancestor-or-self::node()",
    "//itemref/@item/parent::*",
    "//itemref/@item/following::name",
    "//interest/@category/preceding::name",
    "//buyer/@person/self::node()",
    "//buyer/@person/descendant-or-self::node()",
    "//profile/@income//node()",
    "//profile/@income//self::node()",
    # loop-lifted shapes: many iterations at once
    "for $b in //bidder return count($b/following-sibling::bidder)",
    "for $n in //name return count($n/ancestor::*)",
    "for $i in //itemref return $i/preceding-sibling::*[1]",
]

CONFIGURATIONS = [
    ("default", EngineOptions()),
    ("iterative-other", EngineOptions(loop_lifted_other=False)),
    ("no-pushdown", EngineOptions(nametest_pushdown=False)),
    ("no-fusion", EngineOptions(step_fusion=False)),
    ("untyped", EngineOptions(typed_columns=False)),
    ("naive-steps", EngineOptions(loop_lifted_child=False,
                                  loop_lifted_descendant=False,
                                  loop_lifted_other=False,
                                  nametest_pushdown=False,
                                  step_fusion=False)),
]


@pytest.fixture(scope="module")
def axis_engine() -> MonetXQuery:
    engine = MonetXQuery()
    engine.load_document_text(SMALL_XML, name="auction.xml")
    return engine


@pytest.fixture(scope="module")
def axis_baseline(axis_engine) -> dict[str, str]:
    return {query: serialize_sequence(
                run_baseline(axis_engine.store, query, "auction.xml"))
            for query in AXIS_QUERIES}


@pytest.mark.parametrize("config_name,options", CONFIGURATIONS,
                         ids=[name for name, _ in CONFIGURATIONS])
def test_axis_queries_bit_identical_to_baseline(axis_engine, axis_baseline,
                                                config_name, options):
    for query in AXIS_QUERIES:
        result = axis_engine.query(query, options=options)
        assert result.serialize() == axis_baseline[query], (
            f"configuration {config_name!r} diverged on:\n{query}")


def test_default_configuration_never_takes_the_iterative_fallback():
    """Every axis executes vectorized under the defaults: the explain trace
    must never record a per-iteration (``step.iterative``) dispatch."""
    for query in AXIS_QUERIES:
        engine = MonetXQuery()
        engine.load_document_text(SMALL_XML, name="auction.xml")
        with capture() as trace:
            engine.query(query)
        assert trace.count("step.iterative") == 0, query


def test_window_axes_use_the_name_index():
    """Name-tested following/preceding/sibling steps take the pushdown
    (candidate bisection) path, not the scan-then-filter path."""
    for query in ("//bidder/following::itemref",
                  "//current/preceding::bidder",
                  "//reserve/preceding-sibling::bidder"):
        engine = MonetXQuery()
        engine.load_document_text(SMALL_XML, name="auction.xml")
        with capture() as trace:
            engine.query(query)
        assert trace.count("step.pushdown") >= 1, query


# --------------------------------------------------------------------------- #
# layer 3: pinned semantics (proximity positions, attribute context)
# --------------------------------------------------------------------------- #
def names_of(result) -> list[str]:
    return [item.name() for item in result.items]


def test_reverse_positional_one_is_the_nearest_ancestor(axis_engine):
    result = axis_engine.query("//increase/ancestor::*[1]",
                               context="auction.xml")
    assert names_of(result) == ["bidder", "bidder"]


def test_reverse_positional_last_is_the_document_root(axis_engine):
    result = axis_engine.query("//interest/ancestor::*[last()]",
                               context="auction.xml")
    assert names_of(result) == ["site"]


def test_preceding_sibling_one_is_the_nearest_left_sibling(axis_engine):
    result = axis_engine.query("//reserve/preceding-sibling::*[1]",
                               context="auction.xml")
    assert names_of(result) == ["current"]


def test_forward_positional_still_counts_in_document_order(axis_engine):
    result = axis_engine.query(
        "//open_auction[1]/following-sibling::*[1]/@id",
        context="auction.xml")
    assert result.serialize() == 'id="open1"'


def test_attribute_context_ancestor_routes_via_the_owner(axis_engine):
    """The ancestors of an attribute are the owner's ancestor-*or-self*
    chain: the owning ``interest`` elements belong to the result."""
    result = axis_engine.query("//interest/@category/ancestor::*",
                               context="auction.xml")
    assert names_of(result) == ["site", "people", "person", "profile",
                                "interest", "person", "profile", "interest"]


def test_attribute_context_ancestor_or_self_includes_the_attribute(
        axis_engine):
    with_self = axis_engine.query(
        "count(//profile/@income/ancestor-or-self::node())",
        context="auction.xml")
    without_self = axis_engine.query(
        "count(//profile/@income/ancestor::node())", context="auction.xml")
    assert int(with_self.serialize()) == int(without_self.serialize()) + 2


def test_attribute_context_siblings_are_empty(axis_engine):
    for axis in ("following-sibling", "preceding-sibling", "child",
                 "descendant"):
        result = axis_engine.query(f"count(//profile/@income/{axis}::node())",
                                   context="auction.xml")
        assert result.serialize() == "0", axis


def test_attribute_context_is_its_own_descendant_or_self():
    """An attribute has no descendants but sits on its own
    descendant-or-self axis — so ``@id//node()`` (which the path normal
    form builds as ``@id/descendant::node()``) stays empty while
    ``@id//self::node()`` is the attribute."""
    engine = MonetXQuery()
    engine.load_document_text('<a id="x"><b/></a>', name="a.xml")
    assert engine.query(
        "count(/a/@id/descendant-or-self::node())").serialize() == "1"
    assert engine.query("count(/a/@id//node())").serialize() == "0"
    assert engine.query("/a/@id//self::node()").serialize() == 'id="x"'
    for query in ("/a/@id/descendant-or-self::node()", "/a/@id//node()",
                  "/a/@id//self::node()"):
        assert engine.query(query).serialize() == serialize_sequence(
            run_baseline(engine.store, query, "a.xml")), query
