"""Shared fixtures: small hand-written documents and a tiny XMark instance."""

from __future__ import annotations

import pytest

from repro import EngineOptions, MonetXQuery
from repro.xmark import generate_document
from repro.xml import DocumentStore, shred_document


SMALL_XML = (
    '<site>'
    '  <people>'
    '    <person id="person0"><name>Alice</name>'
    '      <profile income="60000"><interest category="cat1"/></profile></person>'
    '    <person id="person1"><name>Bob</name>'
    '      <profile income="30000"><interest category="cat2"/></profile></person>'
    '    <person id="person2"><name>Carol</name></person>'
    '  </people>'
    '  <open_auctions>'
    '    <open_auction id="open0"><initial>10</initial>'
    '      <bidder><increase>3</increase></bidder>'
    '      <bidder><increase>7</increase></bidder>'
    '      <current>20</current><reserve>15</reserve>'
    '      <itemref item="item0"/></open_auction>'
    '    <open_auction id="open1"><initial>200</initial><current>205</current>'
    '      <itemref item="item1"/></open_auction>'
    '  </open_auctions>'
    '  <closed_auctions>'
    '    <closed_auction><buyer person="person0"/><price>44</price>'
    '      <itemref item="item0"/></closed_auction>'
    '    <closed_auction><buyer person="person0"/><price>12</price>'
    '      <itemref item="item1"/></closed_auction>'
    '    <closed_auction><buyer person="person2"/><price>99</price>'
    '      <itemref item="item2"/></closed_auction>'
    '  </closed_auctions>'
    '  <regions><europe>'
    '    <item id="item0"><name>gold watch</name>'
    '      <description><text>gold watch</text></description></item>'
    '    <item id="item1"><name>silver ring</name>'
    '      <description><text>silver ring</text></description></item>'
    '  </europe></regions>'
    '</site>'
)


@pytest.fixture
def store() -> DocumentStore:
    return DocumentStore()


@pytest.fixture
def small_doc(store):
    """The small auction document as a shredded container."""
    return shred_document(SMALL_XML, "small.xml", store)


@pytest.fixture
def engine() -> MonetXQuery:
    """An engine with the small auction document loaded."""
    mxq = MonetXQuery()
    mxq.load_document_text(SMALL_XML, name="auction.xml")
    return mxq


@pytest.fixture(scope="session")
def xmark_text() -> str:
    """A tiny generated XMark document (deterministic)."""
    return generate_document(scale=0.0012, seed=11)


@pytest.fixture(scope="session")
def xmark_engine(xmark_text) -> MonetXQuery:
    mxq = MonetXQuery()
    mxq.load_document_text(xmark_text, name="auction.xml")
    return mxq


@pytest.fixture
def all_options_off() -> EngineOptions:
    """Engine options with every optimization disabled (naive configuration)."""
    return EngineOptions(
        loop_lifted_child=False,
        loop_lifted_descendant=False,
        loop_lifted_other=False,
        nametest_pushdown=False,
        join_recognition=False,
        order_optimization=False,
        positional_lookup=False,
        existential_aggregates=False,
        projection_pushdown=False,
        subplan_sharing=False,
        predicate_pushdown=False,
        cost_based_joins=False,
        step_fusion=False,
        wcoj=False,
    )
