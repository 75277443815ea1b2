"""What the run-time decides, not only what it returns.

Per query, the number of times each run-time decision fires — CSE reuse,
subplan-cache hits and materialisations, clause-order restoration,
pushed-down binding predicates, the generic join and its sort runs,
projection pushdown — is pinned to literal values.  A refactor of the
executor that keeps results identical but silently stops (or starts)
taking one of these paths fails here.
"""

from __future__ import annotations

import pytest

from repro import MonetXQuery
from repro.relational import capture
from repro.server import QueryServer
from repro.xmark import XMARK_QUERIES

from conftest import SMALL_XML
from test_wcoj import TRIANGLE_N, TRIANGLE_QUERY, triangle_document

ALGORITHMS = ("plan.cse.reuse", "plan.subplan.hit", "plan.subplan.materialize",
              "join.order-restore", "predicate.pushdown", "plan.wcoj",
              "join.sort-runs", "project.pushdown")

#: a cost-reordered FLWOR whose != joins permute the inner loop
REORDERED_FLWOR = ("for $t in /site/closed_auctions/closed_auction "
                   "for $p in /site/people/person "
                   "for $i in /site/regions/europe/item "
                   "where $p/@id != $t/buyer/@person "
                   "  and $i/@id != $t/itemref/@item "
                   "return <r>{ $p/name/text() }{ $i/name/text() }</r>")


def decisions(run, query) -> dict[str, int]:
    with capture() as trace:
        run(query)
    return {algorithm: trace.count(algorithm) for algorithm in ALGORITHMS}


def pinned(counts: dict[str, int] | None = None) -> dict[str, int]:
    """Every algorithm at zero except the given counts."""
    return {**dict.fromkeys(ALGORITHMS, 0), **(counts or {})}


@pytest.mark.parametrize("number,expected", [
    (7, pinned()),                          # shared $p//T: one probe each
    (8, pinned({"join.sort-runs": 1})),
    (9, pinned({"join.sort-runs": 2})),
    (11, pinned()),
    (12, pinned({"plan.cse.reuse": 1, "predicate.pushdown": 1})),
])
def test_xmark_queries(xmark_engine, number, expected):
    assert decisions(xmark_engine.query, XMARK_QUERIES[number]) == expected


def test_wcoj_triangle():
    engine = MonetXQuery()
    engine.load_document_text(triangle_document(TRIANGLE_N), name="tri.xml")
    assert decisions(engine.query, TRIANGLE_QUERY) == pinned({"plan.wcoj": 1})


def test_cost_reordered_flwor(engine):
    assert decisions(engine.query, REORDERED_FLWOR) \
        == pinned({"join.order-restore": 1})


def test_concatenation_without_positions(engine):
    assert decisions(engine.query, "count((/site/people/person, //item))") \
        == pinned({"project.pushdown": 1})


def test_subplan_cache_through_the_server():
    with QueryServer(threads=2) as server:
        server.load_document_text(SMALL_XML, name="auction.xml")
        observed = [decisions(server.execute, query) for query
                    in ("/site/people/person/name", "count(//person)") * 2]
    assert observed == [pinned({"plan.subplan.materialize": 4}),
                        pinned({"plan.subplan.materialize": 1}),
                        pinned({"plan.subplan.hit": 1}),
                        pinned({"plan.subplan.hit": 1})]
