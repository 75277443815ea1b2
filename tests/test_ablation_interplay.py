"""Ablation-switch interplay on the XMark suite.

Every rewrite/optimization switch must be *semantics-preserving*: toggling
any one of them off (and characteristic combinations) has to produce
byte-identical serialized results for all twenty XMark queries.  This is
the safety net that lets the cost-based optimizer reorder join clauses and
move predicates without fear.
"""

import pytest

from repro.xmark import XMARK_QUERIES, xmark_query


REWRITE_FLAGS = ["projection_pushdown", "subplan_sharing",
                 "predicate_pushdown", "cost_based_joins", "wcoj"]


def run_serialized(engine, number, options=None):
    engine.reset_transient()
    return engine.query(xmark_query(number), options=options).serialize()


@pytest.fixture(scope="module")
def reference_results(xmark_engine):
    return {number: run_serialized(xmark_engine, number)
            for number in sorted(XMARK_QUERIES)}


@pytest.mark.parametrize("flag", REWRITE_FLAGS)
def test_single_switch_off_preserves_xmark_results(xmark_engine,
                                                   reference_results, flag):
    options = xmark_engine.options.replace(**{flag: False})
    for number in sorted(XMARK_QUERIES):
        assert run_serialized(xmark_engine, number, options) == \
            reference_results[number], f"Q{number} differs with {flag}=False"


def test_all_rewrite_switches_off_preserve_xmark_results(xmark_engine,
                                                         reference_results):
    options = xmark_engine.options.replace(
        **{flag: False for flag in REWRITE_FLAGS})
    for number in sorted(XMARK_QUERIES):
        assert run_serialized(xmark_engine, number, options) == \
            reference_results[number], f"Q{number} differs with all rewrites off"


@pytest.mark.parametrize("pair", [
    ("predicate_pushdown", "cost_based_joins"),
    ("predicate_pushdown", "projection_pushdown"),
    ("cost_based_joins", "subplan_sharing"),
    ("cost_based_joins", "wcoj"),
    ("join_recognition", "wcoj"),
])
def test_pairwise_switches_off_preserve_xmark_results(xmark_engine,
                                                      reference_results, pair):
    options = xmark_engine.options.replace(**{flag: False for flag in pair})
    for number in sorted(XMARK_QUERIES):
        assert run_serialized(xmark_engine, number, options) == \
            reference_results[number], \
            f"Q{number} differs with {pair} off"


def test_join_recognition_off_preserves_join_queries(xmark_engine,
                                                     reference_results):
    # the joins themselves (Q8-Q12) must agree with the nested-loop plans
    options = xmark_engine.options.replace(join_recognition=False)
    for number in (8, 9, 10, 11, 12):
        assert run_serialized(xmark_engine, number, options) == \
            reference_results[number], f"Q{number} differs without joins"
