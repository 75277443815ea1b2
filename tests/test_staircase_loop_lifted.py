"""Loop-lifted staircase join: Figure 6/7 behaviour and equivalence with the
iterative execution (one plain staircase join per iteration)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.staircase import (Axis, NodeTest, StaircaseStats, iterative_step,
                             ll_attribute, ll_child, ll_child_pushdown,
                             ll_descendant, ll_descendant_pushdown,
                             loop_lifted_step, loop_lifted_step_pushdown)
from repro.xml import DocumentStore, shred_document


AXES = [Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF, Axis.PARENT,
        Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF, Axis.FOLLOWING, Axis.PRECEDING,
        Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING, Axis.SELF]


def make_doc(xml):
    return shred_document(xml, "doc.xml", DocumentStore())


@pytest.fixture(scope="module")
def doc():
    return make_doc("<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>")


def by_name(doc, name):
    return doc.candidates_by_name(name)[0]


class TestFigure6Child:
    def test_two_iterations_figure7_example(self, doc):
        """Iteration 1 context (a), iteration 2 context (a, f): children of a
        are produced for both iterations, children of f only for iteration 2."""
        a, f = by_name(doc, "a"), by_name(doc, "f")
        context = sorted([(a, 1), (a, 2), (f, 2)])
        result = ll_child(doc, context)
        expected = set()
        for child in doc.children_pre(a):
            expected.add((1, child))
            expected.add((2, child))
        for child in doc.children_pre(f):
            expected.add((2, child))
        assert set(result) == expected
        assert len(result) == len(set(result))

    def test_result_is_pre_major(self, doc):
        a, f = by_name(doc, "a"), by_name(doc, "f")
        result = ll_child(doc, sorted([(a, 1), (a, 2), (f, 2)]))
        pres = [pre for _, pre in result]
        assert pres == sorted(pres)

    def test_single_iteration_equals_plain_child(self, doc):
        from repro.staircase import staircase_join
        a = by_name(doc, "a")
        ll = [pre for _, pre in ll_child(doc, [(a, 1)])]
        assert ll == staircase_join(doc, [a], Axis.CHILD)

    def test_empty_context(self, doc):
        assert ll_child(doc, []) == []


class TestDescendantPruning:
    def test_nested_contexts_same_iteration_are_pruned(self, doc):
        """b and its descendant c in the same iteration must not duplicate."""
        b, c = by_name(doc, "b"), by_name(doc, "c")
        stats = StaircaseStats()
        result = ll_descendant(doc, sorted([(b, 1), (c, 1)]), stats=stats)
        assert len(result) == len(set(result))
        assert stats.contexts_pruned == 1
        assert {pre for _, pre in result} == set(doc.descendants_pre(b))

    def test_nested_contexts_different_iterations_not_pruned(self, doc):
        b, c = by_name(doc, "b"), by_name(doc, "c")
        result = ll_descendant(doc, sorted([(b, 1), (c, 2)]))
        assert (1, c) in result          # c is a descendant of b in iteration 1
        assert (2, c) not in result      # but not of itself in iteration 2

    def test_or_self_includes_context(self, doc):
        c = by_name(doc, "c")
        result = ll_descendant(doc, [(c, 1)], or_self=True)
        assert (1, c) in result


class TestEquivalenceWithIterative:
    @pytest.mark.parametrize("axis", AXES)
    def test_loop_lifted_matches_iterative(self, doc, axis):
        rng = random.Random(hash(axis.value) % 1000)
        pairs = sorted({(rng.randrange(doc.node_count), iteration)
                        for iteration in (1, 2, 3)
                        for _ in range(4)})
        lifted = set(loop_lifted_step(doc, pairs, axis))
        iterated = set(iterative_step(doc, pairs, axis))
        assert lifted == iterated

    @pytest.mark.parametrize("axis", AXES)
    def test_name_test_applied_equally(self, doc, axis):
        pairs = [(0, 1), (by_name(doc, "f"), 2)]
        test = NodeTest(kind="element", name="h")
        assert set(loop_lifted_step(doc, pairs, axis, test)) == \
            set(iterative_step(doc, pairs, axis, test))

    def test_results_unique_per_iteration(self, doc):
        pairs = sorted({(pre, it) for it in (1, 2) for pre in range(doc.node_count)})
        for axis in AXES:
            result = loop_lifted_step(doc, pairs, axis)
            assert len(result) == len(set(result)), axis


class TestPushdown:
    def test_child_pushdown_matches_postfilter(self, doc):
        a, f = by_name(doc, "a"), by_name(doc, "f")
        pairs = sorted([(a, 1), (f, 2)])
        test = NodeTest(kind="element", name="h")
        candidates = doc.candidates_by_name("h")
        pushed = set(zip(*ll_child_pushdown(doc, pairs, candidates)))
        plain = set(loop_lifted_step(doc, pairs, Axis.CHILD, test))
        assert pushed == plain

    def test_descendant_pushdown_matches_postfilter(self, doc):
        pairs = [(0, 1), (by_name(doc, "b"), 2)]
        test = NodeTest(kind="element", name="e")
        candidates = doc.candidates_by_name("e")
        pushed = set(zip(*ll_descendant_pushdown(doc, pairs, candidates)))
        plain = set(loop_lifted_step(doc, pairs, Axis.DESCENDANT, test))
        assert pushed == plain

    def test_pushdown_dispatch_returns_none_without_name(self, doc):
        result = loop_lifted_step_pushdown(doc, [(0, 1)], Axis.CHILD,
                                           NodeTest(kind="node"))
        assert result is None

    def test_pushdown_dispatch_returns_none_for_reverse_axes(self, doc):
        result = loop_lifted_step_pushdown(doc, [(3, 1)], Axis.ANCESTOR,
                                           NodeTest(kind="element", name="a"))
        assert result is None


class TestAttributeStep:
    def test_attributes_per_iteration(self):
        doc = make_doc('<a x="1"><b x="2"/></a>')
        pairs = sorted([(1, 1), (2, 1), (2, 2)])
        result = ll_attribute(doc, pairs, "x")
        assert len(result) == 3
        assert {iteration for iteration, _ in result} == {1, 2}


@given(st.integers(0, 100000))
@settings(max_examples=40, deadline=None)
def test_loop_lifted_equivalence_random_trees(seed):
    rng = random.Random(seed)

    def subtree(depth):
        name = rng.choice("abc")
        if depth > 3 or rng.random() < 0.4:
            return f"<{name}/>"
        children = "".join(subtree(depth + 1) for _ in range(rng.randint(1, 3)))
        return f"<{name}>{children}</{name}>"

    doc = make_doc(f"<r>{subtree(0)}{subtree(0)}</r>")
    pairs = sorted({(rng.randrange(doc.node_count), rng.randint(1, 3))
                    for _ in range(6)})
    for axis in (Axis.CHILD, Axis.DESCENDANT, Axis.ANCESTOR, Axis.FOLLOWING):
        assert set(loop_lifted_step(doc, pairs, axis)) == \
            set(iterative_step(doc, pairs, axis))
