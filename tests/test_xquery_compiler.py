"""End-to-end evaluation of XQuery expressions through the relational engine."""

import math
import sys
import threading

import pytest

from repro import MonetXQuery
from repro.baselines.interpreter import run_baseline
from repro.errors import (ReproError, XQueryRuntimeError, XQueryTypeError,
                          XQueryUnsupportedError)


def run(engine, query, **kwargs):
    return engine.query(query, **kwargs)


class TestBasics:
    def test_literal(self, engine):
        assert run(engine, "42").items == [42]

    def test_string_literal(self, engine):
        assert run(engine, '"hello"').items == ["hello"]

    def test_sequence_and_nesting(self, engine):
        assert run(engine, "(1, (2, 3), ())").items == [1, 2, 3]

    def test_arithmetic(self, engine):
        assert run(engine, "1 + 2 * 3").items == [7]
        assert run(engine, "7 idiv 2").items == [3]
        assert run(engine, "7 mod 2").items == [1]
        assert run(engine, "-(3 + 1)").items == [-4]

    def test_division_produces_float(self, engine):
        assert run(engine, "7 div 2").items == [3.5]

    @pytest.mark.parametrize("query", [
        "1 div 0", "1 idiv 0", "1 mod 0",
        # no separate xs:double: a float divisor is an xs:decimal, so a
        # 0.0 divisor raises too instead of yielding INF/NaN
        "1 div 0.0", "1.5 mod 0.0", "for $x in (2, 0) return 6 idiv $x",
    ])
    def test_division_by_zero_raises_foar0001(self, engine, query):
        with pytest.raises(XQueryRuntimeError, match="err:FOAR0001"):
            run(engine, query)
        # the oracle shares the arithmetic kernel, so it agrees
        with pytest.raises(XQueryRuntimeError, match="err:FOAR0001"):
            run_baseline(engine.store, query, "auction.xml")

    def test_zero_dividend_is_fine(self, engine):
        assert run(engine, "(0 div 4, 0 idiv 4, 0 mod 4)").items == [0.0, 0, 0]

    def test_range_expression(self, engine):
        assert run(engine, "2 to 5").items == [2, 3, 4, 5]

    def test_value_and_general_comparison(self, engine):
        assert run(engine, "1 eq 1").items == [True]
        assert run(engine, "(1, 2, 3) = 3").items == [True]
        assert run(engine, "(1, 2) = (5, 6)").items == [False]

    def test_if_then_else(self, engine):
        assert run(engine, 'if (1 < 2) then "yes" else "no"').items == ["yes"]

    def test_and_or(self, engine):
        assert run(engine, "1 = 1 and 2 = 3").items == [False]
        assert run(engine, "1 = 1 or 2 = 3").items == [True]

    def test_empty_sequence_result(self, engine):
        assert run(engine, "()").items == []

    def test_unbound_variable_raises(self, engine):
        with pytest.raises(XQueryRuntimeError):
            run(engine, "$nope")


class TestFLWOR:
    def test_simple_for(self, engine):
        assert run(engine, "for $x in (1, 2, 3) return $x * 10").items == [10, 20, 30]

    def test_for_over_empty_sequence(self, engine):
        assert run(engine, "for $x in () return $x").items == []

    def test_let_binding(self, engine):
        assert run(engine, "let $x := (1, 2) return count($x)").items == [2]

    def test_nested_for_produces_cartesian_order(self, engine):
        result = run(engine, 'for $x in (1, 2) for $y in ("a", "b") '
                             'return concat($x, $y)')
        assert result.items == ["1a", "1b", "2a", "2b"]

    def test_where_filters_tuples(self, engine):
        assert run(engine, "for $x in (1, 2, 3, 4) where $x mod 2 = 0 return $x"
                   ).items == [2, 4]

    def test_positional_variable(self, engine):
        result = run(engine, 'for $x at $i in ("a", "b", "c") return $i')
        assert result.items == [1, 2, 3]

    def test_order_by_ascending_descending(self, engine):
        assert run(engine, "for $x in (2, 3, 1) order by $x return $x"
                   ).items == [1, 2, 3]
        assert run(engine, "for $x in (2, 3, 1) order by $x descending return $x"
                   ).items == [3, 2, 1]

    def test_order_by_string_keys(self, engine):
        result = run(engine, 'for $x in ("pear", "apple", "fig") order by $x return $x')
        assert result.items == ["apple", "fig", "pear"]

    def test_for_inside_let_counts_per_binding(self, engine):
        query = ("for $p in (1, 2, 3) "
                 "let $hits := for $q in (1, 2, 3, 4) where $q <= $p return $q "
                 "return count($hits)")
        assert run(engine, query).items == [1, 2, 3]

    def test_declared_variable(self, engine):
        assert run(engine, "declare variable $base := 5; $base * 2").items == [10]

    def test_user_function(self, engine):
        assert run(engine, "declare function local:twice($x) { 2 * $x }; "
                           "local:twice(21)").items == [42]

    def test_recursive_function_rejected(self, engine):
        with pytest.raises(XQueryUnsupportedError):
            run(engine, "declare function local:f($x) { local:f($x) }; local:f(1)")

    def test_quantified_some_every(self, engine):
        assert run(engine, "some $x in (1, 2, 3) satisfies $x > 2").items == [True]
        assert run(engine, "every $x in (1, 2, 3) satisfies $x > 2").items == [False]
        assert run(engine, "every $x in () satisfies $x > 2").items == [True]


class TestPaths:
    def test_child_and_attribute_steps(self, engine):
        result = run(engine, '/site/people/person[@id = "person1"]/name/text()')
        assert result.strings() == ["Bob"]

    def test_descendant_step(self, engine):
        assert run(engine, "count(//person)").items == [3]

    def test_wildcard_step(self, engine):
        assert run(engine, "count(/site/*)").items == [4]

    def test_positional_predicate(self, engine):
        result = run(engine, "/site/open_auctions/open_auction[1]/@id")
        assert result.atomized() == ["open0"]

    def test_last_predicate(self, engine):
        result = run(engine, "for $a in /site/open_auctions/open_auction[1] "
                             "return $a/bidder[last()]/increase/text()")
        assert result.strings() == ["7"]

    def test_boolean_predicate_with_outer_variable(self, engine):
        query = ('for $i in ("item0", "item2") '
                 'return count(/site/closed_auctions/closed_auction[itemref/@item = $i])')
        assert run(engine, query).items == [1, 1]

    def test_parent_and_ancestor_axes(self, engine):
        assert run(engine, "count(//increase/parent::bidder)").items == [2]
        assert run(engine, "count(//increase[1]/ancestor::open_auction)").items == [1]

    def test_following_sibling(self, engine):
        result = run(engine, "/site/people/person[1]/following-sibling::person/@id")
        assert result.atomized() == ["person1", "person2"]

    def test_text_node_step(self, engine):
        assert run(engine, "/site/people/person[1]/name/text()").strings() == ["Alice"]

    def test_path_results_in_document_order_without_duplicates(self, engine):
        result = run(engine, "(//person/.., //person)/name/text()")
        # parent of person is <people>; its name children are the person names
        assert result.strings() == ["Alice", "Bob", "Carol"]

    def test_step_on_atomic_raises(self, engine):
        with pytest.raises(XQueryTypeError):
            run(engine, "for $x in (1, 2) return $x/name")

    def test_doc_function(self, engine):
        assert run(engine, 'count(doc("auction.xml")/site)').items == [1]

    def test_absolute_path_without_context(self):
        empty_engine = MonetXQuery()
        with pytest.raises(XQueryRuntimeError):
            empty_engine.query("/site")


class TestConstructionQueries:
    def test_element_with_attribute_template(self, engine):
        result = run(engine, 'for $p in /site/people/person '
                             'return <p name="{$p/name/text()}"/>')
        assert result.serialize() == ('<p name="Alice"/><p name="Bob"/>'
                                      '<p name="Carol"/>')

    def test_element_content_copies_subtrees(self, engine):
        result = run(engine, "<wrap>{ /site/regions//item[1]/name }</wrap>")
        assert result.serialize() == "<wrap><name>gold watch</name></wrap>"

    def test_atomic_content_becomes_text(self, engine):
        assert run(engine, "<n>{ 1 + 1 }</n>").serialize() == "<n>2</n>"

    def test_text_constructor(self, engine):
        assert run(engine, 'text { "hello" }').serialize() == "hello"

    def test_nested_construction(self, engine):
        result = run(engine, "<a><b>{ count(//person) }</b></a>")
        assert result.serialize() == "<a><b>3</b></a>"


class TestJoinsAndComparisonQueries:
    def test_equi_join_counts(self, engine):
        query = ("for $p in /site/people/person "
                 "let $a := for $t in /site/closed_auctions/closed_auction "
                 "          where $t/buyer/@person = $p/@id return $t "
                 "return count($a)")
        assert run(engine, query).items == [2, 0, 1]

    def test_join_results_identical_with_and_without_recognition(self, engine):
        query = ("for $p in /site/people/person "
                 "let $a := for $t in /site/closed_auctions/closed_auction "
                 "          where $t/buyer/@person = $p/@id return $t "
                 "return count($a)")
        fast = run(engine, query).items
        slow = run(engine, query,
                   options=engine.options.replace(join_recognition=False)).items
        assert fast == slow

    def test_theta_join_with_existential_semantics(self, engine):
        query = ("for $p in /site/people/person "
                 "let $cheap := for $i in /site/open_auctions/open_auction/initial "
                 "              where $p/profile/@income > 100 * exactly-one($i/text()) "
                 "              return $i "
                 "return count($cheap)")
        assert run(engine, query).items == [2, 2, 0]

    def test_general_comparison_existential_on_sequences(self, engine):
        assert run(engine, "(1, 2, 3) < (0, 2)").items == [True]
        assert run(engine, "(5, 6) < (1, 2)").items == [False]



def top_level(call):
    """Run ``call`` at the bottom of a fresh thread's stack — the depth an
    application calling the engine sees, without the test runner's frames."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:       # re-raised in the caller
            outcome["error"] = exc
    thread = threading.Thread(target=target)
    thread.start()
    thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestNestingDepth:
    """Queries nested beyond the interpreter's stack raise a library error
    instead of a raw ``RecursionError``; the depths that run today keep
    running (the executor adds no frames per plan node)."""

    SHAPES = {
        "arithmetic": lambda n: "+".join(["1"] * n),
        "if": lambda n: "if (1) then " * n + "1" + " else 0" * n,
        "constructor": lambda n: "<a>{" * n + "1" + "}</a>" * n,
        "parenthesis": lambda n: "(" * n + "1" + ")" * n,
        "count": lambda n: "count(" * n + "1" + ")" * n,
    }

    @pytest.mark.parametrize("shape,depth", [
        ("arithmetic", 250), ("arithmetic", 300), ("constructor", 80),
        ("parenthesis", 100), ("count", 100),
    ])
    def test_too_deep_raises_repro_error(self, engine, shape, depth):
        query = self.SHAPES[shape](depth)
        with pytest.raises(XQueryUnsupportedError, match="nests too deeply"):
            top_level(lambda: engine.query(query))
        with pytest.raises(ReproError):
            top_level(lambda: engine.explain(query))

    def test_too_deep_module_raises_from_execute(self, engine):
        module = engine.parse(self.SHAPES["arithmetic"](300))
        with pytest.raises(XQueryUnsupportedError, match="nests too deeply"):
            top_level(lambda: engine.execute(module))

    def test_run_time_recursion_is_wrapped(self, engine):
        prepared = top_level(
            lambda: engine.prepare(self.SHAPES["arithmetic"](200)))

        def run_with_a_small_stack():
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(200)
            try:
                return prepared.run()
            finally:
                sys.setrecursionlimit(limit)
        with pytest.raises(XQueryUnsupportedError, match="nests too deeply"):
            top_level(run_with_a_small_stack)

    @pytest.mark.parametrize("shape,depth,expected", [
        ("arithmetic", 200, [200]), ("if", 200, [1]), ("count", 80, [1]),
    ])
    def test_supported_depths_still_run(self, engine, shape, depth,
                                        expected):
        query = self.SHAPES[shape](depth)
        assert top_level(lambda: engine.query(query)).items == expected

    def test_sixty_nested_constructors_still_run(self, engine):
        query = self.SHAPES["constructor"](60)
        assert top_level(lambda: engine.query(query)).serialize() \
            == "<a>" * 60 + "1" + "</a>" * 60
