"""Differential harness: relational engine vs. tree-walking baseline.

A seeded random generator produces FLWOR / path / predicate / aggregate
queries over small XMark-shaped documents; every query is evaluated by the
relational engine under

* the default configuration,
* every **single-switch** ablation of :class:`EngineOptions`, and
* a seeded random sample of multi-switch combinations,

and cross-checked against the conventional tree-walking interpreter
(:mod:`repro.baselines.interpreter`), which shares the storage layer but
none of the relational execution machinery.  The serialized result
sequences must be identical — the optimizer switches may change *how* a
query runs, never *what* it returns.
"""

from __future__ import annotations

import dataclasses
import random
import re

import pytest

from repro import EngineOptions, MonetXQuery
from repro.baselines.interpreter import run_baseline
from repro.xml.serializer import serialize_sequence

from conftest import SMALL_XML


OPTION_NAMES = [f.name for f in dataclasses.fields(EngineOptions)]

#: generator + sampling seeds are fixed so CI failures are reproducible
GENERATOR_SEED = 20260728
COMBINATION_SEED = 4242
QUERY_COUNT = 14
COMBINATION_COUNT = 6


# --------------------------------------------------------------------------- #
# the random query generator
# --------------------------------------------------------------------------- #
class QueryGenerator:
    """Seeded random queries in the subset both engines implement.

    The vocabulary is tied to the fixture document's shape (tags,
    attributes, value ranges), so generated predicates are selective but
    usually non-empty — empty-result queries are still produced and are
    fine, they must simply agree across engines.
    """

    ABSOLUTE_PATHS = [
        "/site/people/person",
        "/site/open_auctions/open_auction",
        "/site/closed_auctions/closed_auction",
        "/site/regions/europe/item",
        "/site/regions",
        "//person",
        "//item",
        "/site//increase",
        "//price",
    ]
    RELATIVE_PATHS = {
        "/site/people/person": ["name/text()", "@id", "profile/@income",
                                "profile/interest/@category", "name"],
        "/site/open_auctions/open_auction":
            ["@id", "initial/text()", "bidder/increase/text()",
             "current/text()", "itemref/@item"],
        "/site/closed_auctions/closed_auction":
            ["price/text()", "buyer/@person", "itemref/@item"],
        "/site/regions/europe/item": ["@id", "name/text()",
                                      "description//text()"],
        "/site/regions": ["europe/item/name/text()", "europe/item/@id"],
        "//person": ["name/text()", "@id"],
        "//item": ["name/text()", "@id"],
        "/site//increase": ["text()"],
        "//price": ["text()"],
    }

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def query(self) -> str:
        kind = self.rng.choice(["path", "path", "aggregate", "flwor",
                                "flwor", "flwor_where", "flwor_where",
                                "join", "quantified", "order_by"])
        return getattr(self, f"_gen_{kind}")()

    # -- building blocks ------------------------------------------------- #
    def _abs_path(self) -> str:
        return self.rng.choice(self.ABSOLUTE_PATHS)

    def _rel_path(self, base: str) -> str:
        return self.rng.choice(self.RELATIVE_PATHS[base])

    def _predicate(self, base: str) -> str:
        choices = [
            "[1]", "[2]", "[last()]",
            '[@id = "person0"]' if "person" in base else "[1]",
            "[price/text() >= 40]" if "closed" in base else "[name]",
        ]
        return self.rng.choice(choices)

    # -- query templates -------------------------------------------------- #
    def _gen_path(self) -> str:
        base = self._abs_path()
        if self.rng.random() < 0.5:
            return base + self._predicate(base)
        return f"{base}/{self._rel_path(base)}"

    def _gen_aggregate(self) -> str:
        base = self._abs_path()
        function = self.rng.choice(["count", "count", "exists", "empty"])
        if function == "count" and self.rng.random() < 0.4:
            return f"count({base}{self._predicate(base)})"
        return f"{function}({base})"

    def _gen_flwor(self) -> str:
        base = self._abs_path()
        returns = [
            f"$x/{self._rel_path(base)}",
            f"count($x/{self._rel_path(base)})",
            f'<r v="{{$x/{self._rel_path(base)}}}"/>',
            "<r>{ $x }</r>" if self.rng.random() < 0.2 else "$x",
        ]
        return (f"for $x in {base} "
                f"return {self.rng.choice(returns)}")

    def _gen_flwor_where(self) -> str:
        base = self._abs_path()
        conditions = {
            "/site/people/person": [
                '$x/@id = "person0"', '$x/profile/@income >= 40000',
                'empty($x/profile)', 'exists($x/profile/interest)'],
            "/site/open_auctions/open_auction": [
                '$x/initial/text() >= 100', 'count($x/bidder) >= 2',
                'exists($x/reserve)'],
            "/site/closed_auctions/closed_auction": [
                '$x/price/text() >= 40', '$x/buyer/@person = "person0"'],
            "/site/regions/europe/item": [
                'contains($x/name/text(), "gold")', 'exists($x/description)'],
        }
        condition_pool = conditions.get(base)
        if condition_pool is None:
            base = "/site/people/person"
            condition_pool = conditions[base]
        condition = self.rng.choice(condition_pool)
        if self.rng.random() < 0.3:
            condition += " and " + self.rng.choice(condition_pool)
        return (f"for $x in {base} where {condition} "
                f"return $x/{self._rel_path(base)}")

    def _gen_join(self) -> str:
        templates = [
            # Q8 shape: buyer joined to person id
            ("for $p in /site/people/person "
             "let $a := for $t in /site/closed_auctions/closed_auction "
             "where $t/buyer/@person = $p/@id return $t "
             'return <n id="{$p/@id}">{ count($a) }</n>'),
            # item reference join
            ("for $i in /site/regions/europe/item "
             "let $c := for $t in /site/closed_auctions/closed_auction "
             "where $t/itemref/@item = $i/@id return $t "
             "return count($c)"),
            # value join in the where clause directly
            ("for $p in /site/people/person "
             "for $t in /site/closed_auctions/closed_auction "
             'where $t/buyer/@person = $p/@id '
             "return $t/price/text()"),
            # inequality join (existential aggregates path)
            ("for $p in /site/people/person "
             "let $l := for $i in /site/open_auctions/open_auction/initial "
             "where $p/profile/@income > 5 * $i/text() return $i "
             "return count($l)"),
        ]
        return self.rng.choice(templates)

    def _gen_quantified(self) -> str:
        templates = [
            ("for $a in /site/open_auctions/open_auction "
             "where some $b in $a/bidder satisfies $b/increase/text() >= 5 "
             "return $a/@id"),
            ("for $p in /site/people/person "
             "where every $i in $p/profile/interest "
             'satisfies exists($i/@category) '
             "return $p/name/text()"),
            ("count(for $a in /site/closed_auctions/closed_auction "
             "where some $r in $a/itemref satisfies $r/@item = \"item0\" "
             "return $a)"),
        ]
        return self.rng.choice(templates)

    def _gen_order_by(self) -> str:
        base = self.rng.choice(["/site/people/person",
                                "/site/closed_auctions/closed_auction",
                                "/site/regions/europe/item"])
        keys = {
            "/site/people/person": "$x/name/text()",
            "/site/closed_auctions/closed_auction": "$x/price/text()",
            "/site/regions/europe/item": "$x/name/text()",
        }
        direction = self.rng.choice(["ascending", "descending"])
        return (f"for $x in {base} order by {keys[base]} {direction} "
                f"return $x/{self._rel_path(base)}")


def generated_queries() -> list[str]:
    generator = QueryGenerator(GENERATOR_SEED)
    queries: list[str] = []
    seen: set[str] = set()
    while len(queries) < QUERY_COUNT:
        query = generator.query()
        if query not in seen:
            seen.add(query)
            queries.append(query)
    return queries


# --------------------------------------------------------------------------- #
# the path-chain fuzzer (step-chain fusion differential coverage)
# --------------------------------------------------------------------------- #
CHAIN_SEED = 52601
CHAIN_COUNT = 30
CHAIN_COMBINATION_COUNT = 4


class PathChainFuzzer:
    """Seeded random 2–5-step path chains over the fixture vocabulary.

    Chains mix child (``/``) and descendant (``//``) separators, *named*
    axis steps over the full axis vocabulary (ancestor, following,
    preceding, the sibling axes, self, parent...), element name tests
    (including ``*`` and ``text()``), attribute steps — both terminal and
    *continued* (``@id/ancestor::*``: the attribute node becomes the
    context of a further step), and optional positional / name predicates.
    Positional predicates land on reverse-axis steps too, where
    ``position()`` counts in proximity rather than document order.
    Predicates deliberately appear on *interior* steps as well: a general
    predicate breaks the fusable chain there, so the generated corpus
    exercises fused chains, unfused chains and mixed fused/unfused
    segments of one path.
    """

    TAGS = ["site", "people", "person", "name", "profile", "interest",
            "open_auctions", "open_auction", "bidder", "increase", "initial",
            "current", "reserve", "itemref", "closed_auctions",
            "closed_auction", "buyer", "price", "regions", "europe", "item",
            "description"]
    ATTRIBUTES = ["id", "income", "category", "person", "item"]
    PREDICATES = ["[1]", "[2]", "[last()]", "[name]", "[@id]"]
    POSITIONAL = ["[1]", "[2]", "[last()]"]
    AXES = ["self", "child", "parent", "ancestor", "ancestor-or-self",
            "descendant", "descendant-or-self", "following", "preceding",
            "following-sibling", "preceding-sibling"]
    REVERSE_AXES = {"parent", "ancestor", "ancestor-or-self", "preceding",
                    "preceding-sibling"}
    # the axes XPath defines for attribute context nodes (via the owner)
    ATTRIBUTE_AXES = ["self", "parent", "ancestor", "ancestor-or-self",
                      "following", "preceding"]

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def _name_test(self) -> str:
        roll = self.rng.random()
        if roll < 0.72:
            return self.rng.choice(self.TAGS)
        if roll < 0.88:
            return "*"
        return "text()"

    def _axis_step(self, axis: str) -> str:
        test = "node()" if self.rng.random() < 0.18 else self._name_test()
        step = f"/{axis}::{test}"
        if test != "text()" and self.rng.random() < 0.3:
            predicates = self.POSITIONAL if axis in self.REVERSE_AXES \
                else self.PREDICATES
            step += self.rng.choice(predicates)
        return step

    def chain(self) -> str:
        depth = self.rng.randint(2, 5)
        parts: list[str] = []
        position = 0
        while position < depth:
            is_last = position == depth - 1
            if position > 0 and is_last and self.rng.random() < 0.25:
                parts.append(f"/@{self.rng.choice(self.ATTRIBUTES)}")
                if self.rng.random() < 0.5:
                    # attribute-context continuation: the attribute node
                    # itself is the context of the next step
                    parts.append(self._axis_step(
                        self.rng.choice(self.ATTRIBUTE_AXES)))
                position += 1
                continue
            if position == 0 or self.rng.random() < 0.62:
                separator = "/" if self.rng.random() < 0.55 else "//"
                step = self._name_test()
                if step != "text()" and self.rng.random() < 0.25:
                    step += self.rng.choice(self.PREDICATES)
                parts.append(separator + step)
            else:
                parts.append(self._axis_step(self.rng.choice(self.AXES)))
            position += 1
        query = "".join(parts)
        if self.rng.random() < 0.35:
            return f"count({query})"
        return query


def generated_chain_queries() -> list[str]:
    fuzzer = PathChainFuzzer(CHAIN_SEED)
    queries: list[str] = []
    seen: set[str] = set()
    while len(queries) < CHAIN_COUNT:
        query = fuzzer.chain()
        if query not in seen:
            seen.add(query)
            queries.append(query)
    return queries


def chain_configurations() -> list[tuple[str, EngineOptions]]:
    """Fusion on/off plus sampled multi-switch combos that flip it."""
    configurations: list[tuple[str, EngineOptions]] = [
        ("default", EngineOptions()),
        ("no-step_fusion", EngineOptions(step_fusion=False)),
    ]
    rng = random.Random(CHAIN_SEED + 1)
    for index in range(CHAIN_COMBINATION_COUNT):
        flipped = set(rng.sample(OPTION_NAMES,
                                 rng.randint(2, len(OPTION_NAMES) - 1)))
        # half the combos keep fusion on against other disabled rewrites,
        # half turn it off together with them
        if index % 2 == 0:
            flipped.discard("step_fusion")
        else:
            flipped.add("step_fusion")
        configurations.append(
            (f"chain-combo-{index}",
             EngineOptions(**{name: False for name in flipped})))
    return configurations


# --------------------------------------------------------------------------- #
# shared `//` prefixes (the XMark Q7 shape)
# --------------------------------------------------------------------------- #
SHARED_PREFIX_SEED = 71707
SHARED_PREFIX_COUNT = 12


def generated_shared_prefix_queries() -> list[str]:
    """One ``for`` variable whose ``//`` prefix feeds two or three consumers.

    Common-subexpression sharing used to mark the consumers' common
    ``descendant-or-self::node()`` step, which kept it out of every fused
    chain; the corpus pins the shape down under sharing, caching and every
    switch — name, wildcard, kind-test, attribute and positional consumers
    (the last two must keep the per-context ``//`` semantics)."""
    rng = random.Random(SHARED_PREFIX_SEED)
    bases = ["/site", "/site/regions", "/site/people/person", "//open_auction",
             "/site/*", "/site/regions//item"]
    tests = PathChainFuzzer.TAGS + ["*", "text()", "node()", "@id",
                                    "name[1]", "bidder[last()]"]
    queries: list[str] = []
    while len(queries) < SHARED_PREFIX_COUNT:
        consumers = [f"$p//{test}"
                     for test in rng.sample(tests, rng.randint(2, 3))]
        if rng.random() < 0.5:
            body = " + ".join(f"count({path})" for path in consumers)
        else:
            body = "(" + ", ".join(consumers) + ")"
        query = f"for $p in {rng.choice(bases)} return {body}"
        if query not in queries:
            queries.append(query)
    return queries


# --------------------------------------------------------------------------- #
# the multi-join fuzzer (worst-case-optimal join differential coverage)
# --------------------------------------------------------------------------- #
JOIN_SEED = 60301
JOIN_COUNT = 16
JOIN_COMBINATION_COUNT = 4
JOIN_COUNT_LONG = 48


class MultiJoinFuzzer:
    """Seeded random multi-``for`` FLWOR value joins (2–4 variables).

    Every variable binds a loop-invariant absolute path (including an
    always-empty one); ``eq`` conjuncts connect all variables into one
    component, so the 3- and 4-way shapes qualify for the WCOJ rewrite.
    Conjunct sides draw from numeric text, string and deliberately *mixed*
    domains (attribute vs. numeric text), and the fixture data carries
    duplicate join values (two closed auctions share a buyer) — exactly the
    per-pair-typing and dedup corners where join strategies historically
    diverged.  An extra random conjunct occasionally closes a cycle
    (triangle shapes).
    """

    SOURCES = [
        ("/site/people/person",
         [("@id", "str"), ("name/text()", "str"),
          ("profile/@income", "num"),
          ("profile/interest/@category", "str")]),
        ("/site/closed_auctions/closed_auction",
         [("buyer/@person", "str"), ("itemref/@item", "str"),
          ("price/text()", "num")]),
        ("/site/open_auctions/open_auction",
         [("@id", "str"), ("itemref/@item", "str"),
          ("initial/text()", "num"), ("current/text()", "num"),
          ("bidder/increase/text()", "num")]),
        ("/site/regions/europe/item",
         [("@id", "str"), ("name/text()", "str")]),
        ("/site/regions/africa/item",           # always-empty input
         [("@id", "str")]),
    ]

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def _attribute(self, source, domain: str | None = None) -> str:
        pool = [attribute for attribute, kind in source[1]
                if domain is None or kind == domain]
        if not pool:
            pool = [attribute for attribute, _ in source[1]]
        return self.rng.choice(pool)

    def _conjunct(self, sources, left: int, right: int) -> str:
        domain = self.rng.choice(["str", "num", None])   # None = mixed
        left_attribute = self._attribute(sources[left], domain)
        right_attribute = self._attribute(sources[right], domain)
        return f"$v{left}/{left_attribute} = $v{right}/{right_attribute}"

    def query(self) -> str:
        count = self.rng.randint(2, 4)
        sources = [self.rng.choice(self.SOURCES) for _ in range(count)]
        clauses = " ".join(f"for $v{index} in {source[0]}"
                           for index, source in enumerate(sources))
        conjuncts = []
        for index in range(1, count):
            conjuncts.append(
                self._conjunct(sources, index, self.rng.randrange(index)))
        if count >= 3 and self.rng.random() < 0.4:
            extra = self.rng.sample(range(count), 2)
            conjuncts.append(self._conjunct(sources, extra[0], extra[1]))
        where = " and ".join(conjuncts)
        last = count - 1
        body = self.rng.choice([
            f"$v0/{self._attribute(sources[0])}",
            f"<j>{{$v{last}/{self._attribute(sources[last])}}}</j>",
        ])
        query = f"{clauses} where {where} return {body}"
        if self.rng.random() < 0.4:
            return f"count({query})"
        return query


def generated_join_queries(count: int = JOIN_COUNT) -> list[str]:
    fuzzer = MultiJoinFuzzer(JOIN_SEED)
    queries: list[str] = []
    seen: set[str] = set()
    while len(queries) < count:
        query = fuzzer.query()
        if query not in seen:
            seen.add(query)
            queries.append(query)
    return queries


def join_configurations() -> list[tuple[str, EngineOptions]]:
    """wcoj on/off (plus pairwise recognition off) and sampled combos."""
    configurations: list[tuple[str, EngineOptions]] = [
        ("default", EngineOptions()),
        ("no-wcoj", EngineOptions(wcoj=False)),
        ("no-join_recognition", EngineOptions(join_recognition=False)),
    ]
    rng = random.Random(JOIN_SEED + 1)
    for index in range(JOIN_COMBINATION_COUNT):
        flipped = set(rng.sample(OPTION_NAMES,
                                 rng.randint(2, len(OPTION_NAMES) - 1)))
        # half the combos keep wcoj on against other disabled rewrites,
        # half turn it off together with them
        if index % 2 == 0:
            flipped.discard("wcoj")
        else:
            flipped.add("wcoj")
        configurations.append(
            (f"join-combo-{index}",
             EngineOptions(**{name: False for name in flipped})))
    return configurations


def option_configurations() -> list[tuple[str, EngineOptions]]:
    """Default + every single-switch ablation + sampled combinations."""
    configurations: list[tuple[str, EngineOptions]] = [
        ("default", EngineOptions())]
    for name in OPTION_NAMES:
        configurations.append(
            (f"no-{name}", EngineOptions(**{name: False})))
    rng = random.Random(COMBINATION_SEED)
    for index in range(COMBINATION_COUNT):
        flipped = rng.sample(OPTION_NAMES, rng.randint(2, len(OPTION_NAMES)))
        configurations.append(
            (f"combo-{index}", EngineOptions(**{name: False
                                                for name in flipped})))
    configurations.append(
        ("all-off", EngineOptions(**{name: False for name in OPTION_NAMES})))
    return configurations


# --------------------------------------------------------------------------- #
# the cross-check
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def differential_engine() -> MonetXQuery:
    engine = MonetXQuery()
    engine.load_document_text(SMALL_XML, name="auction.xml")
    return engine


@pytest.fixture(scope="module")
def baseline_results(differential_engine) -> dict[str, str]:
    """The oracle: every generated query run once by the interpreter."""
    oracle: dict[str, str] = {}
    for query in generated_queries():
        items = run_baseline(differential_engine.store, query, "auction.xml")
        oracle[query] = serialize_sequence(items)
    return oracle


@pytest.mark.parametrize("config_name,options", option_configurations(),
                         ids=[name for name, _ in option_configurations()])
def test_differential_against_baseline(differential_engine, baseline_results,
                                       config_name, options):
    for query in generated_queries():
        result = differential_engine.query(query, options=options)
        assert result.serialize() == baseline_results[query], (
            f"configuration {config_name!r} diverged from the baseline "
            f"interpreter on:\n{query}")


def test_generator_is_deterministic():
    assert generated_queries() == generated_queries()
    assert len(generated_queries()) == QUERY_COUNT


def test_typed_columns_switch_is_ablated():
    """The vectorization switch must be part of the harness: a single-switch
    ``no-typed_columns`` configuration and membership in the sampled
    multi-switch combinations (OPTION_NAMES is derived from the dataclass
    fields, so this guards against the switch being renamed away)."""
    assert "typed_columns" in OPTION_NAMES
    names = [name for name, _ in option_configurations()]
    assert "no-typed_columns" in names


def test_typed_kernels_bit_identical_to_list_baseline(differential_engine,
                                                      baseline_results):
    """typed_columns=True (the default) and the list-representation baseline
    must serialize identically on every generated query — the typed kernels
    may change *how* results are computed, never their bytes."""
    typed = EngineOptions(typed_columns=True)
    listy = EngineOptions(typed_columns=False)
    for query in generated_queries():
        typed_result = differential_engine.query(query, options=typed)
        list_result = differential_engine.query(query, options=listy)
        assert typed_result.serialize() == list_result.serialize() \
            == baseline_results[query], query


@pytest.fixture(scope="module")
def chain_baseline_results(differential_engine) -> dict[str, str]:
    """The oracle for the path-chain fuzzer corpus."""
    oracle: dict[str, str] = {}
    for query in generated_chain_queries():
        items = run_baseline(differential_engine.store, query, "auction.xml")
        oracle[query] = serialize_sequence(items)
    return oracle


@pytest.mark.parametrize("config_name,options", chain_configurations(),
                         ids=[name for name, _ in chain_configurations()])
def test_path_chains_against_baseline(differential_engine,
                                      chain_baseline_results,
                                      config_name, options):
    for query in generated_chain_queries():
        result = differential_engine.query(query, options=options)
        assert result.serialize() == chain_baseline_results[query], (
            f"configuration {config_name!r} diverged from the baseline "
            f"interpreter on:\n{query}")


def test_chain_fuzzer_is_deterministic():
    assert generated_chain_queries() == generated_chain_queries()
    assert len(generated_chain_queries()) == CHAIN_COUNT


def test_chain_fuzzer_covers_the_chain_shapes():
    queries = "\n".join(generated_chain_queries())
    assert "//" in queries                    # descendant separators
    assert "/@" in queries or "//@" in queries  # attribute final steps
    assert "[last()]" in queries or "[1]" in queries or "[2]" in queries
    assert "count(" in queries
    assert "*" in queries
    # named-axis vocabulary: forward, reverse and sibling window axes
    assert "ancestor" in queries
    assert "following" in queries or "preceding" in queries
    assert "sibling::" in queries
    # a reverse-axis step carrying a proximity-order positional predicate
    assert re.search(
        r"(ancestor-or-self|ancestor|preceding-sibling|preceding|parent)"
        r"::[\w*()-]+\[(1|2|last\(\))\]", queries)
    # an attribute-context continuation: a step *after* an attribute
    assert re.search(r"@\w+/", queries)


def test_step_fusion_switch_is_ablated():
    """``step_fusion`` must be part of the generic harness: OPTION_NAMES is
    derived from the dataclass fields, so the single-switch configuration
    and the sampled combinations pick it up automatically."""
    assert "step_fusion" in OPTION_NAMES
    names = [name for name, _ in option_configurations()]
    assert "no-step_fusion" in names
    chain_names = [name for name, _ in chain_configurations()]
    assert "no-step_fusion" in chain_names


def test_fused_chains_bit_identical_to_per_step_baseline(
        differential_engine, chain_baseline_results):
    """step_fusion=True (the default) and the per-step baseline must
    serialize identically on every fuzzed chain — fusion may change *how*
    a path runs, never its bytes."""
    fused = EngineOptions(step_fusion=True)
    per_step = EngineOptions(step_fusion=False)
    for query in generated_chain_queries():
        fused_result = differential_engine.query(query, options=fused)
        per_step_result = differential_engine.query(query, options=per_step)
        assert fused_result.serialize() == per_step_result.serialize() \
            == chain_baseline_results[query], query


@pytest.fixture(scope="module")
def shared_prefix_baseline_results(differential_engine) -> dict[str, str]:
    """The oracle for the shared-``//``-prefix corpus."""
    return {query: serialize_sequence(run_baseline(
                differential_engine.store, query, "auction.xml"))
            for query in generated_shared_prefix_queries()}


@pytest.mark.parametrize("config_name,options", option_configurations(),
                         ids=[name for name, _ in option_configurations()])
def test_shared_slash_slash_prefixes_against_baseline(
        differential_engine, shared_prefix_baseline_results,
        config_name, options):
    for query, expected in shared_prefix_baseline_results.items():
        result = differential_engine.query(query, options=options)
        assert result.serialize() == expected, (
            f"configuration {config_name!r} diverged from the baseline "
            f"interpreter on:\n{query}")


def test_shared_prefix_corpus_has_the_q7_shape():
    queries = generated_shared_prefix_queries()
    assert queries == generated_shared_prefix_queries()
    assert all(query.count("$p//") >= 2 for query in queries)
    assert any("count(" in query for query in queries)
    assert any("[1]" in query or "[last()]" in query or "@id" in query
               for query in queries)


def test_path_corpora_through_the_server(chain_baseline_results,
                                         shared_prefix_baseline_results):
    """The path normal form must hold behind the server too, where every
    absolute ``//`` intermediate used to be a cache-marked chain boundary:
    both path corpora run through ``QueryServer(threads=2)`` with its
    subplan cache attached and must match the interpreter."""
    from repro.server import QueryServer

    with QueryServer(threads=2) as server:
        server.load_document_text(SMALL_XML, name="auction.xml")
        assert server.subplan_cache is not None
        for query, expected in {**chain_baseline_results,
                                **shared_prefix_baseline_results}.items():
            assert server.execute(query).serialize() == expected, query


@pytest.fixture(scope="module")
def join_baseline_results(differential_engine) -> dict[str, str]:
    """The oracle for the multi-join fuzzer corpus."""
    oracle: dict[str, str] = {}
    for query in generated_join_queries():
        items = run_baseline(differential_engine.store, query, "auction.xml")
        oracle[query] = serialize_sequence(items)
    return oracle


@pytest.mark.parametrize("config_name,options", join_configurations(),
                         ids=[name for name, _ in join_configurations()])
def test_multi_joins_against_baseline(differential_engine,
                                      join_baseline_results,
                                      config_name, options):
    for query in generated_join_queries():
        result = differential_engine.query(query, options=options)
        assert result.serialize() == join_baseline_results[query], (
            f"configuration {config_name!r} diverged from the baseline "
            f"interpreter on:\n{query}")


def test_join_fuzzer_is_deterministic():
    assert generated_join_queries() == generated_join_queries()
    assert len(generated_join_queries()) == JOIN_COUNT


def test_join_fuzzer_covers_the_join_shapes():
    queries = generated_join_queries()
    text = "\n".join(queries)
    assert any(query.count("for $") >= 3 for query in queries)  # >= 3-way
    assert "africa" in text                    # an always-empty input
    assert "buyer/@person" in text             # duplicates in the data
    assert "price/text()" in text or "initial/text()" in text  # numeric
    assert "count(" in text


def test_join_fuzzer_exercises_wcoj(differential_engine):
    """At least one fuzzed shape must actually take the generic-join path
    (guards the corpus against drifting away from the recognition rule)."""
    from repro.relational import capture
    hits = 0
    for query in generated_join_queries():
        with capture() as trace:
            differential_engine.query(query)
        hits += trace.count("plan.wcoj")
    assert hits > 0


def test_wcoj_switch_is_ablated():
    """``wcoj`` must be part of the generic harness: OPTION_NAMES is derived
    from the dataclass fields, so the single-switch configuration and the
    sampled combinations pick it up automatically."""
    assert "wcoj" in OPTION_NAMES
    names = [name for name, _ in option_configurations()]
    assert "no-wcoj" in names
    join_names = [name for name, _ in join_configurations()]
    assert "no-wcoj" in join_names


def test_wcoj_bit_identical_to_pairwise_baseline(differential_engine,
                                                 join_baseline_results):
    """wcoj=True (the default) and the pairwise join planner must serialize
    identically on every fuzzed join — the generic join may change *how*
    tuples are found, never their bytes or their order."""
    generic = EngineOptions(wcoj=True)
    pairwise = EngineOptions(wcoj=False)
    for query in generated_join_queries():
        generic_result = differential_engine.query(query, options=generic)
        pairwise_result = differential_engine.query(query, options=pairwise)
        assert generic_result.serialize() == pairwise_result.serialize() \
            == join_baseline_results[query], query


@pytest.mark.slow
def test_multi_join_fuzzer_long_mode(differential_engine):
    """Opt-in long mode: a larger corpus under every single-switch ablation
    (run with ``pytest -m slow tests/test_differential.py``)."""
    queries = generated_join_queries(JOIN_COUNT_LONG)
    oracle = {
        query: serialize_sequence(
            run_baseline(differential_engine.store, query, "auction.xml"))
        for query in queries}
    configurations = [("default", EngineOptions())] + [
        (f"no-{name}", EngineOptions(**{name: False}))
        for name in OPTION_NAMES]
    for config_name, options in configurations:
        for query in queries:
            result = differential_engine.query(query, options=options)
            assert result.serialize() == oracle[query], (
                f"configuration {config_name!r} diverged from the baseline "
                f"interpreter on:\n{query}")


def test_compiled_plans_match_the_outside_reference(differential_engine,
                                                    baseline_results,
                                                    chain_baseline_results,
                                                    join_baseline_results):
    """The compiled closures are the only executor; on all three fuzzed
    corpora they must serialize exactly what the independent tree-walking
    interpreter (``run_baseline``) produces, with every operator compiled."""
    oracle = {**baseline_results, **chain_baseline_results,
              **join_baseline_results}
    for query, expected in oracle.items():
        prepared = differential_engine.prepare(query)
        assert prepared.compiled.fallbacks == {}, query
        assert prepared.run().serialize() == expected, query


def test_generator_covers_the_query_families():
    queries = "\n".join(generated_queries())
    assert "for $" in queries
    assert "where" in queries
    assert "count(" in queries
    assert "order by" in queries


def test_differential_with_subplan_cache(differential_engine,
                                         baseline_results):
    """The cross-query materialized subplan cache must be invisible in the
    results: run the whole generated suite twice through one server (the
    second pass is served largely from the cache) and compare each result
    against the oracle."""
    from repro.server import QueryServer

    with QueryServer(threads=2) as server:
        server.load_document_text(SMALL_XML, name="auction.xml")
        for _ in range(2):
            for query in generated_queries():
                result = server.execute(query)
                assert result.serialize() == baseline_results[query], query
        stats = server.stats()
        assert stats.subplan_cache.hits > 0
