"""The six workloads: every input is a pure function of ``(name, seed, scale)``.

The program under test only ever receives what this module generates — XML
text, query texts, update plans and arrival schedules.  Names, document
scales and the serving constants are frozen: later issues cite them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.xmark import XMARK_QUERIES, generate_document
from repro.xmark.generator import XMarkCounts

DOC = "auction.xml"
NOTES = "notes.xml"
NOTES_SCALE = 0.001
#: every workload query is cross-checked against the baseline interpreter
#: at this scale during set-up (the baseline is far too slow at measured
#: scale: 161 s for Q1-Q20 at scale 0.02)
ORACLE_SCALE = 0.002
SMOKE_SCALE = 0.002

_REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")
_WORDS = ("gold", "silver", "vintage", "rare", "mint", "classic", "signed",
          "antique", "modern", "royal", "plain", "shiny")

# ---- serve_mixed: calibrated once on the seed commit, then frozen ---------
#: a third of the closed-loop capacity of ``QueryServer(threads=2)`` on the
#: request mix, so that the top rate stays clear of the knee (see README
#: "Calibration")
RATE_MID = 80.0
RATE_FACTORS = (0.5, 1.0, 1.5, 2.0)
#: a rate is sustained when its p95 latency (from due time) stays below this
LAT_P95_LIMIT_MS = 150.0
#: share of the open-loop time given to each rate; ``rate_mid`` gets the most
#: because the gated percentiles are read there
WINDOW_SHARES = (0.08, 0.6, 0.12, 0.2)
WRITER_PERIOD_S = 1.0
SERVER_THREADS = 2
SERVER_PROCESSES = 2
#: the short XMark queries a front end would see, most popular first
SERVE_TEMPLATES = (1, 2, 3, 5, 6, 8, 13, 14, 15, 16, 17, 18, 20)
NOTES_TEMPLATES = (5, 6, 17)
Q1_VARIANT_SHARE = 0.20
NOTES_SHARE = 0.05
Q1_VARIANTS = 200


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: float
    kind: str                        # "closed" | "lifecycle" | "serve"
    queries: tuple[int, ...]
    #: shares of ``--seconds`` given to the main loop, the cold passes and
    #: the write cycles (set-up is outside ``--seconds``)
    shares: tuple[float, float, float]
    txns_per_cycle: int = 1
    adhoc: bool = False


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("xmark_paths",
             "navigation/aggregation: time is in the step kernels and boxing; "
             "joins and construction do almost nothing, so a constructor fix "
             "must not move it",
             0.05, "closed", (1, 5, 6, 7, 14, 15, 16, 17, 18, 20),
             (0.5, 0.2, 0.3)),
    Workload("xmark_joins",
             "value/theta joins (joins, wcoj, sorting); Q11/Q12 grow "
             "quadratically, so the working set outgrows the subplan cache",
             0.05, "closed", (4, 8, 9, 11, 12), (0.5, 0.2, 0.3)),
    Workload("xmark_construct",
             "element construction, subtree copy, order by and the "
             "serializer; the Q10 hot spot lives here and nowhere else",
             0.05, "closed", (2, 3, 10, 13, 19), (0.5, 0.2, 0.3)),
    Workload("adhoc_compile",
             "200 distinct query texts per pass on a tiny document: every op "
             "is a plan-cache miss, so parse/plan/rewrite/codegen dominate",
             0.001, "closed", (), (0.6, 0.2, 0.2), adhoc=True),
    Workload("doc_lifecycle",
             "the write side of the storage and cache layers: shred, persist, "
             "reopen, update transactions and read-after-write",
             0.02, "lifecycle", (1, 6, 17), (0.8, 0.2, 0.0),
             txns_per_cycle=3),
    Workload("serve_mixed",
             "open-loop traffic on QueryServer(threads=2) with a skewed mix, "
             "plan-cache churn and a writer invalidating caches every second",
             0.02, "serve", SERVE_TEMPLATES, (0.78, 0.07, 0.15)),
)}


# --------------------------------------------------------------------------- #
# documents and query lists
# --------------------------------------------------------------------------- #
def documents(workload: Workload, seed: int, scale: float) -> dict[str, str]:
    """The XML texts a workload loads, keyed by document name."""
    docs = {DOC: generate_document(scale, seed)}
    if workload.kind == "serve":
        docs[NOTES] = generate_document(min(NOTES_SCALE, scale), seed + 1)
    return docs


def _label(number: int) -> str:
    return f"q{number:02d}"


def q1_variant(person: int) -> str:
    return XMARK_QUERIES[1].replace('"person0"', f'"person{person}"')


def ops(workload: Workload, seed: int, scale: float) -> list[tuple[str, str]]:
    """The ``(label, query text)`` list of one pass."""
    if workload.adhoc:
        return adhoc_queries(seed, scale)
    return [(_label(n), XMARK_QUERIES[n]) for n in workload.queries]


def golden_extra(workload: Workload, scale: float
                 ) -> list[tuple[str, str, str]]:
    """``(label, text, context document)`` of the requests ``serve_mixed``
    can draw beyond its templates: the Q1 variants and the notes queries."""
    if workload.kind != "serve":
        return []
    persons = min(Q1_VARIANTS, XMarkCounts.for_scale(scale).persons)
    return ([(f"q01:p{p}", q1_variant(p), DOC) for p in range(persons)]
            + [(f"n{n:02d}", XMARK_QUERIES[n], NOTES)
               for n in NOTES_TEMPLATES])


def adhoc_queries(seed: int, scale: float, count: int = 200
                  ) -> list[tuple[str, str]]:
    """``count`` distinct cheap query texts: seeded literal and path
    substitutions into the XMark templates plus a small path grammar."""
    rng = random.Random(f"adhoc:{seed}")
    counts = XMarkCounts.for_scale(scale)
    sections = ("people/person", "open_auctions/open_auction",
                "closed_auctions/closed_auction", "categories/category",
                "regions/europe/item", "regions/asia/item")
    person_fields = ("name", "emailaddress", "phone", "address/city",
                     "address/country", "creditcard")
    tags = ("item", "name", "description", "bidder", "price", "interest",
            "keyword", "mail", "listitem", "emph")

    def make() -> str:
        kind = rng.randrange(12)
        var = f"$v{rng.randrange(1000)}"
        if kind == 0:
            return q1_variant(rng.randrange(counts.persons))
        if kind == 1:
            return XMARK_QUERIES[5].replace(">= 40", f">= {rng.randrange(1, 400)}")
        if kind == 2:
            return XMARK_QUERIES[14].replace('"gold"', f'"{rng.choice(_WORDS)}"')
        if kind == 3:
            low = rng.randrange(10, 60) * 1000
            return (XMARK_QUERIES[20].replace("100000", str(low + 50000))
                    .replace("30000", str(low)))
        if kind == 4:
            number = rng.choice((2, 3, 17))
            old = "$p" if number == 17 else "$b"
            return XMARK_QUERIES[number].replace(old, var)
        if kind == 5:
            return XMARK_QUERIES[13].replace("australia", rng.choice(_REGIONS))
        if kind == 6:
            return XMARK_QUERIES[18].replace("2.20371",
                                             f"{rng.uniform(1, 3):.4f}")
        if kind == 7:
            return f"count(/site/{rng.choice(sections)})"
        if kind == 8:
            return f"count(/site//{rng.choice(tags)}) + {rng.randrange(100)}"
        if kind == 9:
            return (f"for {var} in /site/people/person"
                    f"[{rng.randrange(1, counts.persons + 1)}] "
                    f"return {var}/{rng.choice(person_fields)}/text()")
        if kind == 10:
            return (f"/site/regions/{rng.choice(_REGIONS)}/item"
                    f"[{rng.randrange(1, 4)}]/name/text()")
        return (f"count(for {var} in /site/open_auctions/open_auction "
                f"where {var}/initial/text() > {rng.randrange(1, 300)} "
                f"return {var})")

    texts: dict[str, None] = {}
    while len(texts) < count:
        texts.setdefault(make())
    return [(f"a{i:03d}", text) for i, text in enumerate(texts)]


# --------------------------------------------------------------------------- #
# update transactions
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TxnPlan:
    """One update transaction: three target selects, then three edits."""

    selects: tuple[str, str, str]
    new_value: str
    fragment: str


def txn_plan(seed: int, scale: float, index: int) -> TxnPlan:
    """Transaction ``index`` of a write cycle on ``auction.xml``: rename
    person ``index`` (Q1 must read its own write after txn 0), append a small
    item to a region, delete one open auction."""
    rng = random.Random(f"txn:{seed}:{index}")
    counts = XMarkCounts.for_scale(scale)
    region = rng.choice(_REGIONS)
    victim = rng.randrange(1, counts.open_auctions - 3)
    tag = f"{seed}-{index}"
    return TxnPlan(
        selects=(f'/site/people/person[@id = "person{index}"]/name/text()',
                 f"/site/regions/{region}",
                 f"/site/open_auctions/open_auction[{victim}]"),
        new_value=f"Renamed Person {tag}",
        fragment=(f'<item id="bench{tag}"><location>Nowhere</location>'
                  f"<quantity>1</quantity><name>bench item {tag}</name>"
                  "<description><text>plain bench text</text></description>"
                  "</item>"))


def notes_txn_plan(index: int) -> TxnPlan:
    """The in-flight writer's transaction on ``notes.xml``.  It leaves every
    ``NOTES_TEMPLATES`` answer unchanged (a category name nobody reads; one
    europe item appended, the previous last one deleted), so reads racing
    the writer stay checkable."""
    return TxnPlan(
        selects=("/site/categories/category[1]/name/text()",
                 "/site/regions/europe",
                 "/site/regions/europe/item[last()]"),
        new_value=f"category renamed {index}",
        fragment=(f'<item id="note{index}"><location>Nowhere</location>'
                  f"<name>note {index}</name></item>"))


def apply_txn(updater, plan: TxnPlan) -> dict[str, int]:
    """Select the three targets, then edit (``commit`` is the caller's).
    Returns the ``UpdateStats`` counters summed over the three edits."""
    [value], [parent], [victim] = (updater.select(q) for q in plan.selects)
    totals = {"pages_touched": 0, "tuples_written": 0}
    for edit, *arguments in ((updater.replace_value, value, plan.new_value),
                             (updater.insert_last, parent, plan.fragment),
                             (updater.delete, victim)):
        stats = edit(*arguments)
        for field in totals:
            totals[field] += getattr(stats, field, 0)
    return totals


# --------------------------------------------------------------------------- #
# serve_mixed arrivals
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Request:
    due_s: float
    label: str
    text: str
    context: str


def arrivals(seed: int, scale: float, rate: float, duration: float
             ) -> list[Request]:
    """``round(rate * duration)`` Poisson arrivals inside ``duration`` with
    the Zipf(1.0) request mix.

    Both are drawn with their totals fixed — the arrival process is
    conditioned on its count, and the mix is a seeded shuffle of exactly
    proportional class counts — so every seed offers the same number of
    requests of each kind and only their order and timing differ.  With
    independent draws the share of heavy queries among a few hundred
    requests moves the latency percentiles more than any change under test.
    """
    rng = random.Random(f"arrivals:{seed}:{rate}")
    persons = min(Q1_VARIANTS, XMarkCounts.for_scale(scale).persons)
    count = max(1, round(rate * duration))
    notes = round(count * NOTES_SHARE)
    variants = round(count * Q1_VARIANT_SHARE)
    weights = [1.0 / rank for rank in range(1, len(SERVE_TEMPLATES) + 1)]
    share = (count - notes - variants) / sum(weights)
    mix: list[tuple[str, str, str]] = []
    for number, weight in zip(SERVE_TEMPLATES, weights):
        mix += [(_label(number), XMARK_QUERIES[number], DOC)] \
            * round(weight * share)
    for index in range(notes):
        number = NOTES_TEMPLATES[index % len(NOTES_TEMPLATES)]
        mix.append((f"n{number:02d}", XMARK_QUERIES[number], NOTES))
    while len(mix) < count:                 # the Q1 variants, and rounding
        person = rng.randrange(persons)
        mix.append((f"q01:p{person}", q1_variant(person), DOC))
    rng.shuffle(mix)
    gaps = [rng.expovariate(1.0) for _ in range(count + 1)]
    total = sum(gaps)
    requests, elapsed = [], 0.0
    for gap, (label, text, context) in zip(gaps, mix):
        elapsed += gap
        requests.append(Request(elapsed / total * duration, label, text,
                                context))
    return requests
