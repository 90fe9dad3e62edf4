"""Adversarial subscription churn: the serve tentpole's property test.

A seeded sweep drives one :class:`~repro.serve.SubscriptionHub` over
2..50 concatenated documents cut at random chunk sizes (so
document boundaries land mid-chunk), while randomly subscribing and
unsubscribing queries from a small pool between feed calls -- including
subscribes landing *mid-document*, which must defer to the next boundary.

Invariants asserted for every delivered result:

* **byte-identity**: the output equals a solo single-document run of the
  same query over the same document (regenerated independently);
* **contiguity**: each subscription receives a contiguous run of document
  indices starting at its recorded ``first_document``;
* **no re-merge**: ``fanout.recompiles`` stays 0 through all churn, and
  the attach/detach counters reconcile with the plan.

A detach also refreshes the fanout's hollow rows (those the scanner may
take runs of children under): one XMark test checks the flag across a
detach and a compaction, and the hub's output against solo runs.
"""

import random

import pytest
from _reference import top_level_elements

import repro.fastpath.scanner as scanner_module
from repro.core.api import load_dtd
from repro.core.session import FluxSession
from repro.serve import SubscriptionHub
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmark.ticker import ticker_document

BIB_DTD = """
<!ELEMENT bib (book)*>
<!ELEMENT book (title,author+,price?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT price (#PCDATA)>
"""

QUERY_POOL = [
    "<titles>{ for $b in $ROOT/bib/book return $b/title }</titles>",
    "<authors>{ for $b in $ROOT/bib/book return $b/author }</authors>",
    "<prices>{ for $b in $ROOT/bib/book return $b/price }</prices>",
    "<all>{ for $b in $ROOT/bib/book return $b }</all>",
]


def _doc(index: int) -> str:
    books = []
    for book in range(1 + index % 3):
        books.append(
            f"<book><title>T{index}.{book}</title><author>A{index}</author>"
            f"<author>Z{book}</author><price>{index}.{book}0</price></book>"
        )
    return f"<bib>{''.join(books)}</bib>"


def _schema():
    return load_dtd(BIB_DTD, root_element="bib")


def _make_plan(seed: int):
    """A deterministic churn plan: (documents, chunks, ops-by-feed-call).

    ``ops[i]`` runs just before the i-th feed call, so subscribes and
    unsubscribes land at arbitrary positions relative to document
    boundaries -- the hub must defer mid-document ones on its own.
    """
    rng = random.Random(seed)
    count = rng.randint(2, 50)
    stream = "".join(_doc(i) + "\n" for i in range(count)).encode("utf-8")
    chunks = []
    cursor = 0
    while cursor < len(stream):
        step = rng.choice([1, 3, 17, 256, 1024, 5000])
        chunks.append(stream[cursor : cursor + step])
        cursor += step
    ops = {}
    names = 0
    live = []
    for index in range(len(chunks) + 1):
        if rng.random() < 0.15:
            names += 1
            query = rng.randrange(len(QUERY_POOL))
            ops.setdefault(index, []).append(("subscribe", f"s{names}", query))
            live.append(f"s{names}")
        if live and rng.random() < 0.08:
            victim = live.pop(rng.randrange(len(live)))
            ops.setdefault(index, []).append(("unsubscribe", victim, None))
    # Guarantee at least one subscriber sees the stream from document zero.
    ops.setdefault(0, []).insert(0, ("subscribe", "anchor", 0))
    return count, chunks, ops


def _run_plan(seed: int):
    count, chunks, ops = _make_plan(seed)
    hub = SubscriptionHub(_schema())
    subs = {}
    with hub:
        for index in range(len(chunks) + 1):
            for op, name, query in ops.get(index, ()):
                if op == "subscribe":
                    subs[name] = hub.subscribe(QUERY_POOL[query], name=name)
                else:
                    hub.unsubscribe(subs[name])
            if index < len(chunks):
                hub.feed(chunks[index])
        hub.finish()
        delivered = {
            name: [(r.document, r.output) for r in sub.results()]
            for name, sub in subs.items()
        }
    fanout = hub.fanout
    assert fanout.recompiles == 0, f"seed {seed}: the union automaton was re-merged"
    # A subscription cancelled while still pending never reaches the fanout,
    # so attaches may undercount the subscribe ops -- never overcount.
    subscribes = sum(1 for calls in ops.values() for c in calls if c[0] == "subscribe")
    assert 1 <= fanout.attaches <= subscribes
    assert fanout.detaches <= fanout.attaches
    return count, ops, subs, delivered


@pytest.mark.parametrize("seed", range(8))
def test_adversarial_churn_is_byte_identical(seed):
    count, ops, _, delivered = _run_plan(seed)

    solos = {}

    def solo(query_index: int, document: int) -> str:
        if query_index not in solos:
            solos[query_index] = FluxSession(_schema()).prepare(QUERY_POOL[query_index])
        return solos[query_index].execute(_doc(document)).output

    query_of = {
        name: query
        for calls in ops.values()
        for op, name, query in calls
        if op == "subscribe"
    }
    total = 0
    for name, results in delivered.items():
        documents = [document for document, _ in results]
        # Contiguity: attach-at-boundary means no gaps, ever.
        assert documents == list(range(documents[0], documents[0] + len(documents))) if documents else True
        for document, output in results:
            total += 1
            assert output == solo(query_of[name], document), (
                f"seed {seed}: {name} diverged on document {document}"
            )
    anchor = delivered["anchor"]
    assert [d for d, _ in anchor][: 1] == [0]  # saw the stream from the start
    assert total > 0


#: The people element is only counted, after the closed auctions: the site
#: scope buffers the ``people`` tag alone, so its row is hollow.
PEOPLE_LAST = (
    "<r>{ for $c in $ROOT/site/closed_auctions/closed_auction return <c/> }"
    "{ for $x in $ROOT/site/people return <p/> }</r>"
)


def _people_row(fanout):
    """The fanout row of ``/site/people``."""
    tags = fanout.tags
    site = fanout.resolve(0, tags.intern(b"site"))
    return fanout.resolve(site, tags.intern(b"people"))


def test_a_detach_turns_a_row_hollow_and_output_stays_byte_identical(monkeypatch):
    """``people`` is hollow for :data:`PEOPLE_LAST` (kept for its tag alone)
    but not for a set that also holds Q1, which reads persons.  Detaching the Q1
    subscriber makes the hub's row hollow at the detach sweep; once a
    compaction drops the tombstone, persons drop for every slot and the
    scanner takes them as runs.  Every result equals a solo run."""
    dtd = xmark_dtd()
    session = FluxSession(dtd)
    q1, last = BENCHMARK_QUERIES["Q1"], PEOPLE_LAST
    alone = session.prepare(last).fanout
    assert alone.hollow[_people_row(alone)]
    both = session.prepare_many({"q1": q1, "last": last}).fanout
    assert not both.hollow[_people_row(both)]

    person_runs = []
    real = scanner_module._plain_span

    def recording(span, content):
        counted = real(span, content)
        if counted is not None and span.startswith(b"<person>"):
            person_runs.append(top_level_elements(span))
        return counted

    monkeypatch.setattr(scanner_module, "_plain_span", recording)
    documents = [ticker_document(index).encode("utf-8") for index in range(6)]
    hub = SubscriptionHub(dtd)
    with hub:
        subs = {"q1": hub.subscribe(q1, name="q1"), "last": hub.subscribe(last, name="last")}
        hollow = []
        runs = []
        for index, document in enumerate(documents):
            if index == 2:
                hub.unsubscribe(subs["q1"])
            if index == 4:
                hub.compact()
            hub.feed(document)
            hollow.append(hub.fanout.hollow[_people_row(hub.fanout)])
            runs.append(len(person_runs))
        hub.finish()
        delivered = {
            name: [(result.document, result.output) for result in sub.results()]
            for name, sub in subs.items()
        }
    assert hollow == [False, False, True, True, True, True]
    assert runs[3] == 0 < runs[4] < runs[5] and min(person_runs) > 1, person_runs
    solos = {"q1": session.prepare(q1), "last": session.prepare(last)}
    assert [document for document, _ in delivered["q1"]] == [0, 1]
    assert [document for document, _ in delivered["last"]] == list(range(len(documents)))
    for name, results in delivered.items():
        for document, output in results:
            assert output == solos[name].execute(documents[document]).output, (name, document)
