"""Quickstart: schedule and run the paper's introductory query.

The query lists, for every book of a bibliography, its titles and authors
(grouped in a ``result`` element).  Depending on the DTD, the FluX scheduler
either streams everything (titles are guaranteed to precede authors) or
buffers the authors of one book at a time (no order constraint).

The session API is the front door: a :class:`repro.FluxSession` holds the
DTD and an LRU plan cache, ``prepare`` schedules + compiles a query once
(its ``flux_source`` is the schedule; an unsafe one is refused), and
``execute`` runs the prepared plan over any number of documents.

Run with::

    python examples/quickstart.py
"""

from repro import FluxSession, NaiveDomEngine

QUERY = """
<results>
{ for $b in $ROOT/bib/book return
  <result> {$b/title} {$b/author} </result> }
</results>
"""

#: No order between titles and authors: authors must be buffered per book.
WEAK_DTD = """
<!ELEMENT bib (book)*>
<!ELEMENT book (title|author)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
"""

#: The XML Query Use Cases DTD: titles come first, nothing needs buffering.
ORDERED_DTD = """
<!ELEMENT bib (book)*>
<!ELEMENT book (title,(author+|editor+),publisher,price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT editor (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT price (#PCDATA)>
"""

DOCUMENT = """
<bib>
  <book><title>Streams and Schemas</title><author>Koch</author><author>Scherzinger</author>
        <publisher>VLDB Press</publisher><price>45</price></book>
  <book><title>Buffer Minimization</title><author>Schweikardt</author>
        <publisher>Addison-Wesley</publisher><price>60</price></book>
</bib>
"""


def main() -> None:
    print("=" * 72)
    print("FluX quickstart: one query, two DTDs")
    print("=" * 72)

    for label, dtd_text in (("weak DTD", WEAK_DTD), ("ordered DTD", ORDERED_DTD)):
        session = FluxSession(dtd_text, root_element="bib")
        query = session.prepare(QUERY)  # scheduled + compiled once, cached
        print(f"\n--- scheduled FluX query ({label}) ---")
        print(query.flux_source)
        print("--- buffers the engine will allocate ---")
        print(query.describe_buffers())

        result = query.execute(DOCUMENT)
        print("--- result ---")
        print(result.output)
        print("--- statistics ---")
        print(result.stats.summary())

        # A second prepare of the same query is a plan-cache hit: no
        # parsing, no scheduling, no compilation.
        assert session.prepare(QUERY).engine is query.engine
        print(f"plan cache after a repeat prepare: {session.cache.snapshot()}")

    # Cross-check against the in-memory reference engine.
    reference = NaiveDomEngine(QUERY).run(DOCUMENT)
    print("\nreference output identical:", reference.output == result.output)


if __name__ == "__main__":
    main()
