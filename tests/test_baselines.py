"""Unit tests for the baseline engines (naive DOM and projection DOM)."""

from repro.baselines import NaiveDomEngine, ProjectionDomEngine
from repro.baselines.projection import projection_path_sets
from repro.xquery.parser import parse_query
from repro.xmark.queries import QUERY_1, QUERY_8
from repro.xmark.usecases import XMP_INTRO, generate_bibliography

DOC = (
    "<bib>"
    "<book><title>Streams</title><author>Koch</author><publisher>V</publisher><price>9</price></book>"
    "<book><title>Buffers</title><author>Schweikardt</author><publisher>W</publisher><price>8</price></book>"
    "</bib>"
)


def test_naive_engine_produces_reference_output():
    result = NaiveDomEngine(XMP_INTRO).run(DOC)
    assert result.output.startswith("<results><result><title>Streams</title>")
    assert result.peak_buffered_events > 0
    assert result.elapsed_seconds >= 0


def test_naive_engine_memory_grows_with_document():
    small = NaiveDomEngine(XMP_INTRO).run(generate_bibliography(10, seed=1))
    large = NaiveDomEngine(XMP_INTRO).run(generate_bibliography(100, seed=1))
    assert large.peak_buffered_bytes > small.peak_buffered_bytes * 5


def test_projection_engine_matches_naive_output():
    for query in (XMP_INTRO, QUERY_1):
        document = DOC if query is XMP_INTRO else generate_bibliography(5, seed=2)
        naive = NaiveDomEngine(query).run(DOC)
        projected = ProjectionDomEngine(query).run(DOC)
        if query is XMP_INTRO:
            assert projected.output == naive.output


def test_projection_engine_uses_less_memory_than_naive():
    document = generate_bibliography(80, seed=4)
    query = "{ for $b in $ROOT/bib/book return {$b/title} }"
    naive = NaiveDomEngine(query).run(document)
    projected = ProjectionDomEngine(query).run(document)
    assert projected.output == naive.output
    assert projected.peak_buffered_bytes < naive.peak_buffered_bytes


def test_projection_paths_resolve_through_binding_chain():
    paths = projection_path_sets(parse_query(XMP_INTRO))[0]
    assert ("bib", "book", "title") in paths
    assert ("bib", "book", "author") in paths


def test_projection_paths_for_join_query_include_both_sides():
    paths = projection_path_sets(parse_query(QUERY_8))[0]
    assert ("site", "people", "person", "person_id") in paths
    assert ("site", "closed_auctions", "closed_auction") in paths


def test_projection_keeps_ancestors_of_projected_paths():
    query = "{ for $b in $ROOT/bib/book return {$b/title} }"
    projected = ProjectionDomEngine(query).run(DOC)
    # authors/publishers/prices are dropped, titles are kept
    assert "Koch" not in (projected.output or "")
    assert "<title>Streams</title>" in projected.output


def test_naive_run_tree_entry_point():
    from repro.xmlstream.parser import parse_tree

    engine = NaiveDomEngine(XMP_INTRO)
    tree = parse_tree(DOC)
    assert engine.run_tree(tree).output == engine.run(DOC).output


def test_collect_output_flag():
    result = NaiveDomEngine(XMP_INTRO).run(DOC, collect_output=False)
    assert result.output is None


def test_collect_output_false_still_populates_statistics():
    """Regression: the differential oracle consumes baseline statistics
    without retaining N output strings, so every counter must survive
    ``collect_output=False`` (output_bytes used to be unavailable)."""
    collected = NaiveDomEngine(XMP_INTRO).run(DOC)
    discarded = NaiveDomEngine(XMP_INTRO).run(DOC, collect_output=False)
    assert discarded.output is None
    assert discarded.output_bytes == len(collected.output) > 0
    assert discarded.peak_buffered_events == collected.peak_buffered_events > 0
    assert discarded.peak_buffered_bytes == collected.peak_buffered_bytes > 0
    assert discarded.elapsed_seconds > 0

    proj_collected = ProjectionDomEngine(XMP_INTRO).run(DOC)
    proj_discarded = ProjectionDomEngine(XMP_INTRO).run(DOC, collect_output=False)
    assert proj_discarded.output is None
    assert proj_discarded.output_bytes == len(proj_collected.output) > 0
    assert proj_discarded.peak_buffered_bytes == proj_collected.peak_buffered_bytes > 0


def test_run_tree_collect_output_false_populates_statistics():
    from repro.xmlstream.parser import parse_tree

    tree = parse_tree(DOC)
    engine = NaiveDomEngine(XMP_INTRO)
    discarded = engine.run_tree(tree, collect_output=False)
    assert discarded.output is None
    assert discarded.output_bytes == len(engine.run_tree(tree).output)
