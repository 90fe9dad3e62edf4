"""Integration tests: the full pipeline on the XMark workload (Section 6).

These tests assert the qualitative claims of the paper's evaluation:

* all engines agree on every query result,
* Q1 and Q13 run without any buffering,
* Q20 buffers at most one person element at a time,
* Q8 and Q11 buffer only a small projected fraction of the document,
* FluX peak memory is far below the naive engine's and below the projection
  baseline's,
* Figure 4's memory columns keep their shape as the document grows.
"""

import pytest

from repro import FluxSession, NaiveDomEngine, ProjectionDomEngine
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmlstream.parser import parse_tree


def _run_all_engines(document):
    results = {}
    for name, query in BENCHMARK_QUERIES.items():
        flux = FluxSession(xmark_dtd()).prepare(query).execute(document)
        naive = NaiveDomEngine(query).run(document)
        projection = ProjectionDomEngine(query).run(document)
        results[name] = (flux, naive, projection)
    return results


@pytest.fixture(scope="module")
def engines_results(medium_xmark_document):
    """Run every benchmark query on every engine once (shared across tests)."""
    return _run_all_engines(medium_xmark_document)


@pytest.fixture(scope="module")
def small_engines_results(small_xmark_document):
    """The same runs on the small document, for the across-sizes shape."""
    return _run_all_engines(small_xmark_document)


@pytest.mark.parametrize("name", sorted(BENCHMARK_QUERIES))
def test_all_engines_agree(engines_results, name):
    flux, naive, projection = engines_results[name]
    assert flux.output == naive.output
    assert projection.output == naive.output


@pytest.mark.parametrize("name", ["Q1", "Q13"])
def test_streamable_queries_buffer_nothing(engines_results, name):
    flux, _naive, _projection = engines_results[name]
    assert flux.stats.peak_buffered_events == 0
    assert flux.stats.peak_buffered_bytes == 0


def test_q20_buffers_a_single_person_at_a_time(engines_results, medium_xmark_document):
    flux, _naive, _projection = engines_results["Q20"]
    assert flux.stats.peak_buffered_events > 0
    # The peak must be bounded by the largest single person subtree, which is
    # far smaller than the people subtree as a whole.
    root = parse_tree(medium_xmark_document)
    people = root.select_path(("people", "person"))
    largest_person_events = max(len(person.to_events()) for person in people)
    total_people_events = sum(len(person.to_events()) for person in people)
    assert flux.stats.peak_buffered_events <= largest_person_events
    assert flux.stats.peak_buffered_events < total_people_events / 4


@pytest.mark.parametrize("name", ["Q8", "Q11"])
def test_join_queries_buffer_only_a_projected_fraction(engines_results, name, medium_xmark_document):
    flux, naive, _projection = engines_results[name]
    assert flux.stats.peak_buffered_events > 0
    # "only a small fraction of the original data is buffered"
    assert flux.stats.peak_buffered_bytes < 0.35 * len(medium_xmark_document)
    assert naive.peak_buffered_bytes > 2 * flux.stats.peak_buffered_bytes


@pytest.mark.parametrize("name", sorted(BENCHMARK_QUERIES))
def test_flux_never_buffers_more_than_projection(engines_results, name):
    flux, _naive, projection = engines_results[name]
    assert flux.stats.peak_buffered_bytes <= projection.peak_buffered_bytes


def test_naive_memory_reflects_whole_document(engines_results, medium_xmark_document):
    _flux, naive, _projection = engines_results["Q1"]
    assert naive.peak_buffered_bytes > 0.5 * len(medium_xmark_document)


@pytest.mark.parametrize("name", sorted(BENCHMARK_QUERIES))
def test_figure4_memory_shape_across_document_sizes(
    small_engines_results, engines_results, small_xmark_document, medium_xmark_document, name
):
    documents = (small_xmark_document, medium_xmark_document)
    assert len(documents[1]) > 2 * len(documents[0])
    runs = (small_engines_results[name], engines_results[name])
    peaks = [flux.stats.peak_buffered_bytes for flux, _naive, _projection in runs]
    if name in ("Q1", "Q13"):
        assert peaks == [0, 0]  # nothing buffered, whatever the size
    elif name == "Q20":
        # One person at a time: bounded by an element, not by the document.
        assert 0 < max(peaks) < 0.05 * len(documents[1])
    else:
        # The joins buffer a projected fraction that grows with the document.
        assert peaks[1] > peaks[0]
        assert all(0 < peak < 0.4 * len(doc) for peak, doc in zip(peaks, documents))
    # The DOM baselines hold (a projection of) the document, so they grow
    # for every query.
    for baseline in (1, 2):
        small, medium = (run[baseline].peak_buffered_bytes for run in runs)
        assert medium > small


def test_flux_results_are_reusable_across_documents(small_xmark_document, medium_xmark_document):
    prepared = FluxSession(xmark_dtd()).prepare(BENCHMARK_QUERIES["Q13"])
    small = prepared.execute(small_xmark_document)
    medium = prepared.execute(medium_xmark_document)
    assert small.output != medium.output
    assert small.stats.peak_buffered_events == medium.stats.peak_buffered_events == 0


def test_output_sizes_are_nontrivial(engines_results):
    for name, (flux, _naive, _projection) in engines_results.items():
        assert flux.stats.output_bytes > 0, name
