"""Equivalence of every execution mode of the compiled push-based pipeline.

The pipeline refactor (projection filter, dispatch tables, streaming
output) must be *observationally invisible*: for every XMark benchmark
query the output has to be byte-identical across

* the pipeline with the projection filter on and off,
* collected output, streamed fragments, and the writable-sink path,
* the executor driven directly with the reference (expat) events,
* both DOM baselines (naive and projection).

Plus the memory contract of the streaming API: the run must yield multiple
fragments while it consumes the input (nothing joined at the end) and must
not buffer beyond what the plan requires.
"""

import io

import pytest

from repro import FluxSession, NaiveDomEngine, ProjectionDomEngine
from repro.engine.executor import StreamExecutor
from repro.xmark.dtd import xmark_dtd
from repro.xmark.generator import config_for_scale, iter_document_chunks
from repro.xmark.queries import BENCHMARK_QUERIES
from repro.xmlstream.parser import parse_events


def _execute_events(plan, events):
    """Reference (expat) events straight into the executor."""
    executor = StreamExecutor(plan)
    executor.begin()
    executor.process_batch(events)
    return executor.finish()


@pytest.fixture(scope="module")
def pipeline_outputs(medium_xmark_document):
    """Every query in every execution mode, computed once for the module."""
    outputs = {}
    for name, query in BENCHMARK_QUERIES.items():
        projected = FluxSession(xmark_dtd()).prepare(query)
        unfiltered = FluxSession(xmark_dtd()).prepare(query, projection=False)
        writable = io.StringIO()
        projected.execute(medium_xmark_document, sink=writable)
        outputs[name] = {
            "projection": projected.execute(medium_xmark_document).output,
            "no-projection": unfiltered.execute(medium_xmark_document).output,
            "streaming": "".join(projected.stream(medium_xmark_document)),
            "writable": writable.getvalue(),
            "events": _execute_events(
                projected.plan, parse_events(medium_xmark_document, document_events=False)
            ),
            "naive-dom": NaiveDomEngine(query).run(medium_xmark_document).output,
            "projection-dom": ProjectionDomEngine(query).run(medium_xmark_document).output,
        }
    return outputs


@pytest.mark.parametrize("name", sorted(BENCHMARK_QUERIES))
def test_projection_filter_is_invisible(pipeline_outputs, name):
    modes = pipeline_outputs[name]
    assert modes["projection"] == modes["no-projection"]


@pytest.mark.parametrize("name", sorted(BENCHMARK_QUERIES))
def test_streaming_matches_collected(pipeline_outputs, name):
    modes = pipeline_outputs[name]
    assert modes["streaming"] == modes["projection"]
    assert modes["writable"] == modes["projection"]


@pytest.mark.parametrize("name", sorted(BENCHMARK_QUERIES))
def test_reference_tokenizer_events_match_document_run(pipeline_outputs, name):
    modes = pipeline_outputs[name]
    assert modes["events"] == modes["projection"]


@pytest.mark.parametrize("name", sorted(BENCHMARK_QUERIES))
def test_pipeline_matches_both_dom_baselines(pipeline_outputs, name):
    modes = pipeline_outputs[name]
    assert modes["projection"] == modes["naive-dom"]
    assert modes["projection"] == modes["projection-dom"]


def test_streaming_output_is_incremental_and_memory_flat():
    """A zero-buffer query over a large document must stream flat.

    Q13 needs no buffers at all, so on a document much larger than any
    buffer the run must (a) hand out many fragments as input is consumed
    rather than one joined string, and (b) record zero buffered bytes --
    i.e. neither the document nor the result is ever materialized.
    """
    prepared = FluxSession(xmark_dtd()).prepare(BENCHMARK_QUERIES["Q13"])
    config = config_for_scale(0.5, seed=11)
    document = "".join(iter_document_chunks(config))
    # Feed small chunks so the output-producing region spans many batches.
    chunks = [document[i : i + 4096] for i in range(0, len(document), 4096)]

    run = prepared.stream(iter(chunks))
    fragments = list(run)
    assert len(fragments) > 3
    assert run.stats.peak_buffered_bytes == 0
    assert run.stats.peak_buffered_events == 0
    # The fragments join to exactly what a collected run produces.
    collected = prepared.execute(document).output
    assert "".join(fragments) == collected
    # Pending output is bounded by one input chunk's production, far below
    # the total output size.
    assert max(len(f) for f in fragments) < run.stats.output_bytes


def test_projection_filter_drops_events_before_executor():
    """The filter must actually shield the executor on selective queries."""
    prepared = FluxSession(xmark_dtd()).prepare(BENCHMARK_QUERIES["Q13"])
    assert prepared.engine.projection_spec is not None
    document = "".join(iter_document_chunks(config_for_scale(0.1, seed=11)))

    result = prepared.execute(document, trace=True)
    stats_events = result.stats.input_events
    # The survivors are what the run's own ``materialize`` stage hands on.
    (survivors,) = [stage.events for stage in result.trace.stages if stage.name == "materialize"]
    # Most of an XMark document is irrelevant to Q13 (auction regions etc.).
    assert survivors < stats_events / 2


def test_value_condition_queries_survive_projection():
    """Condition paths tracked on the fly must not be projected away."""
    dtd = """
    <!ELEMENT bib (book*)>
    <!ELEMENT book (title, author*, price)>
    <!ELEMENT title (#PCDATA)>
    <!ELEMENT author (#PCDATA)>
    <!ELEMENT price (#PCDATA)>
    """
    doc = (
        "<bib>"
        "<book><title>A</title><author>x</author><price>10</price></book>"
        "<book><title>B</title><author>y</author><price>90</price></book>"
        "</bib>"
    )
    query = """
    <out>
    { for $b in /bib/book
      where $b/price > 50
      return {$b/title} }
    </out>
    """
    from repro.core.api import load_dtd

    schema = load_dtd(dtd, root_element="bib")
    projected = FluxSession(schema).prepare(query)
    unfiltered = FluxSession(schema).prepare(query, projection=False)
    naive = NaiveDomEngine(query).run(doc)
    assert projected.execute(doc).output == unfiltered.execute(doc).output == naive.output
    assert "B" in projected.execute(doc).output
