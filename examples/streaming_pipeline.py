"""Run a query over a document that never exists in memory -- in *and* out.

The FluX engine consumes SAX-style events, so the input can be an arbitrarily
large file -- or, as here, a generator that produces the document chunk by
chunk while the query is being evaluated.  Since the push-based pipeline
refactor the *output* side is symmetric: ``stream`` yields serialized
result fragments as the input is consumed, so neither the document nor the
result is ever materialized as one Python string.

The example streams an XMark-like document of a configurable size straight
from the generator through the pipeline

    scan -> materialize -> execute -> sink

and reports how little memory the evaluation needed, plus how many output
fragments the streaming sink produced along the way.

Run with::

    python examples/streaming_pipeline.py          # ~0.5 MB document
    python examples/streaming_pipeline.py 2.0      # ~2 MB document
"""

import sys

from repro import FluxSession
from repro.xmark.dtd import xmark_dtd
from repro.xmark.generator import config_for_scale, iter_document_chunks
from repro.xmark.queries import BENCHMARK_QUERIES


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    config = config_for_scale(scale, seed=5)

    session = FluxSession(xmark_dtd())
    query = session.prepare(BENCHMARK_QUERIES["Q13"])
    print("scheduled FluX query:")
    print(query.flux_source)
    print()

    # The chunk iterator is consumed lazily by the pipeline's tokenize stage;
    # at no point does the whole document exist as a Python string.  The
    # streaming run is equally lazy on the output side: each iteration step
    # hands back the fragments produced by one span of input.
    chunks = iter_document_chunks(config)
    run = query.stream(chunks)

    fragments = 0
    output_chars = 0
    largest = 0
    for fragment in run:
        fragments += 1
        output_chars += len(fragment)
        largest = max(largest, len(fragment))

    stats = run.stats
    print(f"document size streamed : {stats.input_bytes:>12} bytes")
    print(f"output produced        : {stats.output_bytes:>12} bytes")
    print(f"  ... as {fragments} fragments, largest {largest} chars (never joined)")
    print(f"peak buffered events   : {stats.peak_buffered_events:>12}")
    print(f"peak buffered bytes    : {stats.peak_buffered_bytes:>12}")
    print(f"elapsed                : {stats.elapsed_seconds:>12.3f} s")
    print()
    print("Q13 is scheduled without any buffers: the whole run is a single")
    print("pass over the stream, regardless of how large the document is --")
    print("and the projection filter drops every subtree the query cannot")
    print("touch before the executor ever sees it.")
    assert output_chars == stats.output_bytes


if __name__ == "__main__":
    main()
