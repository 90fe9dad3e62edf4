"""Reproduce the shape of the paper's Figure 4 on XMark-like data.

Generates XMark-like documents at a few scales, runs the five benchmark
queries (1, 8, 11, 13, 20) on the FluX engine and on the two baselines, and
prints a Figure-4-shaped table: execution time and peak buffered memory per
query, document size and engine.

Run with (takes a minute or two)::

    python examples/xmark_benchmark.py             # default scales
    python examples/xmark_benchmark.py 0.1 0.5     # custom scales (1 is ~0.62 MB)
"""

import sys

from repro import FluxSession, NaiveDomEngine, NullSink, ProjectionDomEngine
from repro.xmark.dtd import xmark_dtd
from repro.xmark.generator import config_for_scale, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES

DEFAULT_SCALES = (0.05, 0.1, 0.2)

#: The join queries use naive nested loops (as in the paper); keep them off
#: the largest documents so the example stays fast.
JOIN_QUERIES = ("Q8", "Q11")


def run_benchmark(scales) -> None:
    documents = {}
    for scale in scales:
        documents[scale] = generate_document(config_for_scale(scale, seed=97))
        print(f"generated document at scale {scale}: {len(documents[scale])} bytes")

    header = f"{'query':>6} {'doc bytes':>10} {'engine':>16} {'time [s]':>10} {'peak mem [B]':>13}"
    print()
    print(header)
    print("-" * len(header))

    session = FluxSession(xmark_dtd())
    for name in sorted(BENCHMARK_QUERIES):
        query = BENCHMARK_QUERIES[name]
        prepared = session.prepare(query)  # one compile per query, all scales
        for scale in scales:
            if name in JOIN_QUERIES and scale > min(scales) * 2 + 1e-9:
                continue
            document = documents[scale]

            flux = prepared.execute(document, sink=NullSink())
            naive = NaiveDomEngine(query).run(document, collect_output=False)
            projection = ProjectionDomEngine(query).run(document, collect_output=False)

            rows = [
                ("flux", flux.stats.elapsed_seconds, flux.stats.peak_buffered_bytes),
                ("naive-dom", naive.elapsed_seconds, naive.peak_buffered_bytes),
                ("projection-dom", projection.elapsed_seconds, projection.peak_buffered_bytes),
            ]
            for engine_name, seconds, memory in rows:
                print(f"{name:>6} {len(document):>10} {engine_name:>16} {seconds:>10.3f} {memory:>13}")
        print()

    print("Shape to look for (cf. Figure 4 of the paper):")
    print("  * Q1/Q13: FluX peak memory is 0 at every size")
    print("  * Q20: FluX peak memory stays constant (one person element)")
    print("  * Q8/Q11: FluX buffers a small projected fraction; time grows super-linearly")
    print("  * naive-dom memory tracks the document size for every query")


def main() -> None:
    scales = tuple(float(arg) for arg in sys.argv[1:]) or DEFAULT_SCALES
    run_benchmark(scales)


if __name__ == "__main__":
    main()
