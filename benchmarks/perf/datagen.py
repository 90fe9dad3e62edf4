"""Benchmark inputs: generated once, cached on disk, verified by reference.

``XMarkBench(scale_factor, seed).generate_data()`` follows the SSB-style
benchmark API (SNIPPETS.md): a benchmark object is a scale factor plus a
seed, ``generate_data()`` materialises its input files under
``benchmarks/perf/.cache/`` and later calls find them there.  The cache key
holds the seed, the scale, the document count and a hash of the generator
sources, so a changed generator never serves stale bytes.

Two input shapes exist:

* ``documents=1`` -- one XMark document of ``scale_factor`` (1.0 is about
  0.62 MB), written as ``data.xml``;
* ``documents=N`` -- ``N`` consecutive ticks of ``repro.xmark.ticker`` at
  ``scale_factor``, one document per line (ticker documents contain no
  newline), in the same file.

The measured program only ever receives these bytes.  ``reference()``
computes the expected result of a query for every document with
``repro.baselines.NaiveDomEngine`` -- a different evaluator that
materialises the whole tree -- and caches one SHA-256 per document; it
runs in the orchestrating process, never in a measured one.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CACHE = HERE / ".cache"

#: Sources whose change invalidates generated documents.
_GENERATOR_SOURCES = ("repro/xmark/generator.py", "repro/xmark/ticker.py")
#: Sources whose change additionally invalidates cached references.
_REFERENCE_SOURCES = (
    "repro/xmark/queries.py",
    "repro/baselines/naive.py",
    "repro/xquery/semantics.py",
)


def _source_hash(relative_paths) -> str:
    digest = hashlib.sha256()
    for relative in relative_paths:
        digest.update((SRC / relative).read_bytes())
    return digest.hexdigest()[:12]


def _write_atomic(path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path`` in one step (a killed run leaves no torn file)."""
    scratch = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    scratch.write_bytes(data)
    os.replace(scratch, path)


def sha256_text(text: Optional[str]) -> str:
    """Digest of one result; a missing result hashes as the empty one."""
    return hashlib.sha256((text or "").encode("utf-8")).hexdigest()


@dataclass
class BenchData:
    """One generated input file and how long generating it took."""

    path: Path
    document_bytes: int
    documents: int
    #: Seconds spent generating in *this* call; 0.0 when served from cache.
    datagen_s: float
    cached: bool


class XMarkBench:
    """A seeded XMark input of one scale factor (see the module docstring)."""

    def __init__(self, scale_factor: float, seed: int, *, documents: int = 1):
        if documents < 1:
            raise ValueError(f"documents must be >= 1, got {documents}")
        self.scale_factor = scale_factor
        self.seed = seed
        self.documents = documents
        key = f"xmark-sf{scale_factor:g}-n{documents}-seed{seed}-{_source_hash(_GENERATOR_SOURCES)}"
        self.directory = CACHE / "data" / key

    @property
    def path(self) -> Path:
        return self.directory / "data.xml"

    def generate_data(self) -> BenchData:
        """Write the input file unless the cache already holds it."""
        path = self.path
        if path.exists():
            return BenchData(path, path.stat().st_size, self.documents, 0.0, True)
        from repro.xmark import config_for_scale, generate_document, ticker_document

        started = time.perf_counter()
        if self.documents == 1:
            text = generate_document(config_for_scale(self.scale_factor, seed=self.seed))
        else:
            # Tick i of the ticker is seeded ``seed + i``: spacing the bench
            # seeds by the document count keeps neighbouring seeds disjoint.
            first = self.seed * self.documents
            text = "".join(
                ticker_document(index, seed=first, scale=self.scale_factor) + "\n"
                for index in range(self.documents)
            )
        data = text.encode("utf-8")
        elapsed = time.perf_counter() - started
        self.directory.mkdir(parents=True, exist_ok=True)
        _write_atomic(path, data)
        return BenchData(path, len(data), self.documents, elapsed, False)

    def texts(self) -> List[str]:
        """The generated documents, one string each."""
        text = self.path.read_text(encoding="utf-8")
        return [text] if self.documents == 1 else text.splitlines()

    def reference(self, query_name: str) -> List[str]:
        """SHA-256 of the expected output of ``query_name``, one per document."""
        path = self.directory / f"ref-{query_name}-{_source_hash(_REFERENCE_SOURCES)}.json"
        if path.exists():
            return json.loads(path.read_text())
        from repro.baselines import NaiveDomEngine
        from repro.xmark import BENCHMARK_QUERIES

        engine = NaiveDomEngine(BENCHMARK_QUERIES[query_name])
        digests = [sha256_text(engine.run(text).output) for text in self.texts()]
        _write_atomic(path, json.dumps(digests).encode("utf-8"))
        return digests
