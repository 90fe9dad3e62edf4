"""Convenience layer tying the pipeline together.

Since the session redesign the one-shot functions here are thin shims over
:class:`~repro.core.session.FluxSession` -- each call builds a throwaway
session, prepares the query and executes it.  Long-lived callers should
hold a session instead: prepared queries are cached (repeat execution
skips parsing and scheduling entirely) and memory governance is shared.

Migration map (old -> new)::

    run_query(q, doc, dtd)            -> session.prepare(q).execute(doc)
    run_query_streaming(q, doc, dtd)  -> session.prepare(q).stream(doc)
    run_query_to_sink(q, doc, dtd, w) -> session.prepare(q).execute(doc, sink=w)
    run_queries({...}, doc, dtd)      -> session.prepare_many({...}).execute(doc)
    FluxEngine(q, dtd).run(doc, ...)  -> session.prepare(q).execute(doc), or
                                         FluxEngine(q, dtd).execute(doc, options=...)
    FluxEngine(..., memory_budget=b), MultiQueryEngine(..., memory_budget=b,
    chunk_size=n).run(doc, collect_output=..., expand_attrs=..., trace=...)
                                      -> options=ExecutionOptions(...) on the run /
                                         the MultiQueryEngine; a passed governor= is
                                         borrowed, an absent one created and owned
    (no old equivalent)               -> session.prepare(q).open_run() -- push mode

Per-run behaviour is one :class:`~repro.core.options.ExecutionOptions`
(``options=``) and nothing else; the compile-time ``projection`` flag
belongs to ``prepare``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Union

from repro.baselines import NaiveDomEngine, ProjectionDomEngine
from repro.core.options import ExecutionOptions
from repro.core.session import FluxSession
from repro.dtd.parser import parse_dtd
from repro.dtd.schema import DTD
from repro.engine.engine import FluxRunResult, StreamingRun, ensure_rooted
from repro.flux.ast import FluxExpr
from repro.flux.rewrite import rewrite_to_flux
from repro.flux.safety import check_safety
from repro.flux.serialize import flux_to_source
from repro.multiquery import MultiQueryRun
from repro.xmlstream.parser import DocumentSource
from repro.xquery.ast import ROOT_VARIABLE, XQExpr
from repro.xquery.parser import parse_query

def load_dtd(source: Union[str, DTD], *, root_element: Optional[str] = None) -> DTD:
    """Parse (if necessary) a DTD and attach the virtual document root.

    Rooting follows the engine's rules (:func:`ensure_rooted`): an explicit
    ``root_element`` wins, otherwise a root the DTD itself declares; a DTD
    with neither raises ``ValueError``.
    """
    dtd = parse_dtd(source) if isinstance(source, str) else source
    return ensure_rooted(dtd, root_element)


@dataclass
class CompiledQuery:
    """An XQuery⁻ query scheduled into FluX, with its intermediate stages."""

    flux: FluxExpr
    flux_source: str
    normalized_source: str
    is_safe: bool
    dtd: DTD

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.flux_source


def compile_to_flux(
    query: Union[str, XQExpr],
    dtd: Union[str, DTD],
    *,
    root_element: Optional[str] = None,
    root_var: str = ROOT_VARIABLE,
    apply_simplifications: bool = True,
) -> CompiledQuery:
    """Schedule an XQuery⁻ query into an equivalent safe FluX query."""
    schema = load_dtd(dtd, root_element=root_element)
    expr = parse_query(query) if isinstance(query, str) else query
    result = rewrite_to_flux(
        expr, schema, root_var=root_var, apply_simplifications=apply_simplifications
    )
    violations = check_safety(result.flux, schema, root_var=root_var)
    return CompiledQuery(
        flux=result.flux,
        flux_source=flux_to_source(result.flux),
        normalized_source=result.normalized.to_source(),
        is_safe=not violations,
        dtd=schema,
    )


def _session_for(dtd: Union[str, DTD], root_element: Optional[str]) -> FluxSession:
    """A throwaway session for one shim call.

    Deliberately built *without* session-level options: the run's options
    (budget included) are passed per call, so any memory governor is
    run-owned and closed deterministically when the run ends -- a session
    governor would only be released by the session finalizer.
    """
    schema = load_dtd(dtd, root_element=root_element)
    return FluxSession(schema)


def run_query(
    query: Union[str, XQExpr],
    document: DocumentSource,
    dtd: Union[str, DTD],
    *,
    root_element: Optional[str] = None,
    options: Optional[ExecutionOptions] = None,
) -> FluxRunResult:
    """One-shot: schedule, compile and execute a query over a document.

    A shim over :class:`~repro.core.session.FluxSession` -- hold a session
    yourself to reuse compiled plans across calls.
    """
    session = _session_for(dtd, root_element)
    return session.prepare(query).execute(document, options=options)


def run_query_streaming(
    query: Union[str, XQExpr],
    document: DocumentSource,
    dtd: Union[str, DTD],
    *,
    root_element: Optional[str] = None,
    options: Optional[ExecutionOptions] = None,
) -> "StreamingRun":
    """One-shot streaming run: iterate serialized output fragments.

    The returned :class:`~repro.engine.engine.StreamingRun` parses, projects
    and executes lazily as fragments are pulled; no full-output string is
    ever materialized, so result size does not affect peak memory.  Its
    ``stats`` attribute carries the run statistics once exhausted.
    """
    session = _session_for(dtd, root_element)
    return session.prepare(query).stream(document, options=options)


def run_query_to_sink(
    query: Union[str, XQExpr],
    document: DocumentSource,
    dtd: Union[str, DTD],
    writable,
    *,
    root_element: Optional[str] = None,
    options: Optional[ExecutionOptions] = None,
) -> FluxRunResult:
    """One-shot file-output run: write fragments straight into ``writable``.

    ``writable`` is anything with a ``write(str)`` method (an open file, a
    socket wrapper, ``sys.stdout``).  The result's ``output`` is ``None``;
    peak memory stays independent of output size.
    """
    session = _session_for(dtd, root_element)
    return session.prepare(query).execute(document, sink=writable, options=options)


def run_queries(
    queries: Union[Mapping[str, Union[str, XQExpr]], Sequence[Union[str, XQExpr]]],
    document: DocumentSource,
    dtd: Union[str, DTD],
    *,
    root_element: Optional[str] = None,
    options: Optional[ExecutionOptions] = None,
    sinks: Optional[Mapping[str, object]] = None,
) -> MultiQueryRun:
    """Run N queries over one shared document pass (multi-query execution).

    ``queries`` is either a mapping ``name -> query`` or a plain sequence
    (auto-named ``q0``, ``q1``, ...); see
    :meth:`~repro.core.session.FluxSession.prepare_many`.  When ``sinks``
    is given it must map every query name to a writable object.
    """
    if isinstance(queries, str):
        raise TypeError(
            "queries must be a mapping or a sequence of queries; "
            "for a single query use run_query(...)"
        )
    session = _session_for(dtd, root_element)
    return session.prepare_many(queries).execute(document, sinks=sinks, options=options)


def compare_engines(
    query: Union[str, XQExpr],
    document: DocumentSource,
    dtd: Union[str, DTD],
    *,
    root_element: Optional[str] = None,
    projection: bool = True,
) -> Dict[str, Dict[str, object]]:
    """Run the FluX engine and both baselines over the same input.

    Returns, per engine, the output, the peak buffered bytes and the elapsed
    time -- the three quantities the paper's evaluation reports.  The
    document must be re-readable (text or path), since it is consumed three
    times.  ``projection`` toggles the FluX engine's pre-executor filter so
    that API-driven ablations match the CLI's ``--no-projection``.
    """
    schema = load_dtd(dtd, root_element=root_element)
    expr = parse_query(query) if isinstance(query, str) else query

    session = FluxSession(schema)
    flux_result = session.prepare(expr, projection=projection).execute(document)

    naive_result = NaiveDomEngine(expr).run(document)
    projection_result = ProjectionDomEngine(expr).run(document)

    return {
        "flux": {
            "output": flux_result.output,
            "peak_buffered_bytes": flux_result.stats.peak_buffered_bytes,
            "peak_buffered_events": flux_result.stats.peak_buffered_events,
            "elapsed_seconds": flux_result.stats.elapsed_seconds,
        },
        "naive-dom": {
            "output": naive_result.output,
            "peak_buffered_bytes": naive_result.peak_buffered_bytes,
            "peak_buffered_events": naive_result.peak_buffered_events,
            "elapsed_seconds": naive_result.elapsed_seconds,
        },
        "projection-dom": {
            "output": projection_result.output,
            "peak_buffered_bytes": projection_result.peak_buffered_bytes,
            "peak_buffered_events": projection_result.peak_buffered_events,
            "elapsed_seconds": projection_result.elapsed_seconds,
        },
    }
