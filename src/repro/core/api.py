"""Schema loading and the baseline comparison.

Compiling and running queries is the session's job
(:mod:`repro.core.session`): hold a
:class:`~repro.core.session.FluxSession`, ``prepare`` a query or
``prepare_many`` a named set -- both give one
:class:`~repro.core.session.PreparedQuery`, which carries the scheduled
FluX query and its plan -- and run it with its verbs.  The helpers here
sit beside that path: :func:`load_dtd` roots a schema and
:func:`compare_engines` runs FluX next to both DOM baselines.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.baselines import NaiveDomEngine, ProjectionDomEngine
from repro.core.session import FluxSession
from repro.dtd.parser import parse_dtd
from repro.dtd.schema import DTD
from repro.engine.engine import ensure_rooted
from repro.xmlstream.source import DocumentSource
from repro.xquery.ast import XQExpr
from repro.xquery.parser import parse_query


def load_dtd(source: Union[str, DTD], *, root_element: Optional[str] = None) -> DTD:
    """Parse (if necessary) a DTD and attach the virtual document root.

    Rooting follows the engine's rules (:func:`ensure_rooted`): an explicit
    ``root_element`` wins, otherwise a root the DTD itself declares; a DTD
    with neither raises ``ValueError``.
    """
    dtd = parse_dtd(source) if isinstance(source, str) else source
    return ensure_rooted(dtd, root_element)


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
