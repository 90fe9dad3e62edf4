"""Unit tests for the public API helpers and a prepared query's basic shapes."""

import io

import pytest

from repro import FluxEngine, FluxSession, compare_engines, load_dtd
from repro.dtd.schema import ROOT_ELEMENT
from repro.xmark.usecases import BIB_DTD_UNORDERED, BIB_DTD_USECASES, XMP_INTRO

DOC = (
    "<bib>"
    "<book><title>Streams</title><author>Koch</author><publisher>V</publisher><price>5</price></book>"
    "</bib>"
)


def _intro():
    return FluxSession(BIB_DTD_USECASES, root_element="bib").prepare(XMP_INTRO)


def test_load_dtd_from_text_requires_root():
    with pytest.raises(ValueError):
        load_dtd(BIB_DTD_USECASES)
    dtd = load_dtd(BIB_DTD_USECASES, root_element="bib")
    assert ROOT_ELEMENT in dtd


def test_load_dtd_passes_through_rooted_dtd(bib_dtd_usecases):
    assert load_dtd(bib_dtd_usecases) is bib_dtd_usecases


def test_prepare_exposes_schedule_and_sources():
    prepared = FluxSession(BIB_DTD_UNORDERED, root_element="bib").prepare(XMP_INTRO)
    assert "on-first past(author,title)" in prepared.flux_source
    assert "for" in prepared.engine.rewrite_result.normalized.to_source()
    assert "author" in prepared.describe_buffers()


def test_prepared_query_executes_without_buffering():
    result = _intro().execute(DOC)
    assert "<title>Streams</title>" in result.output
    assert result.peak_buffered_events == 0
    assert result.peak_buffered_bytes == 0


def test_compare_engines_returns_all_three_rows():
    comparison = compare_engines(XMP_INTRO, DOC, BIB_DTD_USECASES, root_element="bib")
    assert set(comparison) == {"flux", "naive-dom", "projection-dom"}
    outputs = {row["output"] for row in comparison.values()}
    assert len(outputs) == 1
    assert comparison["flux"]["peak_buffered_bytes"] <= comparison["projection-dom"]["peak_buffered_bytes"]
    assert comparison["naive-dom"]["peak_buffered_bytes"] >= comparison["projection-dom"]["peak_buffered_bytes"]


def test_compare_engines_projection_toggle_passthrough():
    """The projection toggle must reach the FluX engine (API == CLI ablation)."""
    filtered = compare_engines(XMP_INTRO, DOC, BIB_DTD_USECASES, root_element="bib")
    unfiltered = compare_engines(
        XMP_INTRO, DOC, BIB_DTD_USECASES, root_element="bib", projection=False
    )
    assert filtered["flux"]["output"] == unfiltered["flux"]["output"]
    # Without the pre-executor filter the engine reads every event; with it,
    # the recorded totals still describe the full document (pre-drop).
    assert filtered["flux"]["peak_buffered_bytes"] == unfiltered["flux"]["peak_buffered_bytes"]


def test_prepared_query_streams_to_writable():
    writable = io.StringIO()
    result = _intro().execute(DOC, sink=writable)
    assert result.output is None
    collected = _intro().execute(DOC)
    assert writable.getvalue() == collected.output
    assert result.stats.output_bytes == collected.stats.output_bytes


def test_prepared_query_streams_to_file(tmp_path):
    target = tmp_path / "result.xml"
    with open(target, "w", encoding="utf-8") as handle:
        _intro().execute(DOC, sink=handle)
    collected = _intro().execute(DOC)
    assert target.read_text(encoding="utf-8") == collected.output


def test_engine_requires_root_information():
    from repro.dtd.parser import parse_dtd

    dtd = parse_dtd(BIB_DTD_USECASES)
    with pytest.raises(ValueError):
        FluxEngine(XMP_INTRO, dtd)
    prepared = FluxSession(dtd, root_element="bib").prepare(XMP_INTRO)
    assert prepared.execute(DOC).output


def test_engine_exposes_rewrite_result():
    engine = FluxEngine(XMP_INTRO, load_dtd(BIB_DTD_UNORDERED, root_element="bib"))
    assert engine.rewrite_result is not None
    assert engine.rewrite_result.normalized is not None
    assert engine.plan.buffer_trees


def test_prepared_query_reads_a_path(tmp_path):
    path = tmp_path / "bib.xml"
    path.write_text(DOC, encoding="utf-8")
    result = _intro().execute(path)
    assert "<title>Streams</title>" in result.output


def test_package_version_is_exposed():
    import repro

    assert repro.__version__
