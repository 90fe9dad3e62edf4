"""Property-based equivalence tests (Theorem 4.3).

For randomly generated bibliography documents and the paper's use-case
queries, the streaming FluX engine, the in-memory reference semantics and the
projection baseline must all produce identical output -- under every DTD the
document happens to be valid for.
"""

from hypothesis import given, settings, strategies as st

from repro import FluxSession, NaiveDomEngine, ProjectionDomEngine
from repro.dtd.parser import parse_dtd
from repro.flux.rewrite import rewrite_to_flux
from repro.flux.safety import is_safe
from repro.xquery.parser import parse_query
from repro.xmark.usecases import (
    BIB_ARTICLES_DTD_ORDERED,
    BIB_ARTICLES_DTD_UNORDERED,
    BIB_DTD_ORDERED,
    BIB_DTD_UNORDERED,
    BIB_DTD_USECASES,
    XMP_INTRO,
    XMP_Q2,
    XMP_Q3,
    generate_bibliography,
)

_SIMPLE_QUERIES = (
    XMP_INTRO,
    XMP_Q2,
    "{ for $b in $ROOT/bib/book return {$b/author} }",
    "<all>{ $ROOT/bib/book/title }</all>",
    "{ for $b in $ROOT/bib/book return { if exists $b/author then <has/> } }",
)

_ORDERED_ONLY_QUERIES = (
    '{ for $b in $ROOT/bib/book where $b/publisher = "Addison-Wesley" return <r> {$b/title} </r> }',
)


def _run_all_engines(query, document, dtd):
    flux = FluxSession(dtd).prepare(query).execute(document)
    naive = NaiveDomEngine(query).run(document)
    projection = ProjectionDomEngine(query).run(document)
    return flux, naive, projection


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(_SIMPLE_QUERIES),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=1000),
)
def test_engines_agree_on_unordered_bibliographies(query, books, seed):
    document = generate_bibliography(books, seed=seed, ordered=False) if books else "<bib></bib>"
    dtd = parse_dtd(BIB_DTD_UNORDERED).with_root("bib")
    flux, naive, projection = _run_all_engines(query, document, dtd)
    assert flux.output == naive.output == projection.output


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(_SIMPLE_QUERIES + _ORDERED_ONLY_QUERIES),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=1000),
)
def test_engines_agree_on_usecase_bibliographies(query, books, seed):
    document = generate_bibliography(books, seed=seed, ordered=True)
    dtd = parse_dtd(BIB_DTD_USECASES).with_root("bib")
    flux, naive, projection = _run_all_engines(query, document, dtd)
    assert flux.output == naive.output == projection.output


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=1000),
)
def test_join_query_agrees_on_mixed_bibliographies(books, articles, seed):
    document = generate_bibliography(books, articles=articles, seed=seed)
    dtd = parse_dtd(BIB_ARTICLES_DTD_ORDERED).with_root("bib")
    flux, naive, projection = _run_all_engines(XMP_Q3, document, dtd)
    assert flux.output == naive.output == projection.output


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(_SIMPLE_QUERIES + (XMP_Q3,)),
    st.sampled_from(
        (
            BIB_DTD_UNORDERED,
            BIB_DTD_ORDERED,
            BIB_DTD_USECASES,
            BIB_ARTICLES_DTD_UNORDERED,
            BIB_ARTICLES_DTD_ORDERED,
        )
    ),
)
def test_rewrite_is_always_safe_for_every_dtd(query, dtd_source):
    dtd = parse_dtd(dtd_source).with_root("bib")
    result = rewrite_to_flux(parse_query(query), dtd)
    assert is_safe(result.flux, dtd)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=1000))
def test_buffered_data_never_exceeds_document_size(books, seed):
    document = generate_bibliography(books, seed=seed, ordered=False)
    dtd = parse_dtd(BIB_DTD_UNORDERED).with_root("bib")
    result = FluxSession(dtd).prepare(XMP_INTRO).execute(document)
    assert result.stats.peak_buffered_bytes <= len(document)
    assert result.stats.buffered_bytes_current == 0  # everything was released
