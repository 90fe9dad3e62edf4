"""Recorded regression cases: shrunk repros of real engine bugs.

Each ``.case`` fixture under ``tests/fixtures/`` was produced by the fuzzing
sweep (``repro fuzz --seed 1``) *before* the corresponding engine fix and
shrunk by the delta-debugging minimizer.  Replaying them keeps three
formerly-broken behaviours pinned:

* ``seed1-case23`` -- an ``on-first past(S)`` handler triggered by a child
  outside ``S`` used to run at the child's *end*, emitting its literal
  after the child's streamed copy (``<t1/><row>`` instead of
  ``<row><t1/>``),
* ``seed1-case64`` -- a stream-copy gate only decidable at the child's end
  (``$v/t0`` inside ``on t0``) used to materialise a still-open scope
  buffer and crash with "unclosed element in event stream",
* ``seed1-case92`` -- the scheduler discharged a dependency on the loop's
  own symbol through the vacuously-true ``Ord(e2, e2)`` and pushed a
  condition over ``$v1/e2/t0`` into a nested handler that fired before the
  ``t0`` values had arrived, silently dropping output.

Two handcrafted fixtures cover indexed joins, which generated loop bodies
(always opening with ``<row>``) almost never reach: ``join-equality`` and
``join-range`` put every indexed operator, both operand orientations and a
``ScaledPath`` over hostile values -- whitespace, ``1``/``1.0``/``1e0``,
``INF``, ``NaN``/``nan``, empty, non-ASCII digits, several keys per node, a
missing key.

``dropped-subtrees`` is handcrafted too: generated documents are far too
small to reach the scanner's bulk path for dropped subtrees.  Its ASCII
document (so the oracle compares input bytes as well as events) puts large
plain dropped subtrees, some pretty-printed, next to near misses of the
plain rule -- an entity, a comment, CDATA, a PI, an attribute, a padded
tag, a self-closing tag and a nested same-name element.

``buffer-peak-attribution`` (``CaseGenerator(seed=101)`` case 19, its
``q0``) pins the batch charging of scope buffers: a release within a batch
must charge every pending append of the manager, or the logical peak of the
unbounded run (charged per batch) falls below the per-append peak of the
bounded run (paged buffers charge every append).

``buffered-loops`` is handcrafted and pins the shapes ``for`` loops over
buffered nodes take, now that loop variables are bound to event spans
rather than trees: a loop over a loop-bound node, ``{$a}`` and
``{$a/path}`` of nodes whose start tags carry attributes (without
attribute expansion, so the buffered copies drop them), ``exists`` /
``empty`` on loop-bound nodes, a loop over a root-marked buffer that an
``on-first`` handler runs before the scope element closes, and a join that
compares the loop variable itself (``$t = $s/book/author``).  The last two
were wrong before bare variables in conditions were buffered whole.

``bare-scope-variable`` is handcrafted and pins the scheduling of conditions
on a bare scope variable (``if $a = "2"``, ``if $p = "12x"``): the empty
path is a dependency on the variable's whole content, so the enclosing
expression runs at ``past(*)``, as ``{$a}`` does.  Before that, the handler
ran at ``past()`` and compared a value not read yet.

The replay path itself (``.case`` parsing -> oracle) is therefore tier-1
tested, which is what makes saved fuzz artifacts trustworthy repros.
"""

import os

import pytest

from repro.conformance import Oracle, load_case, replay
from repro.baselines import NaiveDomEngine
from repro.core.api import load_dtd
from repro.core.options import ExecutionOptions
from repro.engine.engine import FluxEngine
from repro.xmlstream.parser import parse_tree

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

CASES = (
    "seed1-case23.case",
    "seed1-case64.case",
    "seed1-case92.case",
    "join-equality.case",
    "join-range.case",
    "dropped-subtrees.case",
    "buffer-peak-attribution.case",
    "buffered-loops.case",
    "bare-scope-variable.case",
)


def _fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


@pytest.mark.parametrize("name", CASES)
def test_recorded_case_replays_green(name):
    report = replay(_fixture(name))
    assert report.passed


@pytest.mark.parametrize("name", CASES)
def test_recorded_case_matches_reference_byte_for_byte(name):
    """Belt and braces next to the oracle: direct naive-vs-flux comparison."""
    case = load_case(_fixture(name))
    schema = load_dtd(case.dtd_source, root_element=case.root)
    tree = parse_tree(case.document, expand_attrs=case.expand_attrs)
    for _qname, source in case.queries:
        expected = NaiveDomEngine(source).run_tree(tree).output
        got = FluxEngine(source, schema).execute(
            case.document, options=ExecutionOptions(expand_attrs=case.expand_attrs)
        )
        assert got.output == expected


def test_case23_on_first_fires_before_the_triggering_copy():
    """The q0 output must open <row> before the streamed <t1> copy."""
    case = load_case(_fixture("seed1-case23.case"))
    schema = load_dtd(case.dtd_source, root_element=case.root)
    output = FluxEngine(case.queries[0][1], schema).execute(
        case.document, options=ExecutionOptions(expand_attrs=case.expand_attrs)
    ).output
    assert output.index("<row>") < output.index("<t1>")


def test_case64_condition_over_open_scope_buffer_does_not_crash():
    case = load_case(_fixture("seed1-case64.case"))
    schema = load_dtd(case.dtd_source, root_element=case.root)
    result = FluxEngine(case.queries[0][1], schema).execute(
        case.document, options=ExecutionOptions(expand_attrs=case.expand_attrs)
    )
    assert result.output is not None


def test_case92_self_dependent_loop_is_buffered_not_streamed():
    """The rewrite must schedule the e2 loop behind past(e2), not 'on e2'."""
    from repro.core.api import compile_to_flux

    case = load_case(_fixture("seed1-case92.case"))
    schema = load_dtd(case.dtd_source, root_element=case.root)
    flux_source = compile_to_flux(case.queries[0][1], schema).flux_source
    # The conditional e2_kind output depends on $v1/e2/t0: it must not be
    # compiled into a nested streaming scope over e2.
    assert "on-first past(e2) return" in flux_source


def test_oracle_asserts_bounded_invariants_on_fixtures():
    oracle = Oracle()
    buffered = 0
    for name in CASES:
        report = oracle.check(load_case(_fixture(name)))
        buffered += report.buffered
    assert buffered >= 1, "regression cases should exercise the buffering legs"
