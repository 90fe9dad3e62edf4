"""Unit tests for the runtime environment used by on-first handler execution."""

import pytest

from repro.core.api import load_dtd
from repro.core.options import ExecutionOptions
from repro.engine.buffers import BufferManager
from repro.core.session import FluxSession
from repro.engine.projection import build_buffer_tree
from repro.engine.stats import RunStatistics
from repro.engine.xquery_exec import (
    RuntimeEnvironment,
    ScopeBinding,
    evaluate_condition_runtime,
    execute_expression,
)
from repro.pipeline.sinks import CollectSink
from repro.storage.governor import MemoryGovernor
from repro.xmlstream.events import Characters, EndElement, StartElement
from repro.xmlstream.tree import XMLNode, events_to_tree
from repro.xquery.errors import XQueryEvaluationError
from repro.xquery.parser import parse_condition, parse_query
from repro.xquery.semantics import evaluate_query


def _book_scope_binding():
    """A $b scope whose buffer holds two authors; title is tracked as a value."""
    manager = BufferManager()
    buffer = manager.create_buffer("$b")
    buffer.extend(
        [
            StartElement("author"),
            Characters("Koch"),
            EndElement("author"),
            StartElement("author"),
            Characters("Scherzinger"),
            EndElement("author"),
        ]
    )
    tree = build_buffer_tree({("author",): True})
    return ScopeBinding(
        "$b",
        "book",
        buffer=buffer,
        buffer_tree=tree,
        value_store={("title",): ["Streams"], ("year",): ["1994"]},
    )


def test_resolve_nodes_from_buffered_paths():
    env = RuntimeEnvironment({"$b": _book_scope_binding()})
    nodes = env.resolve_nodes("$b", ("author",))
    assert [node.text() for node in nodes] == ["Koch", "Scherzinger"]
    # Cached per handler execution: every read sees the same span objects.
    assert env.resolve_nodes("$b", ("author",)) is nodes


def test_resolve_values_prefers_buffer_then_value_store():
    env = RuntimeEnvironment({"$b": _book_scope_binding()})
    assert env.resolve_values("$b", ("author",)) == ["Koch", "Scherzinger"]
    assert env.resolve_values("$b", ("title",)) == ["Streams"]
    assert env.resolve_values("$b", ("unknown",)) == []


def test_resolve_count_for_exists_and_empty():
    env = RuntimeEnvironment({"$b": _book_scope_binding()})
    assert env.resolve_count("$b", ("author",)) == 2
    assert env.resolve_count("$b", ("title",)) == 1
    assert env.resolve_count("$b", ("unknown",)) == 0


def test_with_node_binds_loop_variables_without_mutating_parent():
    env = RuntimeEnvironment({"$b": _book_scope_binding()})
    author = env.resolve_nodes("$b", ("author",))[0]
    child = env.with_node("$a", author)
    assert child.resolve_values("$a", ()) == ["Koch"]
    assert child.resolve_count("$a", ()) == 1
    with pytest.raises(XQueryEvaluationError):
        env.binding("$a")


def test_unbound_variable_raises():
    env = RuntimeEnvironment({})
    with pytest.raises(XQueryEvaluationError):
        env.resolve_nodes("$missing", ("a",))


def test_execute_expression_over_buffers():
    env = RuntimeEnvironment({"$b": _book_scope_binding()})
    sink = CollectSink()
    expr = parse_query("<rs>{ for $a in $b/author return <r>{$a}</r> }</rs>")
    execute_expression(expr, env, sink)
    assert sink.text() == (
        "<rs><r><author>Koch</author></r><r><author>Scherzinger</author></r></rs>"
    )


def test_conditions_over_mixed_buffer_and_value_store():
    env = RuntimeEnvironment({"$b": _book_scope_binding()})
    assert evaluate_condition_runtime(parse_condition('$b/title = "Streams"'), env)
    assert evaluate_condition_runtime(parse_condition("$b/year > 1991"), env)
    assert not evaluate_condition_runtime(parse_condition("$b/year > 2000"), env)
    assert evaluate_condition_runtime(parse_condition("exists $b/author"), env)
    assert evaluate_condition_runtime(parse_condition("empty($b/editor)"), env)


def test_root_marked_scope_materialises_the_element_itself():
    manager = BufferManager()
    buffer = manager.create_buffer("$p")
    buffer.extend(
        [
            StartElement("person"),
            StartElement("name"),
            Characters("Ada"),
            EndElement("name"),
            EndElement("person"),
        ]
    )
    binding = ScopeBinding(
        "$p", "person", buffer=buffer, buffer_tree=build_buffer_tree({(): True})
    )
    env = RuntimeEnvironment({"$p": binding})
    sink = CollectSink()
    execute_expression(parse_query("{$p}"), env, sink)
    assert sink.text() == "<person><name>Ada</name></person>"
    assert sink.stats.output_events == 5
    assert env.resolve_values("$p", ("name",)) == ["Ada"]


# ---------------------------------------------------------------------------
# Buffered reads walk the events; a tree built here is the reference


def _reference_tree(binding):
    """The scope's node as a tree: the buffer's events with open elements closed."""
    events = list(binding.buffer.events)
    open_names = []
    for event in events:
        if isinstance(event, StartElement):
            open_names.append(event.name)
        elif isinstance(event, EndElement):
            open_names.pop()
    events.extend(EndElement(name) for name in reversed(open_names))
    root = events_to_tree(events)
    if binding.root_marked:
        return root
    # A buffer without the scope element holds its children.
    if root is None:
        return XMLNode(binding.element_name)
    children = root.children if root.name == "#fragment" else [root]
    return XMLNode(binding.element_name, list(children))


def _tree_output(binding, path):
    """``(text, output_events)`` serialising the reference tree writes for ``{$x/path}``."""
    sink = CollectSink()
    for node in _reference_tree(binding).select_path(path):
        sink.write_events(node.to_events())
    return sink.text(), sink.stats.output_events


def _buffered_output(binding, path):
    sink = CollectSink()
    env = RuntimeEnvironment({binding.var: binding})
    execute_expression(parse_query("{%s}" % "/".join((binding.var, *path))), env, sink)
    return sink.text(), sink.stats.output_events


def _open_person_binding():
    """A root-marked ``$p`` read mid-stream: ``person`` and ``address`` are still open."""
    buffer = BufferManager().create_buffer("$p")
    buffer.extend(
        [
            StartElement("person", (("id", "p0"),)),
            StartElement("name"),
            Characters("Ada "),
            Characters("L."),
            EndElement("name"),
            StartElement("address", (("kind", "home"),)),
            StartElement("city"),
            Characters("Lon&don"),
            EndElement("city"),
            StartElement("zip"),
            Characters("N1"),
        ]
    )
    return ScopeBinding("$p", "person", buffer=buffer, buffer_tree=build_buffer_tree({(): True}))


@pytest.mark.parametrize("path", [(), ("name",), ("address",), ("address", "zip"), ("city",)])
def test_buffered_path_output_with_open_ancestors_matches_the_tree(path):
    binding = _open_person_binding()
    assert _buffered_output(binding, path) == _tree_output(binding, path)


def test_buffered_output_closes_open_elements_and_drops_attributes():
    binding = _open_person_binding()
    assert _buffered_output(binding, ("address",)) == (
        "<address><city>Lon&amp;don</city><zip>N1</zip></address>",
        8,
    )
    # Two text events stay two output events, as the tree's two text children.
    assert _buffered_output(binding, ("name",)) == ("<name>Ada L.</name>", 4)


def test_buffered_forest_output_and_conditions_match_the_tree():
    binding = _book_scope_binding()
    binding.buffer.append(StartElement("author", (("role", "editor"),)))
    binding.buffer.append(EndElement("author"))
    assert _buffered_output(binding, ("author",)) == _tree_output(binding, ("author",))
    assert _buffered_output(binding, ("author",))[0].endswith("<author></author>")
    env = RuntimeEnvironment({"$b": binding})
    tree = _reference_tree(binding)
    for path in [("author",), ("editor",)]:
        assert env.resolve_count("$b", path) == len(tree.select_path(path))
    assert env.resolve_values("$b", ("author",)) == ["Koch", "Scherzinger", ""]
    assert evaluate_condition_runtime(parse_condition("exists $b/author"), env)
    assert not evaluate_condition_runtime(parse_condition("empty($b/author)"), env)


def test_exists_and_empty_over_an_open_root_marked_buffer():
    binding = _open_person_binding()
    env = RuntimeEnvironment({"$p": binding})
    tree = _reference_tree(binding)
    for path in [(), ("name",), ("address", "zip"), ("address", "street"), ("zip",)]:
        assert env.resolve_count("$p", path) == len(tree.select_path(path)), path
    assert evaluate_condition_runtime(parse_condition("exists $p/address/zip"), env)
    assert evaluate_condition_runtime(parse_condition("empty($p/address/street)"), env)
    assert env.resolve_values("$p", ("address",)) == ["Lon&donN1"]


@pytest.mark.parametrize(
    "query",
    [
        # a loop over a loop-bound node, the inner one still open
        "{ for $a in $p/address return <a>{ for $z in $a/zip return {$z} }{$a/city}</a> }",
        # {$a} of open and closed loop nodes whose start tags carry attributes
        "{ for $a in $p/address return {$a} }{ for $n in $p/name return {$n} }",
        # exists / empty and values on loop-bound nodes
        "{ for $a in $p/address return"
        " { if (exists $a/zip and empty($a/street) and $a/city = \"Lon&don\") then <y/> } }",
        "{ for $n in $p/name where $n = \"Ada L.\" return <n/> }",
    ],
)
def test_loops_over_buffered_spans_match_the_reference_evaluator(query):
    binding = _open_person_binding()
    sink = CollectSink()
    execute_expression(parse_query(query), RuntimeEnvironment({"$p": binding}), sink)
    expected = evaluate_query(parse_query(query), _reference_tree(binding), root_var="$p")
    assert sink.text() == expected
    assert expected.count("<") > 0


def test_a_loop_reads_a_paged_buffer_once():
    """Loops and direct reads share one decoded event list per handler execution."""
    governor = MemoryGovernor(64, page_bytes=256)
    stats = RunStatistics()
    manager = BufferManager(stats, factory=governor.make_buffer)
    buffer = manager.create_buffer("$b")
    for index in range(40):
        buffer.extend([StartElement("a"), Characters(f"{index:02d}" * 10), EndElement("a")])
    buffer.extend([StartElement("c"), Characters("07" * 10), EndElement("c")])
    manager.flush()
    assert stats.spill_count > 0
    binding = ScopeBinding(
        "$b", "p", buffer=buffer, buffer_tree=build_buffer_tree({("a",): True, ("c",): True})
    )
    sink = CollectSink()
    query = "{ for $a in $b/a where $a = $b/c return {$a} }{$b/c}"
    execute_expression(parse_query(query), RuntimeEnvironment({"$b": binding}), sink)
    assert sink.text() == "<a>%s</a><c>%s</c>" % ("07" * 10, "07" * 10)
    assert stats.page_faults == stats.spill_count
    buffer.release()
    governor.close()


def test_buffered_copy_drops_attributes_a_streamed_copy_keeps():
    """Without attribute expansion, trees never carried attributes: a
    buffered ``{$a}`` writes ``<a>`` where a stream-copied one writes the
    source's ``<a x="1">``."""
    schema = load_dtd(
        "<!ELEMENT r (a*)> <!ELEMENT a (b?, c?)> "
        "<!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)>",
        root_element="r",
    )
    document = '<r><a x="1"><b y="2">t</b></a><a><c>u</c></a></r>'
    options = ExecutionOptions(expand_attrs=False)
    session = FluxSession(schema)
    buffered = session.prepare(
        "<o>{ for $a in /r/a where empty($a/c) return {$a} }</o>"
    ).execute(document, options=options)
    streamed = session.prepare("<o>{ for $a in /r/a return {$a} }</o>").execute(
        document, options=options
    )
    assert buffered.stats.peak_buffered_bytes > 0
    assert buffered.output == "<o><a><b>t</b></a></o>"
    assert buffered.stats.output_events == 5
    assert streamed.stats.peak_buffered_bytes == 0
    assert streamed.output == '<o><a x="1"><b y="2">t</b></a><a><c>u</c></a></o>'


def test_scope_binding_without_buffer_behaves_as_empty():
    binding = ScopeBinding("$x", "thing")
    env = RuntimeEnvironment({"$x": binding})
    assert env.resolve_nodes("$x", ("a",)) == []
    assert env.resolve_count("$x", ("a",)) == 0
    sink = CollectSink()
    execute_expression(parse_query("{ for $a in $x/a return {$a} }"), env, sink)
    assert sink.text() == ""
    # An empty root-marked buffer (the scope element not buffered yet) too.
    empty = ScopeBinding(
        "$x", "thing", buffer=BufferManager().create_buffer("$x"), buffer_tree=build_buffer_tree({(): True})
    )
    env = RuntimeEnvironment({"$x": empty})
    assert env.resolve_count("$x", ()) == 0
    assert env.resolve_values("$x", ("a",)) == []
    execute_expression(parse_query("{$x}{ for $a in $x/a return {$a} }"), env, sink)
    assert sink.text() == ""
