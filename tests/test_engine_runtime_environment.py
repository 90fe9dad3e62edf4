"""Unit tests for compiled handler bodies and conditions over scope buffers.

``_Scope`` stands for an executor's scope activation: what a compiled body
reads of it (``buffer``, ``value_store``, ``element_name``, ``memo``), plus
the variable and buffer tree it is compiled against.
"""

import pytest

import repro.engine.xquery_exec as xquery_exec
from repro.core.api import load_dtd
from repro.core.options import ExecutionOptions
from repro.engine.buffers import BufferManager
from repro.core.session import FluxSession
from repro.engine.projection import build_buffer_tree
from repro.engine.stats import RunStatistics
from repro.engine.xquery_exec import _Compiler, _HandlerCache, compile_handler, compile_test
from repro.pipeline.sinks import CollectSink
from repro.storage.governor import MemoryGovernor
from repro.xmlstream.events import Characters, EndElement, StartElement
from repro.xmlstream.tree import XMLNode, events_to_tree
from repro.xquery.errors import XQueryEvaluationError
from repro.xquery.parser import parse_condition, parse_query
from repro.xquery.semantics import evaluate_query


class _Scope:
    def __init__(self, var, element_name, *, buffer=None, buffer_tree=None, value_store=None):
        self.var = var
        self.element_name = element_name
        self.buffer = buffer
        self.tree = buffer_tree
        self.value_store = value_store if value_store is not None else {}
        self.memo = None


def _trees(*scopes):
    return {scope.var: scope.tree for scope in scopes if scope.tree is not None}


def _run(query, *scopes, sink=None):
    """The compiled handler body's output over the scopes."""
    sink = sink if sink is not None else CollectSink()
    run = compile_handler(parse_query(query), _trees(*scopes))
    run({scope.var: [scope] for scope in scopes}, sink)
    return sink


def _holds(condition, *scopes):
    test = compile_test(parse_condition(condition), _trees(*scopes))
    return test({scope.var: [scope] for scope in scopes})


def _reader(scope):
    """A compiler over one scope variable, its environment and a handler cache."""
    return _Compiler([scope.var], _trees(scope), None, None, ()), [scope], _HandlerCache()


def _values(scope, path):
    compiler, env, cache = _reader(scope)
    return [text for text, _ in compiler.values(scope.var, path)(env, cache)]


def _count(scope, path):
    compiler, env, cache = _reader(scope)
    return compiler.count(scope.var, path)(env, cache)


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
    return _Scope(
        "$b",
        "book",
        buffer=buffer,
        buffer_tree=tree,
        value_store={("title",): ["Streams"], ("year",): ["1994"]},
    )


def test_resolve_nodes_from_buffered_paths():
    compiler, env, cache = _reader(_book_scope_binding())
    nodes = compiler.nodes("$b", ("author",))
    spans = nodes(env, cache)
    assert [span.text() for span in spans] == ["Koch", "Scherzinger"]
    # Cached per handler execution: every read sees the same span objects.
    assert nodes(env, cache) is spans


def test_resolve_values_prefers_buffer_then_value_store():
    scope = _book_scope_binding()
    assert _values(scope, ("author",)) == ["Koch", "Scherzinger"]
    assert _values(scope, ("title",)) == ["Streams"]
    assert _values(scope, ("unknown",)) == []


def test_resolve_count_for_exists_and_empty():
    scope = _book_scope_binding()
    assert _count(scope, ("author",)) == 2
    assert _count(scope, ("title",)) == 1
    assert _count(scope, ("unknown",)) == 0


def test_loop_variables_bind_spans_inside_the_loop_only():
    scope = _book_scope_binding()
    query = '{ for $a in $b/author where ($a = "Koch" and exists $a) return <k>{$a}</k> }'
    assert _run(query, scope).text() == "<k><author>Koch</author></k>"
    # Outside the loop, $a is a scope variable nothing binds.
    with pytest.raises(XQueryEvaluationError):
        _holds("exists $a", scope)


def test_unbound_variable_raises():
    with pytest.raises(XQueryEvaluationError):
        _run("{ for $x in $missing/a return {$x} }")


def test_execute_expression_over_buffers():
    sink = _run("<rs>{ for $a in $b/author return <r>{$a}</r> }</rs>", _book_scope_binding())
    assert sink.text() == (
        "<rs><r><author>Koch</author></r><r><author>Scherzinger</author></r></rs>"
    )


def test_conditions_over_mixed_buffer_and_value_store():
    scope = _book_scope_binding()
    assert _holds('$b/title = "Streams"', scope)
    assert _holds("$b/year > 1991", scope)
    assert not _holds("$b/year > 2000", scope)
    assert _holds("exists $b/author", scope)
    assert _holds("empty($b/editor)", scope)


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
    binding = _Scope("$p", "person", buffer=buffer, buffer_tree=build_buffer_tree({(): True}))
    sink = _run("{$p}", binding)
    assert sink.text() == "<person><name>Ada</name></person>"
    assert sink.stats.output_events == 5
    assert _values(binding, ("name",)) == ["Ada"]


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
    if binding.tree.marked:
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
    sink = _run("{%s}" % "/".join((binding.var, *path)), binding)
    return sink.text(), sink.stats.output_events


@pytest.fixture(params=[0, 1 << 62], ids=["end-pointers", "scans"])
def walks(request, monkeypatch):
    """Paths over these small buffers are walked by end pointers, or not."""
    monkeypatch.setattr(xquery_exec, "_SKIP_MIN", request.param)


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
    return _Scope("$p", "person", buffer=buffer, buffer_tree=build_buffer_tree({(): True}))


@pytest.mark.parametrize("path", [(), ("name",), ("address",), ("address", "zip"), ("city",)])
def test_buffered_path_output_with_open_ancestors_matches_the_tree(path, walks):
    binding = _open_person_binding()
    assert _buffered_output(binding, path) == _tree_output(binding, path)


def test_buffered_output_closes_open_elements_and_drops_attributes(walks):
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
    tree = _reference_tree(binding)
    for path in [("author",), ("editor",)]:
        assert _count(binding, path) == len(tree.select_path(path))
    assert _values(binding, ("author",)) == ["Koch", "Scherzinger", ""]
    assert _holds("exists $b/author", binding)
    assert not _holds("empty($b/author)", binding)


def test_exists_and_empty_over_an_open_root_marked_buffer(walks):
    binding = _open_person_binding()
    tree = _reference_tree(binding)
    for path in [(), ("name",), ("address", "zip"), ("address", "street"), ("zip",)]:
        assert _count(binding, path) == len(tree.select_path(path)), path
    assert _holds("exists $p/address/zip", binding)
    assert _holds("empty($p/address/street)", binding)
    assert _values(binding, ("address",)) == ["Lon&donN1"]


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
def test_loops_over_buffered_spans_match_the_reference_evaluator(query, walks):
    binding = _open_person_binding()
    sink = _run(query, binding)
    expected = evaluate_query(parse_query(query), _reference_tree(binding), root_var="$p")
    assert sink.text() == expected
    assert expected.count("<") > 0


def test_a_loop_reads_a_paged_buffer_once():
    """Loops and direct reads share one decoded event list per handler execution."""
    governor = MemoryGovernor(64, page_bytes=256)
    stats = RunStatistics()
    manager = BufferManager(stats, governor=governor)
    buffer = manager.create_buffer("$b")
    for index in range(40):
        buffer.extend([StartElement("a"), Characters(f"{index:02d}" * 10), EndElement("a")])
    buffer.extend([StartElement("c"), Characters("07" * 10), EndElement("c")])
    manager.flush()
    assert stats.spill_count > 0
    binding = _Scope(
        "$b", "p", buffer=buffer, buffer_tree=build_buffer_tree({("a",): True, ("c",): True})
    )
    sink = _run("{ for $a in $b/a where $a = $b/c return {$a} }{$b/c}", binding)
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
    binding = _Scope("$x", "thing")
    compiler, env, cache = _reader(binding)
    assert compiler.nodes("$x", ("a",))(env, cache) == []
    assert _count(binding, ("a",)) == 0
    assert _run("{ for $a in $x/a return {$a} }", binding).text() == ""
    # An empty root-marked buffer (the scope element not buffered yet) too.
    empty = _Scope(
        "$x", "thing", buffer=BufferManager().create_buffer("$x"), buffer_tree=build_buffer_tree({(): True})
    )
    assert _count(empty, ()) == 0
    assert _values(empty, ("a",)) == []
    assert _run("{$x}{ for $a in $x/a return {$a} }", empty).text() == ""
