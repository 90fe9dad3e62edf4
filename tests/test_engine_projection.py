"""Unit tests for the buffer-path analysis Π and the buffer trees (Section 5)."""

from repro.dtd.parser import parse_dtd
from repro.engine.projection import (
    BufferTreeNode,
    buffer_paths,
    buffer_tree_for_variable,
    buffer_trees,
    buffered_subexpressions,
    build_buffer_tree,
    condition_value_paths,
)
from repro.flux.parser import parse_flux
from repro.flux.rewrite import rewrite_to_flux
from repro.xquery.normalize import normalize
from repro.xquery.parser import parse_query
from repro.xmark.dtd import xmark_dtd
from repro.xmark.queries import QUERY_1, QUERY_8, QUERY_13, QUERY_20
from repro.xmark.usecases import BIB_DTD_UNORDERED


def test_pi_of_variable_output_marks_the_root():
    assert buffer_paths("$x", parse_query("{$x}")) == {(): True}


def test_pi_of_strings_is_empty():
    assert buffer_paths("$x", parse_query("<a>hello</a>")) == {}


def test_pi_of_for_loop_without_inner_use_keeps_tags_only():
    expr = normalize(parse_query("{ for $a in $x/author return <hit/> }"))
    assert buffer_paths("$x", expr) == {("author",): False}


def test_pi_of_for_loop_with_output_marks_the_path():
    expr = normalize(parse_query("{ for $a in $x/author return {$a} }"))
    assert buffer_paths("$x", expr) == {("author",): True}


def test_pi_follows_nested_loops():
    expr = normalize(parse_query(
        "{ for $b in $x/book return { for $p in $b/publisher return {$p} } }"
    ))
    # Per the paper's definition only the extended paths are recorded; the
    # intermediate book node reappears as an (unmarked) interior node of the
    # prefix tree.
    assert buffer_paths("$x", expr) == {("book", "publisher"): True}
    tree = build_buffer_tree(buffer_paths("$x", expr))
    assert not tree.children["book"].marked
    assert tree.children["book"].children["publisher"].marked


def test_pi_join_condition_marks_both_sides():
    expr = normalize(parse_query(
        "{ for $a in $x/article return { for $b in $x/book return "
        "{ if $a/author = $b/editor then <hit/> } } }"
    ))
    paths_x = buffer_paths("$x", expr)
    assert paths_x[("article", "author")] is True
    assert paths_x[("book", "editor")] is True


def test_pi_constant_conditions_on_the_scope_variable_are_not_buffered():
    # Conditions on the scope variable itself are evaluated on the fly with
    # flags (Section 5), so they never enter Π ...
    expr = normalize(parse_query("{ if $x/year > 1991 then <hit/> }"))
    assert buffer_paths("$x", expr) == {}


def test_pi_constant_conditions_on_inner_loop_variables_are_buffered():
    # ... but variables bound by for-loops inside a buffered expression range
    # over buffered nodes, so their condition paths must be captured.
    expr = normalize(parse_query(
        "{ for $b in $x/book return { if $b/year > 1991 then <hit/> } }"
    ))
    paths = buffer_paths("$x", expr)
    assert paths[("book", "year")] is True


def test_pi_captures_a_bare_loop_variable_in_a_condition():
    # ``$a`` compares its own value: the whole ``a`` subtree is needed, not
    # just its tags (a tags-only ``a`` would compare as the empty string).
    expr = normalize(parse_query(
        "{ for $a in $x/a where $a = $x/c return <hit/> }"
    ))
    assert buffer_paths("$x", expr) == {("a",): True, ("c",): True}
    expr = normalize(parse_query("{ for $a in $x/a return { if exists $a then <hit/> } }"))
    assert buffer_paths("$x", expr) == {("a",): True}


def test_paper_example_5_1_buffer_trees():
    """Figure 3: buffer trees of $bib and $article for the CEO query."""
    flux = parse_flux(
        """
        { ps $ROOT: on bib as $bib return
          { ps $bib: on article as $article return
            { ps $article: on-first past(author) return
              { for $book in $bib/book return
                { for $p in $book/publisher return
                  { if $article/author = $book/publisher/ceo then {$p} } } } } } }
        """
    )
    trees = buffer_trees(flux)
    assert set(trees) == {"$bib", "$article"}
    bib_tree = trees["$bib"]
    # book is traversed (unmarked), publisher is output (marked), and the
    # ceo node below publisher has been pruned away.
    book = bib_tree.children["book"]
    assert not book.marked
    publisher = book.children["publisher"]
    assert publisher.marked
    assert publisher.children == {}
    article_tree = trees["$article"]
    assert article_tree.children["author"].marked


def test_marked_nodes_are_pruned():
    tree = build_buffer_tree({("a",): True, ("a", "b"): True, ("a", "b", "c"): False})
    assert tree.children["a"].marked
    assert tree.children["a"].children == {}


def test_covers_checks_marked_prefixes():
    tree = build_buffer_tree({("a", "b"): True, ("c",): False})
    assert tree.covers(("a", "b"))
    assert tree.covers(("a", "b", "d"))
    assert not tree.covers(("a",))  # unmarked interior node: tags only, no content
    assert not tree.covers(("c",))
    assert not tree.covers(("zzz",))
    root_marked = build_buffer_tree({(): True})
    assert root_marked.covers(("anything",))


def test_describe_renders_markers():
    tree = build_buffer_tree({("book", "publisher"): True})
    rendered = tree.describe("$bib")
    assert "$bib" in rendered and "publisher •" in rendered


def test_zero_buffering_queries_have_no_buffer_trees():
    dtd = xmark_dtd()
    for source in (QUERY_1, QUERY_13):
        flux = rewrite_to_flux(parse_query(source), dtd).flux
        assert buffer_trees(flux) == {}, source


def test_q20_buffers_exactly_one_person_subtree():
    flux = rewrite_to_flux(parse_query(QUERY_20), xmark_dtd()).flux
    trees = buffer_trees(flux)
    assert len(trees) == 1
    ((var, tree),) = trees.items()
    assert tree.marked  # the whole person element is captured


def test_q8_buffers_projected_people_and_closed_auctions():
    flux = rewrite_to_flux(parse_query(QUERY_8), xmark_dtd()).flux
    trees = buffer_trees(flux)
    assert len(trees) == 1
    tree = next(iter(trees.values()))
    people = tree.children["people"]
    person = people.children["person"]
    assert person.children["name"].marked
    assert person.children["person_id"].marked
    assert "emailaddress" not in person.children  # projection drops unused data
    closed = tree.children["closed_auctions"]
    assert closed.children["closed_auction"].marked


def test_condition_value_paths_exclude_buffer_covered_paths():
    dtd = parse_dtd(BIB_DTD_UNORDERED).with_root("bib")
    query = parse_query(
        '{ for $b in $ROOT/bib/book where $b/title = "X" return {$b/author} }'
    )
    flux = rewrite_to_flux(query, dtd).flux
    exprs = buffered_subexpressions(flux)
    from repro.flux.ast import maximal_xquery_subexpressions

    all_exprs = maximal_xquery_subexpressions(flux)
    book_var = next(var for var in buffer_trees(flux) if var != "$ROOT")
    tree = buffer_tree_for_variable(book_var, exprs)
    paths = condition_value_paths(book_var, all_exprs, tree)
    # author is buffered (output); title is only compared against a constant,
    # so it is tracked on the fly instead of being buffered.
    assert ("author",) not in paths
    assert ("title",) in paths


def test_buffer_tree_node_iter_paths():
    tree = build_buffer_tree({("a", "b"): True, ("c",): False})
    paths = dict(tree.iter_paths())
    assert paths[("a", "b")] is True
    assert paths[("c",)] is False
    assert ("a",) in paths
