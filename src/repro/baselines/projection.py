"""Projection baseline (Marian & Siméon-style, reference [14] of the paper).

The projection baseline is the strongest competitor that does *not* use
schema information: before materialising the document it computes the set of
paths the query mentions and keeps only nodes on (or below) those paths.
Memory therefore grows with the *projected* document.  Unlike the FluX
engine it cannot exploit order constraints, so even fully streamable queries
still buffer their projected data.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.baselines.common import BaselineResult, tree_cost
from repro.xmlstream.events import Characters, EndElement, Event, StartElement
from repro.xmlstream.parser import DocumentSource, iter_events
from repro.xmlstream.tree import XMLNode
from repro.xquery.analysis import binding_environment, path_references
from repro.xquery.ast import ROOT_VARIABLE, XQExpr
from repro.xquery.normalize import normalize
from repro.xquery.parser import parse_query

Path = Tuple[str, ...]


def projection_path_sets(query: XQExpr, *, root_var: str = ROOT_VARIABLE) -> Tuple[Set[Path], Set[Path]]:
    """Both path sets used by the projecting builder.

    Every path reference is resolved through the chain of for-loop bindings
    back to ``$ROOT`` (absolute paths from the virtual root); paths rooted at
    variables that cannot be resolved (which does not happen for well-formed
    XQuery⁻ queries) are ignored.  The first set contains every referenced
    path (including pure navigation spines of for-loops): nodes *on* these
    paths are kept.  The second set contains the paths whose content is
    actually read (outputs and condition operands): nodes *below* these
    paths are kept as well.
    """
    normalized = normalize(query)
    env = binding_environment(normalized, root_var)
    all_paths: Set[Path] = set()
    content_paths: Set[Path] = set()
    for var, path, kind in path_references(normalized):
        absolute = _absolute_path(var, path, env, root_var)
        if absolute is None:
            continue
        all_paths.add(absolute)
        if kind in ("output", "var-output", "condition"):
            content_paths.add(absolute)
    return all_paths, content_paths


def _absolute_path(var: str, path: Path, env: Dict[str, Tuple[str, Path]], root_var: str) -> Optional[Path]:
    steps: List[str] = list(path)
    current = var
    seen = set()
    while current not in (root_var, ROOT_VARIABLE):
        if current in seen or current not in env:
            return None
        seen.add(current)
        source, source_path = env[current]
        steps = list(source_path) + steps
        current = source
    return tuple(steps)


class _ProjectingBuilder:
    """Builds a projected tree from an event stream.

    A node is materialised when its absolute path lies *on* some referenced
    path (interior/navigation node) or *below* a content path (descendant of
    a subtree whose content is read).  Everything else is skipped.
    """

    def __init__(self, paths: Set[Path], content_paths: Optional[Set[Path]] = None):
        self._paths = paths
        self._content_paths = content_paths if content_paths is not None else set(paths)
        self._path_stack: List[str] = []
        self._node_stack: List[Optional[XMLNode]] = []
        self.root: Optional[XMLNode] = None

    def _keep(self, path: Tuple[str, ...]) -> bool:
        for candidate in self._paths:
            if len(path) <= len(candidate) and candidate[: len(path)] == path:
                return True
        for candidate in self._content_paths:
            if len(path) > len(candidate) and path[: len(candidate)] == candidate:
                return True
        return False

    def feed(self, event: Event) -> None:
        if isinstance(event, StartElement):
            self._path_stack.append(event.name)
            keep = self._keep(tuple(self._path_stack))
            parent = self._node_stack[-1] if self._node_stack else None
            if keep:
                node = XMLNode(event.name)
                if parent is not None:
                    parent.append_child(node)
                elif self.root is None:
                    self.root = node
                self._node_stack.append(node)
            else:
                self._node_stack.append(None)
        elif isinstance(event, EndElement):
            self._path_stack.pop()
            self._node_stack.pop()
        elif isinstance(event, Characters):
            if self._node_stack and self._node_stack[-1] is not None:
                self._node_stack[-1].append_child(event.text)


class ProjectionDomEngine:
    """Project the document to the query's paths, then evaluate in memory."""

    name = "projection-dom"

    def __init__(self, query: Union[str, XQExpr]):
        self.query = parse_query(query) if isinstance(query, str) else query
        self.paths, self.content_paths = projection_path_sets(self.query)

    def run(self, document: DocumentSource, *, collect_output: bool = True) -> BaselineResult:
        """Run the query over ``document`` with path projection."""
        started = time.perf_counter()
        events = iter_events(document, document_events=False)
        result = self.run_events(events, collect_output=collect_output)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def run_events(self, events: Iterable[Event], *, collect_output: bool = True) -> BaselineResult:
        """Run over an already-parsed event iterable."""
        from repro.xquery.semantics import evaluate_to_string

        started = time.perf_counter()
        builder = _ProjectingBuilder(self.paths, self.content_paths)
        for event in events:
            builder.feed(event)
        root = builder.root if builder.root is not None else XMLNode("#empty")
        events_cost, bytes_cost = tree_cost(root)
        output = evaluate_to_string(self.query, root)
        elapsed = time.perf_counter() - started
        return BaselineResult(
            output=output if collect_output else None,
            peak_buffered_events=events_cost,
            peak_buffered_bytes=bytes_cost,
            elapsed_seconds=elapsed,
            output_bytes=len(output),
        )
