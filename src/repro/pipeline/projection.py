"""The pre-executor streaming projection automaton.

The DOM baselines have always benefited from projection (they drop unused
subtrees before building the tree); the streaming executor did not -- it
paid frame bookkeeping for every element of the document, even ones no part
of the query can observe.  This module closes that gap: from a compiled
:class:`~repro.engine.plan.QueryPlan` it derives a small tag-driven
automaton over the element hierarchy that decides, *per start tag*, whether
the subtree below can ever influence the run.  Events of provably
irrelevant subtrees are dropped before they reach the executor.

The automaton's states are sets of *positions* in the plan:

* ``scope`` positions -- the element hosts a live ``process-stream`` scope;
  a direct child the scope observes (:attr:`ScopeSpec.observed
  <repro.engine.plan.ScopeSpec.observed>`) must be delivered, since the
  executor steps the scope's automaton on it and looks up its handlers, and
  children matched by ``on`` handlers spawn nested positions.  Any other
  child is a silent move of that automaton and needs no delivery,
* ``buffer`` positions -- a node of a pruned buffer tree (Section 5); only
  child tags present in the tree are relevant, and a *marked* child switches
  to keep-everything mode (its whole subtree is captured),
* ``value`` positions -- a node of the on-the-fly condition-value trie; a
  terminal child needs its full text content, so its subtree is kept.

A start tag with no surviving position is dropped together with its entire
subtree (a single integer depth counter skips it); character data is only
forwarded inside keep-everything regions, which are exactly the regions
where the executor can route text anywhere (buffers, accumulators, copies).
A keep-everything region that only feeds buffers, accumulators and copies,
with nothing of the plan inside it, is :data:`OPAQUE`: the scanner may hand
its content over as one canonical text instead of events, and the element
then goes on in :data:`TAG_ONLY` for that query (its end tag, no child).

This module only *decides*: the byte scanner (:mod:`repro.fastpath.scanner`)
applies the decisions, through the flat transition table that
:class:`~repro.pipeline.fanout.DynamicFanout` fills lazily from
:meth:`ProjectionSpec.transition`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.engine.plan import QueryPlan, ScopeSpec

#: Position kinds inside a projection state.
_SCOPE = 0
_BUFFER = 1
_VALUE = 2

Position = Tuple[int, object]


class _State:
    """One interned automaton state: a set of plan positions.

    ``trans`` maps a child tag to the successor state, ``None`` for "drop the
    subtree", or :data:`KEEP_ALL` / :data:`OPAQUE` for "stop filtering
    below".  Transitions
    are computed lazily and memoized, so only the tag/state combinations the
    document actually contains are ever materialized.  ``hollow`` says that
    every transition is ``None``: each position is a scope that observes no
    child (no positions at all, in particular).
    """

    __slots__ = ("positions", "trans", "key", "hollow")

    def __init__(self, positions: Tuple[Position, ...], key: frozenset):
        self.positions = positions
        self.trans: Dict[str, Optional[object]] = {}
        self.key = key
        self.hollow = all(
            kind == _SCOPE and node.observed is not None and not node.observed
            for kind, node in positions
        )


class _KeepAll:
    """Sentinel state: inside a fully-captured (or copied) region."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<keep-all>"


KEEP_ALL = _KeepAll()


class _Opaque:
    """Sentinel state: a kept region the plan never looks inside.

    The element's whole subtree is kept, but no scope, buffer-tree path,
    value-trie path or ``on`` handler sits strictly inside it: its content
    is only captured, copied or accumulated, so its events need not exist
    one by one.  Below it, everything is opaque too.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<opaque>"


OPAQUE = _Opaque()

#: The state an :data:`OPAQUE` region takes once its content went raw: the
#: element keeps its tags and drops every child (shared by every query, as
#: it holds no position).
TAG_ONLY = _State((), frozenset())


def _opaque_scope(spec: ScopeSpec) -> bool:
    """Whether a root-marked scope never dispatches on its element's children:
    no ``on`` handler, no value trie, and only ``past()``/``past(*)``
    handlers (``past()`` fires when the scope opens and ``past(*)``, which
    has no past table, when it closes: neither fires on a child)."""
    return (
        not spec.on_by_tag
        and spec.value_trie is None
        and all(not handler.symbols for handler in spec.on_first)
    )


class ProjectionSpec:
    """The compiled projection automaton of one query plan (shareable)."""

    def __init__(self, plan: QueryPlan):
        self.plan = plan
        self._states: Dict[frozenset, _State] = {}
        self.initial = self._intern(self._scope_positions(plan.root_scope, ()))
        #: True when the root scope already captures everything -- the filter
        #: would be pure overhead and the pipeline bypasses it.
        self.trivial = self.initial is KEEP_ALL

    # ------------------------------------------------------------- building

    def _scope_positions(
        self, spec: ScopeSpec, acc: Tuple[Position, ...]
    ) -> Optional[Tuple[Position, ...]]:
        """Positions contributed by a scope opening at the current element.

        Returns ``None`` when the scope captures the element's whole subtree
        (root-marked buffer), i.e. the region must be kept unfiltered.
        """
        if spec.root_marked:
            return None
        positions = list(acc)
        positions.append((_SCOPE, spec))
        if spec.buffer_tree is not None and not spec.buffer_tree.is_empty():
            positions.append((_BUFFER, spec.buffer_tree))
        if spec.value_trie is not None:
            positions.append((_VALUE, spec.value_trie))
        return tuple(positions)

    def _intern(self, positions: Optional[Tuple[Position, ...]]):
        if positions is None:
            return KEEP_ALL
        key = frozenset((kind, id(node)) for kind, node in positions)
        state = self._states.get(key)
        if state is None:
            state = _State(positions, key)
            self._states[key] = state
        return state

    def transition(self, state: _State, tag: str):
        """Successor for ``tag``: a state, :data:`KEEP_ALL`, :data:`OPAQUE`,
        or ``None`` (drop).

        A kept subtree is opaque when every reason to keep it is one that
        never looks inside: a marked buffer child, a stream-copied child, a
        terminal value child without deeper value paths, or a root-marked
        scope that never dispatches on its children.
        """
        keep = False
        keep_all = False
        opaque = True
        positions: List[Position] = []
        for kind, node in state.positions:
            if kind == _SCOPE:
                # An observed child steps the scope's automaton, so its tag
                # is delivered; an unobserved one is a silent move.
                if node.observed is not None and tag not in node.observed:
                    continue
                keep = True
                handlers = node.on_by_tag.get(tag)
                if handlers is not None:
                    for handler in handlers:
                        if handler.nested is not None:
                            nested = self._scope_positions(handler.nested, ())
                            if nested is None:
                                keep_all = True
                                opaque = opaque and _opaque_scope(handler.nested)
                            else:
                                positions.extend(nested)
                        elif handler.copy is not None and handler.copy.copy_var is not None:
                            # The child subtree is stream-copied to output.
                            keep_all = True
            elif kind == _BUFFER:
                child = node.children.get(tag)
                if child is not None:
                    keep = True
                    if child.marked:
                        keep_all = True
                    elif child.children:
                        positions.append((_BUFFER, child))
            else:  # _VALUE
                child = node.children.get(tag)
                if child is not None:
                    keep = True
                    if child.terminal_path is not None:
                        # The element's full text content is accumulated.
                        keep_all = True
                    if child.children:
                        positions.append((_VALUE, child))
        if keep_all:
            return OPAQUE if opaque and not positions else KEEP_ALL
        if not keep and not positions:
            return None
        return self._intern(tuple(positions))
