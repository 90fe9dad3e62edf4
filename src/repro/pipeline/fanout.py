"""Merged projection automaton for multi-query execution.

One registered query owns one :class:`~repro.pipeline.projection.ProjectionSpec`
(a tag-driven automaton over the element hierarchy).  When N queries read the
same document, scanning the stream N times is pure waste -- the pre-executor
stages dominate the per-query work once projection has shrunk the
sub-streams.  :class:`MergedProjectionSpec` lets one shared document pass
serve all registered queries by running the per-query automata *in
lockstep*.  A merged state is a tuple with one component per query: the
query's own interned projection state,
:data:`~repro.pipeline.projection.KEEP_ALL` (the query captures the whole
region), or ``None`` (the query dropped this subtree).  An event survives
the shared pass iff *any* component keeps it -- the union filter -- and each
merged state carries a per-query *membership mask* saying exactly which
queries keep it.

The shared scan itself is :class:`repro.fastpath.fanout.FastFanout`: it
compiles this automaton into a flat table and distributes materialized
survivors by the masks, so the sub-batch of query *i* is byte-for-byte the
stream the query's solo projection filter would have produced.

Merged states are interned on the component tuple (components are already
interned per query, so identity hashing is exact).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.pipeline.projection import KEEP_ALL, ProjectionSpec

#: One per-query component of a merged state: the query's own projection
#: state, ``KEEP_ALL``, or ``None`` (subtree dropped for that query).
Component = Optional[object]


class _MergedState:
    """One interned lockstep state over all registered queries.

    ``keep_mask`` is the membership bitmask of the queries that keep
    element events at this state (their component is not ``None``);
    ``chars_mask`` marks the queries inside a keep-everything region
    (character data is forwarded only there, mirroring the single-query
    filter).
    """

    __slots__ = ("components", "keep_mask", "chars_mask")

    def __init__(self, components: Tuple[Component, ...]):
        self.components = components
        keep_mask = 0
        chars_mask = 0
        for index, component in enumerate(components):
            if component is None:
                continue
            keep_mask |= 1 << index
            if component is KEEP_ALL:
                chars_mask |= 1 << index
        self.keep_mask = keep_mask
        self.chars_mask = chars_mask


class MergedProjectionSpec:
    """The union of N per-query projection automata (shareable across runs).

    ``specs[i]`` is query *i*'s :class:`ProjectionSpec`, or ``None`` when
    that query filters nothing (projection disabled, or a trivial spec the
    pipeline would bypass); its component is then pinned to ``KEEP_ALL`` and
    the query sees the entire document, exactly as in a solo run.
    """

    def __init__(self, specs: Sequence[Optional[ProjectionSpec]]):
        self.specs = tuple(specs)
        self.count = len(self.specs)
        if self.count == 0:
            raise ValueError("MergedProjectionSpec needs at least one query")
        self._states: dict = {}
        self.initial = self._intern(
            tuple(KEEP_ALL if spec is None else spec.initial for spec in self.specs)
        )

    def _intern(self, components: Tuple[Component, ...]) -> _MergedState:
        # Per-query states are interned by their own spec, so the component
        # tuple hashes and compares by identity -- exact and cheap.
        state = self._states.get(components)
        if state is None:
            state = _MergedState(components)
            self._states[components] = state
        return state

    def transition(self, state: _MergedState, tag: str) -> Optional[_MergedState]:
        """Lockstep successor for ``tag``; ``None`` when every query drops it."""
        specs = self.specs
        components: List[Component] = []
        any_kept = False
        for index, component in enumerate(state.components):
            if component is None or component is KEEP_ALL:
                successor = component
            else:
                successor = specs[index].transition(component, tag)
            components.append(successor)
            if successor is not None:
                any_kept = True
        if not any_kept:
            return None
        return self._intern(tuple(components))
