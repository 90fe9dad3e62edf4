"""The union projection automaton: one document pass serves every query.

One query owns one :class:`~repro.pipeline.projection.ProjectionSpec` (a
tag-driven automaton over the element hierarchy).  :class:`DynamicFanout`
runs any number of them *in lockstep*, one **slot** per query: a state is a
tuple with one component per slot -- the query's own interned projection
state, :data:`~repro.pipeline.projection.KEEP_ALL` (the query captures the
whole region), or ``None`` (the query dropped this subtree).  An event
survives the shared pass iff *any* slot keeps it, and each state carries
per-slot *membership masks* saying exactly which, so the sub-stream of slot
*i* is byte for byte what the query's solo filter would have produced.

It is the only automaton the scanner ever runs against, in three shapes:

* **solo** -- a :class:`~repro.engine.engine.FluxEngine` holds a one-slot
  fanout (``attach(None)`` when projection is off or trivial: the slot is
  pinned to keep-everything);
* **static multi-query** -- a :class:`~repro.core.session.PreparedQuerySet`
  attaches N slots once, when ``prepare_many`` builds it, and never churns;
* **serve** -- the subscription hub attaches and detaches mid-stream:

  * **attach** (delta-merge): a new query appends a slot.  The intern
    table is discarded (component tuples grew by one), but re-deriving a
    state is pure dict work for every pre-existing query: per-query
    transitions are memoized on the queries' own interned
    :class:`~repro.pipeline.projection._State` objects (``state.trans``),
    which survive untouched.  Only the *new* query's automaton computes
    real transitions -- the delta.  The ``recompiles`` counter does not
    move.
  * **detach** (tombstone): the slot is marked inactive and its bit is
    cleared from the membership masks of every interned state (and, in
    place, from the flat table's per-row masks).  No transition is
    recomputed, no state is discarded; the dead slot's component keeps
    riding the (memoized) lockstep product until the next :meth:`compact`.
  * :meth:`compact` is the only full re-merge: it drops tombstoned slots
    from the component tuples and rebuilds the intern table -- the
    operation the ``recompiles`` counter counts, and the one a server
    schedules at leisure (or never), not on the churn path.

The run-side cursor is the byte scanner over :meth:`DynamicFanout.table`
(the flat table delegates to :meth:`DynamicFanout.transition`); the fanout
also owns the shared :class:`~repro.fastpath.tags.TagTable`, so every run
over it hits warm interning state.  Sub-batch position *i* always belongs
to slot ``order()[i]``; tombstoned slots keep their position (and receive
nothing) until a compaction renumbers.  With no slot at all the automaton
drops everything -- the hub's idle scan, which only tracks document
boundaries.

Mutations are only legal between documents -- exactly the boundary the
subscription hub applies churn at -- because interned states cached in a
run's cursor stack would otherwise go stale mid-document.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.fastpath.dfa import FlatProjectionTable
from repro.fastpath.tags import TagTable
from repro.pipeline.projection import KEEP_ALL, ProjectionSpec

#: Sentinel distinguishing "memo miss" from a memoized ``None`` (drop).
_MISS = object()


class _DynState:
    """One interned lockstep state over the current slot tuple.

    ``keep_mask`` marks the slots that keep element events at this state
    (their component is not ``None``); ``chars_mask`` the slots inside a
    keep-everything region (character data is forwarded only there).  Both
    are intersected with the fanout's *active* mask, so a tombstoned slot's
    component can keep riding the product (its transitions are all memo
    hits) while its bit never reaches a sub-batch.  :meth:`refresh`
    re-derives the masks in place -- that is all a detach costs per state.
    """

    __slots__ = ("components", "keep_mask", "chars_mask")

    def __init__(self, components: Tuple[object, ...], active_mask: int):
        self.components = components
        self.refresh(active_mask)

    def refresh(self, active_mask: int) -> None:
        keep_mask = 0
        chars_mask = 0
        for index, component in enumerate(self.components):
            if component is None or not active_mask >> index & 1:
                continue
            keep_mask |= 1 << index
            if component is KEEP_ALL:
                chars_mask |= 1 << index
        self.keep_mask = keep_mask
        self.chars_mask = chars_mask


class _Slot:
    """One query's seat in the lockstep product."""

    __slots__ = ("slot_id", "spec", "active")

    def __init__(self, slot_id: int, spec: Optional[ProjectionSpec]):
        self.slot_id = slot_id
        self.spec = spec
        self.active = True


class DynamicFanout:
    """A mutable union projection automaton with stable slot identities."""

    def __init__(self):
        self._slot_ids = itertools.count(1)
        self._slots: List[_Slot] = []
        self._active_mask = 0
        self._states: Dict[Tuple[object, ...], _DynState] = {}
        self._initial: Optional[_DynState] = None
        #: Tag interning shared by every run over this fanout; survives
        #: table rebuilds so interned tag ids stay valid across attaches.
        self.tags = TagTable()
        self._table: Optional[FlatProjectionTable] = None
        self._indices: Dict[int, Tuple[int, ...]] = {}
        #: Full re-merges of the union automaton (only :meth:`compact`).
        self.recompiles = 0
        self.attaches = 0
        self.detaches = 0

    # -------------------------------------------------------------- mutation

    @property
    def width(self) -> int:
        """Slots currently holding a position (tombstones included)."""
        return len(self._slots)

    @property
    def active_count(self) -> int:
        return sum(1 for slot in self._slots if slot.active)

    def order(self) -> Tuple[int, ...]:
        """Slot ids by sub-batch position (tombstones keep their seat)."""
        return tuple(slot.slot_id for slot in self._slots)

    def specs(self) -> Tuple[Optional[ProjectionSpec], ...]:
        """Slot automata by sub-batch position (``None``: keeps everything)."""
        return tuple(slot.spec for slot in self._slots)

    def attach(self, spec: Optional[ProjectionSpec]) -> int:
        """Delta-merge one query into the union; returns its slot id.

        ``spec`` is the query's projection automaton (``None`` pins the
        slot to keep-everything, like a projection-disabled query).  Only
        the dynamic intern table is reset: every pre-existing query's own
        memoized transitions are reused verbatim, so the re-derivation
        work as the stream continues touches only the new query's states.
        """
        slot = _Slot(next(self._slot_ids), spec)
        self._slots.append(slot)
        self._active_mask |= 1 << (len(self._slots) - 1)
        self.attaches += 1
        self._reset_states()
        return slot.slot_id

    def detach(self, slot_id: int) -> None:
        """Tombstone one slot: clear its membership bit everywhere, in place.

        No transition is recomputed and no interned state is discarded --
        the mutation is a mask sweep over the states the stream has
        actually visited (plus the flat table's rows).
        """
        position = self._position(slot_id)
        slot = self._slots[position]
        if not slot.active:
            raise ValueError(f"slot {slot_id} is already detached")
        slot.active = False
        self._active_mask &= ~(1 << position)
        self.detaches += 1
        active_mask = self._active_mask
        if self._initial is not None:
            self._initial.refresh(active_mask)
        for state in self._states.values():
            if state is not self._initial:
                state.refresh(active_mask)
        if self._table is not None:
            self._table.refresh_metadata()
        self._indices.clear()

    def compact(self) -> int:
        """Drop tombstoned slots and rebuild the product over the survivors.

        The one *full* re-merge -- ``recompiles`` counts it.  Sub-batch
        positions shift; callers must re-read :meth:`order`.  Returns the
        number of seats reclaimed.
        """
        reclaimed = sum(1 for slot in self._slots if not slot.active)
        if reclaimed:
            self._slots = [slot for slot in self._slots if slot.active]
        self.recompiles += 1
        self._active_mask = (1 << len(self._slots)) - 1
        self._reset_states()
        return reclaimed

    # ------------------------------------------------------------ automaton

    def _position(self, slot_id: int) -> int:
        for position, slot in enumerate(self._slots):
            if slot.slot_id == slot_id:
                return position
        raise KeyError(f"no slot {slot_id}; live slots: {self.order()}")

    def _reset_states(self) -> None:
        self._states = {}
        self._initial = None
        self._table = None
        self._indices.clear()

    @property
    def initial(self) -> _DynState:
        if self._initial is None:
            components = tuple(
                KEEP_ALL if slot.spec is None else slot.spec.initial for slot in self._slots
            )
            self._initial = self._intern(components)
        return self._initial

    def _intern(self, components: Tuple[object, ...]) -> _DynState:
        state = self._states.get(components)
        if state is None:
            state = _DynState(components, self._active_mask)
            self._states[components] = state
        return state

    def transition(self, state: _DynState, tag: str) -> Optional[_DynState]:
        """Lockstep successor for ``tag``; ``None`` when every slot drops.

        Per-slot successors are looked up in the slot automaton's *own*
        per-state memo first (``_State.trans``), so replaying a warm
        stream after an attach never re-enters a pre-existing query's
        transition function.
        """
        slots = self._slots
        components: List[object] = []
        any_kept = False
        for index, component in enumerate(state.components):
            if component is None or component is KEEP_ALL:
                successor = component
            else:
                successor = component.trans.get(tag, _MISS)
                if successor is _MISS:
                    successor = slots[index].spec.transition(component, tag)
                    component.trans[tag] = successor
            components.append(successor)
            if successor is not None:
                any_kept = True
        if not any_kept:
            return None
        return self._intern(tuple(components))

    # ------------------------------------------------------------ flat table

    def table(self) -> FlatProjectionTable:
        """The flat transition table over the current slot tuple (lazy).

        Rebuilt from scratch only after an attach or a compaction; the
        rebuild itself is lazy (cells fill as the stream revisits states,
        through the per-query memos).  A detach patches the existing
        table's mask rows in place instead.
        """
        if self._table is None:
            self._table = FlatProjectionTable(self.initial, self.transition, self.tags)
        return self._table

    def indices_for(self, mask: int) -> Tuple[int, ...]:
        """Unpack a membership bitset into sub-batch positions (memoized)."""
        indices = self._indices.get(mask)
        if indices is None:
            indices = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
            self._indices[mask] = indices
        return indices


__all__ = ["DynamicFanout"]
