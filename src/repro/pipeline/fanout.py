"""The union projection automaton: one document pass serves every query.

One query owns one :class:`~repro.pipeline.projection.ProjectionSpec` (a
tag-driven automaton over the element hierarchy).  :class:`DynamicFanout`
runs any number of them *in lockstep*, one **slot** per query: a state is a
tuple with one component per slot -- the query's own interned projection
state, :data:`~repro.pipeline.projection.KEEP_ALL` (the query captures the
whole region), :data:`~repro.pipeline.projection.OPAQUE` (likewise, and it
never looks inside), or ``None`` (the query dropped this subtree).  An event
survives the shared pass iff *any* slot keeps it, and per-slot *membership
masks* say exactly which, so the sub-stream of slot *i* is byte for byte
what the query's solo filter would have produced (up to raw content: a
slot that keeps an element opaque may receive its content as one raw row,
which stands for the same events).

It is the only automaton the scanner ever runs against, in three shapes:

* **solo** -- a :class:`~repro.engine.engine.FluxEngine` holds a one-slot
  fanout (``attach(None)`` when projection is off or trivial: the slot is
  pinned to keep-everything);
* **static multi-query** -- a :class:`~repro.core.session.PreparedQuery`
  of N > 1 members attaches N slots once, when ``prepare_many`` builds it,
  and never churns;
* **serve** -- the subscription hub attaches and detaches mid-stream.

**The flat table.**  Each lockstep tuple is interned straight to a dense
**row**; row 0 is the initial state.  Per row, ``keep_masks[row]`` marks
the slots that keep element events there (their component is not ``None``),
``chars_masks[row]`` the slots inside a keep-everything region (character
data is forwarded only there) and ``opaque_masks[row]`` those of them whose
region is :data:`~repro.pipeline.projection.OPAQUE` -- the slots the
scanner may hand the element's content as one raw row.  A row is
``hollow[row]`` when every active slot's component is ``None`` or a
hollow projection state (its only positions are scopes that observe no
child): the element is kept for its tag alone, every active slot drops
each of its children and no character data is forwarded, so the scanner
may take runs of its children in one piece.  Transitions live in one
``array('i')`` of cells laid out as ``row * stride + tag_id`` over the
shared :class:`~repro.fastpath.tags.TagTable` ids: a cell holds the
successor row, :data:`~repro.fastpath.tags.DROP` (every slot drops the
subtree) or :data:`~repro.fastpath.tags.UNKNOWN`.  The table is a lazy
cache in front of the per-query automata, never a reimplementation: the
scanner hands an unknown cell to :meth:`DynamicFanout.resolve`, which
computes the lockstep successor, interns it and writes the cell -- so only
the ``(row, tag)`` pairs the documents contain are ever materialized.  Tags
past the TagTable's cap have no id and go through
:meth:`DynamicFanout.resolve_name`, uncached.

**Taken rows.**  Once the scanner has taken an element's content raw,
the element goes on in :meth:`DynamicFanout.taken` of its row: the same
tuple with each ``OPAQUE`` component replaced by
:data:`~repro.pipeline.projection.TAG_ONLY`, a state without positions.
Its masks keep the same slots, so the opaque slots still receive the
element's end tag, but they drop every child and forwarded text -- the
raw row already stood for them -- while the other slots read on.  When
the taken row is hollow nobody reads inside, and the scanner skips to the
end tag; otherwise it tokenizes the content for the other slots (a
*split*).  Taken rows are ordinary interned rows, memoized per row.

**Concurrency.**  Runs over one fanout share it: cell reads are lock-free,
misses take the lock.  ``layout`` publishes ``(cells, stride)`` as one
tuple, replaced whole when a tag id outgrows the stride, so a reader always
pairs an array with its own stride; a stale array only yields unknown
cells, whose resolve hands back the right row.  The mask lists are only
ever appended to or rewritten in place.

**Churn.**

* **attach** (delta-merge): a new query appends a slot.  The rows are
  discarded (component tuples grew by one), but re-deriving a row is pure
  dict work for every pre-existing query: per-query transitions are
  memoized on the queries' own interned
  :class:`~repro.pipeline.projection._State` objects (``state.trans``),
  which survive untouched.  Only the *new* query's automaton computes real
  transitions -- the delta.  The ``recompiles`` counter does not move.
* **detach** (tombstone): the slot is marked inactive and its bit is
  cleared from every row's masks, in one sweep under the lock that also
  recomputes ``hollow`` (a row the slot alone kept open turns hollow; a
  flag that lags can only err towards "not hollow", which is safe).  No
  transition is recomputed and no row or cell is discarded; the dead
  slot's component keeps riding the (memoized) lockstep product until the
  next :meth:`~DynamicFanout.compact`, so a child it still reaches is not
  ``DROP`` -- it resolves to a row no active slot keeps.
* :meth:`~DynamicFanout.compact` is the only full re-merge: it drops
  tombstoned slots from the component tuples and rebuilds the rows -- the
  operation the ``recompiles`` counter counts, and the one a server
  schedules at leisure (or never), not on the churn path.

Sub-batch position *i* always belongs to slot ``order()[i]``; tombstoned
slots keep their position (and receive nothing) until a compaction
renumbers.  With no slot at all the automaton drops everything -- the
hub's idle scan, which only tracks document boundaries.  Mutations are only
legal between documents -- exactly the boundary the subscription hub
applies churn at -- because rows held in a run's cursor stack would
otherwise go stale mid-document.
"""

from __future__ import annotations

import itertools
import threading
from array import array
from typing import Dict, List, Optional, Tuple

from repro.fastpath.tags import DROP, UNKNOWN, TagTable
from repro.pipeline.projection import KEEP_ALL, OPAQUE, TAG_ONLY, ProjectionSpec

#: Sentinel distinguishing "memo miss" from a memoized ``None`` (drop).
_MISS = object()


class _Slot:
    """One query's seat in the lockstep product."""

    __slots__ = ("slot_id", "spec", "active")

    def __init__(self, slot_id: int, spec: Optional[ProjectionSpec]):
        self.slot_id = slot_id
        self.spec = spec
        self.active = True


class DynamicFanout:
    """A mutable union projection automaton with stable slot identities,
    interned straight into the scanner's flat transition table."""

    def __init__(self):
        self._slot_ids = itertools.count(1)
        self._slots: List[_Slot] = []
        self._active_mask = 0
        self._lock = threading.Lock()
        #: Tag interning shared by every run over this fanout; survives
        #: row rebuilds so interned tag ids stay valid across attaches.
        self.tags = TagTable()
        self._indices: Dict[int, Tuple[int, ...]] = {}
        #: Full re-merges of the union automaton (only :meth:`compact`).
        self.recompiles = 0
        self.attaches = 0
        self.detaches = 0
        self._reset_rows()

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
        the rows are reset: every pre-existing query's own memoized
        transitions are reused verbatim, so the re-derivation work as the
        stream continues touches only the new query's states.
        """
        slot = _Slot(next(self._slot_ids), spec)
        self._slots.append(slot)
        self._active_mask |= 1 << (len(self._slots) - 1)
        self.attaches += 1
        self._reset_rows()
        return slot.slot_id

    def detach(self, slot_id: int) -> None:
        """Tombstone one slot: clear its membership bit from every row.

        No transition is recomputed and no row or cell is discarded -- the
        mutation is one sweep over the mask rows.
        """
        position = self._position(slot_id)
        slot = self._slots[position]
        if not slot.active:
            raise ValueError(f"slot {slot_id} is already detached")
        slot.active = False
        self._active_mask &= ~(1 << position)
        self.detaches += 1
        with self._lock:
            self.keep_masks[:] = [mask & self._active_mask for mask in self.keep_masks]
            self.chars_masks[:] = [mask & self._active_mask for mask in self.chars_masks]
            self.opaque_masks[:] = [mask & self._active_mask for mask in self.opaque_masks]
            self.hollow[:] = [self._hollow(components) for components in self._components]
        self._indices.clear()
        self._share()

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
        self._reset_rows()
        return reclaimed

    def _position(self, slot_id: int) -> int:
        for position, slot in enumerate(self._slots):
            if slot.slot_id == slot_id:
                return position
        raise KeyError(f"no slot {slot_id}; live slots: {self.order()}")

    # ------------------------------------------------------------ flat table

    def _reset_rows(self) -> None:
        """Discard every row, then intern the initial state as row 0."""
        self._rows: Dict[Tuple[object, ...], int] = {}
        self._components: List[Tuple[object, ...]] = []
        self.keep_masks: List[int] = []
        self.chars_masks: List[int] = []
        self.opaque_masks: List[int] = []
        self.hollow: List[bool] = []
        self._taken: List[int] = []
        self.layout = (array("i"), 64)
        self._indices.clear()
        self._share()
        self._intern(
            tuple(KEEP_ALL if slot.spec is None else slot.spec.initial for slot in self._slots)
        )

    def _intern(self, components: Tuple[object, ...]) -> int:
        """The row of a lockstep tuple (callers hold the lock, or reset)."""
        row = self._rows.get(components)
        if row is None:
            keep_mask = 0
            chars_mask = 0
            opaque_mask = 0
            for index, component in enumerate(components):
                if component is not None and self._active_mask >> index & 1:
                    keep_mask |= 1 << index
                    if component is KEEP_ALL:
                        chars_mask |= 1 << index
                    elif component is OPAQUE:
                        chars_mask |= 1 << index
                        opaque_mask |= 1 << index
            self.keep_masks.append(keep_mask)
            self.chars_masks.append(chars_mask)
            self.opaque_masks.append(opaque_mask)
            self.hollow.append(self._hollow(components))
            self._taken.append(UNKNOWN)
            cells, stride = self.layout
            cells.extend(array("i", [UNKNOWN]) * stride)
            row = self._rows[components] = len(self._components)
            self._components.append(components)
        return row

    def _hollow(self, components: Tuple[object, ...]) -> bool:
        """Whether every active slot drops the row's whole content: its
        component is ``None`` or a hollow projection state (no position
        but scopes that observe no child)."""
        return not any(
            component is not None
            and self._active_mask >> index & 1
            and (component is KEEP_ALL or component is OPAQUE or not component.hollow)
            for index, component in enumerate(components)
        )

    def taken(self, row: int) -> int:
        """The row an element of ``row`` continues in once its content went
        raw: each :data:`~repro.pipeline.projection.OPAQUE` component is
        replaced by :data:`~repro.pipeline.projection.TAG_ONLY` (memoized).

        Its masks keep the same slots, so those slots still receive the
        element's end tag, but they drop every child and forwarded text.
        The scanner may call it lock-free; a miss interns under the lock.
        """
        taken = self._taken[row]
        if taken == UNKNOWN:
            with self._lock:
                taken = self._taken[row] = self._intern(
                    tuple(TAG_ONLY if part is OPAQUE else part for part in self._components[row])
                )
        return taken

    def _successor(self, row: int, tag: str) -> int:
        """Lockstep successor of ``row`` on ``tag``: a row, or :data:`DROP`
        when every slot drops (lock held).

        Per-slot successors are looked up in the slot automaton's *own*
        per-state memo first (``_State.trans``), so replaying a warm stream
        after an attach never re-enters a pre-existing query's transition
        function.  A hollow state drops every child without a memo, so
        :data:`~repro.pipeline.projection.TAG_ONLY`, which every query
        shares, never grows one.
        """
        components: List[object] = []
        for slot, component in zip(self._slots, self._components[row]):
            if component is not None and component is not KEEP_ALL and component is not OPAQUE:
                if component.hollow:
                    component = None
                else:
                    successor = component.trans.get(tag, _MISS)
                    if successor is _MISS:
                        successor = component.trans[tag] = slot.spec.transition(component, tag)
                    component = successor
            components.append(component)
        if all(component is None for component in components):
            return DROP
        return self._intern(tuple(components))

    def resolve(self, row: int, tid: int) -> int:
        """Fill (and return) the cell for ``(row, tid)``.

        The scanner calls this on an :data:`UNKNOWN` (or out-of-stride) cell
        and must reload ``layout`` afterwards: the cells may have moved.
        """
        with self._lock:
            if tid >= self.layout[1]:
                self._widen(tid)
            cells, stride = self.layout
            cell = cells[row * stride + tid]
            if cell == UNKNOWN:
                cell = cells[row * stride + tid] = self._successor(row, self.tags.names[tid])
            return cell

    def _widen(self, tid: int) -> None:
        """Re-lay the cells with a stride past ``tid`` (lock held)."""
        cells, stride = self.layout
        wide = stride
        while wide <= tid:
            wide *= 2
        grown = array("i", [UNKNOWN]) * (len(self._components) * wide)
        for row in range(len(self._components)):
            grown[row * wide : row * wide + stride] = cells[row * stride : (row + 1) * stride]
        self.layout = (grown, wide)

    def resolve_name(self, row: int, name: str) -> int:
        """Transition by name for uninterned (past-the-cap) tags.

        Nothing is cached -- there is no tag id to key a cell on -- so
        adversarial vocabularies degrade to per-occurrence transition cost
        without growing the table.
        """
        with self._lock:
            return self._successor(row, name)

    def indices_for(self, mask: int) -> Tuple[int, ...]:
        """Unpack a membership bitset into sub-batch positions (memoized)."""
        indices = self._indices.get(mask)
        if indices is None:
            indices = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
            self._indices[mask] = indices
        return indices

    def _share(self) -> None:
        """Active slots with one spec receive the same events: the first
        of them leads (``leads`` masks the leaders), and ``aliases`` maps
        each other one's position to its leader's, so a split builds one
        sub-batch per spec."""
        leaders: Dict[object, int] = {}
        aliases = []
        for position, slot in enumerate(self._slots):
            if slot.active:
                leader = leaders.setdefault(slot.spec, position)
                if leader != position:
                    aliases.append((position, leader))
        self.leads = sum(1 << leader for leader in leaders.values())
        self.aliases: Tuple[Tuple[int, int], ...] = tuple(aliases)


__all__ = ["DynamicFanout"]
