"""Projection automaton compiled to a flat integer transition table.

The union projection automaton
(:class:`~repro.pipeline.fanout.DynamicFanout`, one slot per query)
computes transitions over tag *strings*.  The scanner's steady-state lookup
is one integer index into a single ``array('i')`` laid out as
``state_index * width + tag_id``.

The table is a lazy *cache in front of* the automaton, never a
reimplementation: an :data:`UNKNOWN` cell delegates to the automaton's
``transition`` (bound at construction), interns
the successor, writes the cell and returns -- so keep/drop decisions agree
with the automaton by construction, for any plan.  Only the
``(state, tag)`` pairs the documents actually contain are ever
materialized.

State indices also carry the per-state metadata the scanner and the
fan-out stage need without touching state objects (copied from each
interned state's ``keep_mask`` / ``chars_mask``):

* ``chars_keep[i]`` -- character data is forwarded at state ``i`` (some
  slot is inside a keep-everything region),
* ``keep_masks[i]`` / ``chars_masks[i]`` -- the union filter's per-slot
  membership bitsets.

The table is fanout-shared: reads are lock-free, misses and growth happen
under a lock.  Growing reallocates ``cells``; readers that cached a stale
reference still see valid (possibly :data:`UNKNOWN`) values and simply take
the miss path again, so concurrent runs never observe a wrong transition.
"""

from __future__ import annotations

import threading
from array import array
from typing import Callable, List

from repro.fastpath.tags import TagTable

#: Cell value: drop the subtree rooted at this tag.
DROP = -1
#: Cell value: not computed yet -- delegate to the automaton.
UNKNOWN = -2


class FlatProjectionTable:
    """Flat-array transition cache over one union projection automaton."""

    __slots__ = (
        "tags",
        "_transition",
        "_objs",
        "_index",
        "chars_keep",
        "keep_masks",
        "chars_masks",
        "width",
        "cells",
        "initial",
        "_lock",
    )

    def __init__(
        self,
        initial_obj: object,
        transition: Callable[[object, str], object],
        tags: TagTable,
    ):
        self.tags = tags
        self._transition = transition
        self._objs: List[object] = []
        self._index: dict = {}  # state object (identity-hashed) -> index
        self.chars_keep: List[bool] = []
        self.keep_masks: List[int] = []
        self.chars_masks: List[int] = []
        self.width = 64
        self.cells = array("i", [UNKNOWN]) * 0
        self._lock = threading.Lock()
        self.initial = self._intern(initial_obj)

    # ------------------------------------------------------------- interning

    def _intern(self, obj: object) -> int:
        """Intern a state object (callers hold the lock, or are __init__)."""
        idx = self._index.get(obj)
        if idx is None:
            idx = len(self._objs)
            self._objs.append(obj)
            self.chars_keep.append(bool(obj.chars_mask))
            self.keep_masks.append(obj.keep_mask)
            self.chars_masks.append(obj.chars_mask)
            self._index[obj] = idx
            self.cells.extend(array("i", [UNKNOWN]) * self.width)
        return idx

    def _grow_width(self, needed: int) -> None:
        """Re-lay ``cells`` with a wider row (lock held)."""
        new_width = self.width
        while new_width < needed:
            new_width *= 2
        old = self.cells
        old_width = self.width
        fresh = array("i", [UNKNOWN]) * new_width
        cells = array("i")
        for row in range(len(self._objs)):
            chunk = fresh[:]
            chunk[:old_width] = old[row * old_width : (row + 1) * old_width]
            cells.extend(chunk)
        self.width = new_width
        self.cells = cells

    # -------------------------------------------------------------- resolve

    def resolve(self, state_idx: int, tid: int) -> int:
        """Fill (and return) the cell for ``(state_idx, tid)``.

        The scanner calls this on an :data:`UNKNOWN` (or out-of-range) cell
        and must refresh its local ``cells`` / ``width`` references
        afterwards, since the array may have been reallocated.
        """
        with self._lock:
            if tid >= self.width:
                self._grow_width(tid + 1)
            cell = self.cells[state_idx * self.width + tid]
            if cell != UNKNOWN:
                return cell
            successor = self._transition(self._objs[state_idx], self.tags.names[tid])
            cell = DROP if successor is None else self._intern(successor)
            self.cells[state_idx * self.width + tid] = cell
            return cell

    def refresh_metadata(self) -> None:
        """Re-derive every interned row's metadata from its state object.

        The dynamic fanout mutates membership masks *on the state objects*
        when a subscription detaches (a tombstone, not a rebuild); this
        sweep folds the new masks into the flat rows without touching a
        single transition cell, so the table stays warm.
        """
        with self._lock:
            for idx, obj in enumerate(self._objs):
                self.chars_keep[idx] = bool(obj.chars_mask)
                self.keep_masks[idx] = obj.keep_mask
                self.chars_masks[idx] = obj.chars_mask

    def resolve_name(self, state_idx: int, name: str) -> int:
        """Transition by name for uninterned (past-the-cap) tags.

        Nothing is cached -- there is no tag id to key a cell on -- so
        adversarial vocabularies degrade to per-occurrence transition cost
        without growing the table.
        """
        with self._lock:
            successor = self._transition(self._objs[state_idx], name)
            return DROP if successor is None else self._intern(successor)


__all__ = ["FlatProjectionTable", "DROP", "UNKNOWN"]
