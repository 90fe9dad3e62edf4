"""Buffer attribution: every buffered byte gets an owner and a reason.

The paper's whole contribution is buffer *minimization*, yet a run used to
report one opaque ``peak_buffered_bytes`` number.  This module breaks that
number down by **owner** -- the ``(scope, variable)`` a buffer was created
for -- together with the plan-level *reason* the scheduler could not
stream it (the ``on-first`` decision or the deferred gating condition).

Accounting contract (the oracle asserts it after every run, in every
engine mode):

* ``sum(owner.live_bytes) == stats.buffered_bytes_current`` at all times
  (so zero once the run is balanced),
* ``sum(owner.at_peak_bytes) == stats.peak_buffered_bytes`` -- the
  composition of the *global* high-water moment.  Summing per-owner peaks
  would over-count (they can occur at different times); instead
  :meth:`BufferAttribution.snapshot_peak` copies every owner's live bytes
  the instant :meth:`~repro.engine.stats.RunStatistics.record_buffered`
  raises the global byte peak, which makes the attribution *exact* by
  construction (a release charges every pending append first, see
  :mod:`repro.engine.buffers`),
* ``sum(owner.spilled_bytes) == stats.spilled_bytes_written`` -- spill
  attribution rides on the governor's pages, which carry their owner.

Hot-path discipline: buffers update their owner ledger with plain integer
attribute bumps per charge/release -- once per flush of a buffer, and per
page slice under a governor (only on runs that buffer at all --
streaming-only queries never touch this), and the
peak snapshot is O(number of owners), where the owner count is the number
of buffered variables in the plan (single digits).

Reason strings are derived from the compiled plan objects by duck typing
(``buffer_tree``/``root_marked`` for a scope spec, ``defer``/``copy_var``
for a stream-copy action), so this module stays a leaf -- importable from
:mod:`repro.engine.buffers` without cycles.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .metrics import global_registry


def _tree_paths(node, prefix: str = "") -> List[str]:
    """Slash paths of a pruned buffer tree (marked nodes flagged ``*``)."""
    paths: List[str] = []
    children = getattr(node, "children", None) or {}
    for label in sorted(children):
        child = children[label]
        path = f"{prefix}{label}"
        if getattr(child, "marked", False):
            paths.append(path + "*")
        elif not getattr(child, "children", None):
            paths.append(path)
        paths.extend(_tree_paths(child, path + "/"))
    return paths


def describe_reason(source) -> str:
    """The plan-level decision that forced this owner to buffer.

    ``source`` is the compiled plan object the buffer was created for:
    a ``ScopeSpec`` (an ``on-first`` handler body reads the variable out
    of document order) or a deferred ``StreamCopyAction`` (the gating
    condition is only decidable at the element's end event).
    """
    if source is None:
        return "unattributed (buffer created outside the compiled plan)"
    if getattr(source, "defer", False):
        return (
            "deferred stream-copy: the gating condition references the "
            "arriving subtree, so it is only decidable once the element "
            "has been fully read (Definition 3.6 end-of-child execution)"
        )
    if getattr(source, "root_marked", False):
        return (
            "on-first handler emits the whole element out of document "
            "order: the DTD gives no ordering constraint under which it "
            "could stream, so the full subtree is buffered until the "
            "handler's past() condition holds"
        )
    tree = getattr(source, "buffer_tree", None)
    if tree is not None:
        paths = ", ".join(_tree_paths(tree)) or "(root)"
        return (
            f"on-first handler navigates the variable at [{paths}] after "
            "its past() condition holds: those pruned subtrees are "
            "buffered until the handler runs"
        )
    return "buffered by the compiled plan (no pruning information)"


class OwnerLedger:
    """Live/peak/spill byte accounting for one buffer owner."""

    __slots__ = (
        "variable",
        "scope",
        "reason",
        "live_bytes",
        "live_events",
        "peak_bytes",
        "at_peak_bytes",
        "at_peak_events",
        "spilled_bytes",
        "spill_count",
        "total_bytes",
        "total_events",
        "buffers_created",
    )

    def __init__(self, variable: str, scope: str, reason: str):
        self.variable = variable
        self.scope = scope
        self.reason = reason
        self.live_bytes = 0
        self.live_events = 0
        self.peak_bytes = 0
        self.at_peak_bytes = 0
        self.at_peak_events = 0
        self.spilled_bytes = 0
        self.spill_count = 0
        self.total_bytes = 0
        self.total_events = 0
        self.buffers_created = 0

    def to_dict(self) -> dict:
        return {
            "variable": self.variable,
            "scope": self.scope,
            "reason": self.reason,
            "live_bytes": self.live_bytes,
            "live_events": self.live_events,
            "peak_bytes": self.peak_bytes,
            "at_peak_bytes": self.at_peak_bytes,
            "at_peak_events": self.at_peak_events,
            "spilled_bytes": self.spilled_bytes,
            "spill_count": self.spill_count,
            "total_bytes": self.total_bytes,
            "total_events": self.total_events,
            "buffers_created": self.buffers_created,
        }


class BufferAttribution:
    """Per-owner ledger of one run's buffered bytes.

    Created by the run's :class:`~repro.engine.buffers.BufferManager` and
    attached to its :class:`~repro.engine.stats.RunStatistics`; buffers
    bump their owner's ledger directly (no dict lookup per event), and
    ``record_buffered`` calls :meth:`snapshot_peak` whenever the global
    byte peak moves.
    """

    __slots__ = ("owners",)

    def __init__(self):
        self.owners: Dict[str, OwnerLedger] = {}

    def ledger(self, variable: str, source=None, scope: str = "") -> OwnerLedger:
        """Get-or-create the ledger for ``variable``.

        The reason (and per-owner registry gauges) are derived only on
        first creation; later calls are one dict lookup.
        """
        owner = self.owners.get(variable)
        if owner is None:
            owner = OwnerLedger(variable, scope, describe_reason(source))
            self.owners[variable] = owner
            _register_owner_gauges(owner)
        return owner

    def snapshot_peak(self) -> None:
        """Record the composition of a new global byte high-water mark."""
        for owner in self.owners.values():
            owner.at_peak_bytes = owner.live_bytes
            owner.at_peak_events = owner.live_events

    # -------------------------------------------------------------- totals

    def total_live_bytes(self) -> int:
        return sum(owner.live_bytes for owner in self.owners.values())

    def total_at_peak_bytes(self) -> int:
        return sum(owner.at_peak_bytes for owner in self.owners.values())

    def total_spilled_bytes(self) -> int:
        return sum(owner.spilled_bytes for owner in self.owners.values())

    def rows(self) -> List[dict]:
        """JSON-ready per-owner rows, largest share of the peak first."""
        owners = sorted(
            self.owners.values(), key=lambda o: (-o.at_peak_bytes, o.variable)
        )
        return [owner.to_dict() for owner in owners]


def _gauge_slug(variable: str) -> str:
    return variable.lstrip("$") or "root"


#: The newest ledger per gauge slug: what that slug's registry gauges read.
_NEWEST: Dict[str, OwnerLedger] = {}


def _register_owner_gauges(owner: OwnerLedger) -> None:
    """Expose one owner's live/peak/spilled bytes as registry gauges.

    Gauge names are stable per variable and registered once; a newer run's
    ledger takes the slug over, so ``/metrics`` always reflects the most
    recent run that buffered under that variable.
    """
    slug = _gauge_slug(owner.variable)
    if _NEWEST.setdefault(slug, owner) is not owner:
        _NEWEST[slug] = owner
        return
    registry = global_registry()
    for field, what in (("live_bytes", "Live buffered bytes"), ("peak_bytes", "Peak buffered bytes"),
                        ("spilled_bytes", "Spilled (encoded) bytes")):
        registry.gauge(
            f"repro.buffer.owner.{slug}.{field}",
            f"{what} owned by {owner.variable}",
            fn=lambda field=field: getattr(_NEWEST[slug], field),
        )


def format_attribution(stats) -> str:
    """The ``repro run --explain-buffers`` report.

    One table row per owner plus the owner's blocking reason underneath;
    the footer restates the exactness identity so a reader can verify the
    per-owner bytes against the headline figure at a glance.
    """
    rows = getattr(stats, "buffer_attribution", None) or []
    if not rows:
        return (
            "no buffers were allocated: every handler streamed "
            f"(peak_buffered = {stats.peak_buffered_bytes}B)"
        )
    headers = ("owner", "scope", "bytes@peak", "events@peak", "own peak [B]", "spilled [B]")
    cells = [
        (
            row["variable"],
            row["scope"] or "-",
            str(row["at_peak_bytes"]),
            str(row["at_peak_events"]),
            str(row["peak_bytes"]),
            str(row["spilled_bytes"]),
        )
        for row in rows
    ]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in cells))
        for col in range(len(headers))
    ]

    def render(row) -> str:
        rest = (cell.rjust(widths[i]) for i, cell in enumerate(row) if i > 0)
        return "  ".join([row[0].ljust(widths[0]), *rest]).rstrip()

    lines = [render(headers), "  ".join("-" * width for width in widths)]
    for row, raw in zip(cells, rows):
        lines.append(render(row))
        lines.append(f"    reason: {raw['reason']}")
    total = sum(row["at_peak_bytes"] for row in rows)
    lines.append(
        f"peak_buffered = {stats.peak_buffered_bytes}B; "
        f"attributed at peak = {total}B (exact)"
    )
    return "\n".join(lines)
