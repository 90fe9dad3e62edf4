"""Flight recorder: an always-on ring of recent pipeline events.

A long-lived push-mode run is a black box between ``feed()`` calls; when
it dies mid-stream the exception says *what* broke but not *where the
engine was*.  The flight recorder keeps a fixed-size ring of the most
recent pipeline events -- batch watermarks (document byte offset, live
buffered bytes, active scope stack), chunk boundaries, governor page
seals/evictions/faults, span transitions of traced runs -- and on any
engine exception the run dumps a ``*.crash.json`` forensic snapshot of
the ring plus the run's statistics, buffer attribution, options, and
chunk boundaries.  ``repro inspect <crash.json>`` pretty-prints it.

Cost discipline: the recorder is always on, so every note must be cheap.
Entries are raw tuples appended to a ``collections.deque(maxlen=...)``
(`deque.append` is atomic under the GIL, so concurrent sessions interleave
without locks or torn entries), and the engine notes once per *batch*
(not per event) at the single choke point all execution modes funnel
through.  The overhead benchmark gates the whole thing at <2% on XMark
Q1/Q13.

Crash dumps are written only when ``REPRO_CRASH_DIR`` is set (or an
explicit directory is passed): the test suite intentionally drives the
engine into errors hundreds of times, and spraying forensic files into
the working directory by default would be hostile.  Dumps are written
atomically (temp file + ``os.replace``), so a crashing *dump* never
leaves a truncated file either.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from collections import deque
from typing import List, Optional

CRASH_SCHEMA = "repro-crash/2"
#: Older dumps ``repro inspect`` still renders (every field is read with
#: ``.get``, so what ``/2`` dropped simply is not shown).
_READABLE_SCHEMAS = (CRASH_SCHEMA, "repro-crash/1")
RING_CAPACITY = 512

_SEQ = itertools.count(1)
_CRASH_SEQ = itertools.count(1)

# Field names per entry kind, used to render ring tuples as JSON objects.
_KIND_FIELDS = {
    "run-begin": ("mode",),
    "batch": ("events", "offset", "buffered_bytes", "depth", "scope"),
    "chunk": ("size", "total"),
    "seal": ("cost",),
    "evict": ("cost", "encoded"),
    "fault": ("encoded",),
    "span": ("name", "seconds"),
    "run-finish": ("mode", "output_bytes"),
    "feed-begin": ("resume_offset",),
    "doc-boundary": ("index", "offset"),
    "feed-finish": ("documents", "resume_offset"),
    "crash": ("error",),
}


class FlightRecorder:
    """Fixed-size ring of ``(seq, kind, fields)`` tuples."""

    __slots__ = ("_ring",)

    def __init__(self, capacity: int = RING_CAPACITY):
        self._ring = deque(maxlen=capacity)

    # Hot path: one tuple build + one atomic deque append.
    def note(self, kind: str, *fields) -> None:
        self._ring.append((next(_SEQ), kind, fields))

    def note_batch(self, events, offset, buffered_bytes, depth, scope) -> None:
        self._ring.append(
            (next(_SEQ), "batch", (events, offset, buffered_bytes, depth, scope))
        )

    def snapshot(self) -> List[dict]:
        """Materialize the ring oldest-first as JSON-ready dicts."""
        entries = []
        for seq, kind, fields in list(self._ring):
            entry = {"seq": seq, "kind": kind}
            names = _KIND_FIELDS.get(kind)
            if names and len(names) == len(fields):
                entry.update(zip(names, fields))
            else:
                entry["fields"] = list(fields)
            entries.append(entry)
        return entries

    def clear(self) -> None:
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)


#: Process-wide recorder. Executors bind it at construction, so patching
#: this name affects runs started after.
RECORDER = FlightRecorder()


def crash_dir() -> Optional[str]:
    """Directory for crash dumps, or None when dumping is disabled."""
    return os.environ.get("REPRO_CRASH_DIR") or None


def _stats_payload(stats) -> Optional[dict]:
    if stats is None:
        return None
    payload = {}
    for field in dataclasses.fields(stats):
        if field.name == "attribution":
            continue
        value = getattr(stats, field.name)
        if isinstance(value, (int, float, str, bool)) or value is None:
            payload[field.name] = value
    return payload


def _options_payload(options) -> Optional[dict]:
    if options is None:
        return None
    return dataclasses.asdict(options)


def dump_crash(
    error: BaseException,
    *,
    stats=None,
    options=None,
    mode: str = "pull",
    chunk_offsets=None,
    queries=None,
    context=None,
    directory: Optional[str] = None,
) -> Optional[str]:
    """Write a forensic snapshot for ``error``; returns the dump path.

    No-op (returns None) unless a directory is given or REPRO_CRASH_DIR
    is set.  Never raises: forensics must not mask the original error.
    ``context`` carries caller watermarks (a feed's exact document start
    and resume offsets) verbatim into the dump.
    """
    directory = directory or crash_dir()
    if not directory:
        return None
    try:
        RECORDER.note("crash", f"{type(error).__name__}: {error}")
        attribution = getattr(stats, "buffer_attribution", None) or []
        payload = {
            "schema": CRASH_SCHEMA,
            "error": {"type": type(error).__name__, "message": str(error)},
            "mode": mode,
            "ring": RECORDER.snapshot(),
            "stats": _stats_payload(stats),
            "attribution": attribution,
            "options": _options_payload(options),
            "chunk_offsets": list(chunk_offsets or []),
            "queries": list(queries or []),
            "context": dict(context) if context else None,
        }
        os.makedirs(directory, exist_ok=True)
        name = f"repro-{os.getpid()}-{next(_CRASH_SEQ)}.crash.json"
        path = os.path.join(directory, name)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
        return path
    except Exception:
        return None


def _render_ring(entries: List[dict], limit: int = 40) -> List[str]:
    lines = []
    shown = entries[-limit:]
    if len(entries) > len(shown):
        lines.append(f"  ... {len(entries) - len(shown)} older entries elided ...")
    for entry in shown:
        detail = " ".join(
            f"{key}={entry[key]}"
            for key in entry
            if key not in ("seq", "kind")
        )
        lines.append(f"  #{entry['seq']:<6} {entry['kind']:<10} {detail}".rstrip())
    return lines


def inspect_crash(path: str) -> str:
    """Human-readable rendering of a ``*.crash.json`` dump."""
    with open(path, "r", encoding="utf-8") as handle:
        dump = json.load(handle)
    schema = dump.get("schema", "?")
    if schema not in _READABLE_SCHEMAS:
        raise ValueError(f"unsupported crash dump schema {schema!r} in {path}")
    error = dump.get("error") or {}
    lines = [
        f"crash dump {path}",
        f"schema: {schema}",
        f"error: {error.get('type', '?')}: {error.get('message', '')}",
        f"mode: {dump.get('mode', '?')}",
    ]
    queries = dump.get("queries") or []
    if queries:
        lines.append(f"queries: {', '.join(queries)}")
    context = dump.get("context")
    if context:
        rendered = "  ".join(f"{key}={context[key]}" for key in sorted(context))
        lines.append(f"context: {rendered}")
    stats = dump.get("stats")
    if stats:
        lines.append(
            "stats: "
            f"input={stats.get('input_events', 0)}ev/{stats.get('input_bytes', 0)}B "
            f"output={stats.get('output_events', 0)}ev/{stats.get('output_bytes', 0)}B "
            f"peak_buffered={stats.get('peak_buffered_bytes', 0)}B "
            f"spilled={stats.get('spilled_bytes_written', 0)}B"
        )
    offsets = dump.get("chunk_offsets") or []
    if offsets:
        lines.append(
            f"chunk boundaries ({len(offsets)} recorded): "
            + ", ".join(str(offset) for offset in offsets[-12:])
        )
    attribution = dump.get("attribution") or []
    if attribution:
        lines.append("buffer attribution at crash:")
        for row in attribution:
            lines.append(
                f"  {row.get('variable', '?')} (scope {row.get('scope') or '-'}): "
                f"live={row.get('live_bytes', 0)}B "
                f"at_peak={row.get('at_peak_bytes', 0)}B "
                f"spilled={row.get('spilled_bytes', 0)}B"
            )
            lines.append(f"    reason: {row.get('reason', '?')}")
    ring = dump.get("ring") or []
    lines.append(f"flight ring ({len(ring)} entries):")
    if ring:
        lines.extend(_render_ring(ring))
    else:
        lines.append("  (empty)")
    options = dump.get("options")
    if options:
        rendered = ", ".join(f"{key}={options[key]!r}" for key in sorted(options))
        lines.append(f"options: {rendered}")
    return "\n".join(lines)
