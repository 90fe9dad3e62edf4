"""Shared result type and helpers for the baseline engines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.xmlstream.tree import XMLNode


@dataclass
class BaselineResult:
    """Result of running a baseline engine.

    ``output_bytes`` is populated even when the caller discards the output
    text (``collect_output=False``): differential harnesses compare output
    statistics across engines without holding N result strings alive.  The
    count uses ``len(output)`` -- the same unit the streaming engine's
    :class:`~repro.engine.stats.RunStatistics.output_bytes` reports.
    """

    output: Optional[str]
    peak_buffered_events: int
    peak_buffered_bytes: int
    elapsed_seconds: float
    output_bytes: int = 0


def tree_cost(node: XMLNode) -> tuple:
    """(events, bytes) cost of holding a subtree in memory.

    Charged the same way the FluX engine charges its event buffers, so the
    memory columns of the benchmark tables are directly comparable.
    """
    events = 0
    cost = 0
    stack = [node]
    while stack:
        current = stack.pop()
        events += 2  # start + end element
        cost += 2 * (len(current.name) + 3)
        for child in current.children:
            if isinstance(child, XMLNode):
                stack.append(child)
            else:
                events += 1
                cost += len(child)
    return events, cost
