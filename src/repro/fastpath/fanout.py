"""Shared scan + fan-out for the multi-query engine.

One byte scan serves N queries: the document is projected through the flat
table compiled from the queries'
:class:`~repro.pipeline.fanout.MergedProjectionSpec` and the *materialized*
survivors are distributed by the per-state membership bitsets -- so each
query receives exactly the sub-stream its solo projection filter would have
produced, byte for byte.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.fastpath.dfa import table_for_merged
from repro.fastpath.scanner import ByteScanner
from repro.fastpath.tags import TagTable
from repro.pipeline.fanout import MergedProjectionSpec
from repro.xmlstream.events import Event
from repro.xmlstream.parser import DocumentSource


class FastFanout:
    """Engine-shared scan state for one merged query set."""

    __slots__ = ("spec", "tags", "table", "_indices")

    def __init__(self, spec: MergedProjectionSpec):
        self.spec = spec
        self.tags = TagTable()
        self.table = table_for_merged(spec, self.tags)
        self._indices: Dict[int, Tuple[int, ...]] = {}

    def indices_for(self, mask: int) -> Tuple[int, ...]:
        """Unpack a membership bitset into query indices (memoized)."""
        indices = self._indices.get(mask)
        if indices is None:
            indices = tuple(i for i in range(self.spec.count) if mask >> i & 1)
            self._indices[mask] = indices
        return indices

    def split_batches(
        self,
        document: DocumentSource,
        chunk_size: int,
        stats_list: Optional[Sequence] = None,
        *,
        expand_attrs: bool = False,
    ) -> Iterator[List[List[Event]]]:
        """One shared byte scan; yields per-query sub-batch lists.

        Every query's statistics record the pre-projection totals of the
        shared pass, so per-query numbers match what a solo run reports.
        """
        scanner = ByteScanner(self.tags, self.table, expand_attrs=expand_attrs)
        count = self.spec.count
        stats_list = list(stats_list) if stats_list else []
        for batch in scanner.scan_source(document, chunk_size):
            if batch.seen:
                for stats in stats_list:
                    stats.record_input(batch.seen, batch.cost)
            yield batch.materialize_split(
                count, self.table.keep_masks, self.table.chars_masks, self.indices_for
            )


__all__ = ["FastFanout"]
