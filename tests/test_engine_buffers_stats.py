"""Unit tests for event buffers, the buffer manager and run statistics."""

import pytest

from repro.engine.buffers import BufferManager
from repro.engine.stats import RunStatistics
from repro.xmlstream.events import Characters, EndElement, StartElement


def _cost(events):
    return sum(event.cost_in_bytes() for event in events)


def test_buffer_append_updates_stats():
    stats = RunStatistics()
    manager = BufferManager(stats)
    buffer = manager.create_buffer("$b")
    buffer.append(StartElement("author"))
    buffer.append(Characters("Koch"))
    buffer.append(EndElement("author"))
    # Appends only append: nothing is charged before the flush.
    assert stats.buffered_events_current == 0
    assert buffer.cost_bytes == 0
    manager.flush()
    assert len(buffer.events) == 3
    assert stats.buffered_events_current == 3
    assert stats.peak_buffered_events == 3
    assert stats.buffered_bytes_current == buffer.cost_bytes > 0
    manager.flush()  # nothing dirty: a no-op
    assert stats.total_buffered_events == 3


def test_release_returns_memory_but_keeps_peak():
    stats = RunStatistics()
    manager = BufferManager(stats)
    buffer = manager.create_buffer()
    events = [StartElement("a"), EndElement("a")]
    buffer.extend(events)
    # The release charges the pending appends before freeing them.
    buffer.release()
    assert stats.peak_buffered_bytes == _cost(events)
    assert stats.peak_buffered_events == 2
    assert stats.buffered_events_current == 0
    assert stats.buffered_bytes_current == 0
    # releasing twice is harmless
    buffer.release()
    assert manager.live_buffers == 0
    assert stats.peak_buffered_bytes == _cost(events)


def test_append_after_release_is_rejected():
    manager = BufferManager()
    buffer = manager.create_buffer()
    buffer.release()
    with pytest.raises(RuntimeError):
        buffer.append(StartElement("a"))


def test_peak_tracks_concurrent_buffers():
    stats = RunStatistics()
    manager = BufferManager(stats)
    first = manager.create_buffer()
    second = manager.create_buffer()
    first.extend([StartElement("a"), EndElement("a")])
    second.extend([StartElement("b"), EndElement("b")])
    manager.flush()
    assert stats.peak_buffered_events == 4
    first.release()
    second.extend([StartElement("c"), EndElement("c")])
    manager.flush()
    # current went down to 2 then up to 4 again; the peak stays at 4.
    assert stats.buffered_events_current == 4
    assert stats.peak_buffered_events == 4


def test_release_charges_every_pending_buffer_of_the_manager():
    """Appends to ``$a``, then the release of ``$b`` in the same batch.

    Per append, the peak is both buffers' full contents, just before the
    release.  A release that charged only its own buffer would free ``$b``
    before ``$a``'s appends count, and report ``$a`` alone as the peak.
    """
    stats = RunStatistics()
    manager = BufferManager(stats)
    a = manager.create_buffer("$a")
    b = manager.create_buffer("$b")
    b_events = [StartElement("b"), Characters("xyz"), EndElement("b")]
    b.extend(b_events)
    manager.flush()  # the end of an earlier batch
    a_events = [StartElement("a"), Characters("hello"), EndElement("a")]
    a.extend(a_events)
    b.release()
    manager.flush()
    assert stats.peak_buffered_bytes == _cost(a_events) + _cost(b_events)
    assert stats.peak_buffered_events == 6
    at_peak = {row["variable"]: row["at_peak_bytes"] for row in stats.buffer_attribution}
    assert at_peak == {"$a": _cost(a_events), "$b": _cost(b_events)}
    assert sum(at_peak.values()) == stats.peak_buffered_bytes
    assert stats.attribution.total_live_bytes() == stats.buffered_bytes_current == _cost(a_events)


def test_unbalanced_release_cannot_drive_live_buffers_negative():
    """Regression: with N concurrent executor states sharing debugging
    output, a double-counted release must fail loudly, never leave
    ``live_buffers`` negative."""
    stats = RunStatistics()
    manager = BufferManager(stats)
    buffer = manager.create_buffer()
    buffer.append(StartElement("a"))
    buffer.release()
    assert manager.live_buffers == 0
    # EventBuffer.release is idempotent: the second call is a no-op...
    buffer.release()
    assert manager.live_buffers == 0
    # ...but a release that bypasses the idempotence guard is rejected
    # before the counter can go negative.
    with pytest.raises(RuntimeError, match="live_buffers"):
        manager._notify_release(0, 0)
    assert manager.live_buffers == 0


def test_release_after_partial_flush_frees_recorded_totals():
    """Regression: a buffer whose exposed event list was partially drained
    after a flush must still free exactly the events/bytes charged by
    that flush -- a release based on the *current* list length would free
    mismatched counts and trip the fail-loud guards on the next run."""
    stats = RunStatistics()
    manager = BufferManager(stats)
    buffer = manager.create_buffer("$x")
    buffer.extend([StartElement("a"), Characters("hello"), EndElement("a")])
    manager.flush()
    recorded_events = stats.buffered_events_current
    recorded_bytes = stats.buffered_bytes_current

    # Simulate a consumer draining part of the exposed list.
    del buffer.events[:2]
    assert len(buffer.events) == 1

    buffer.release()
    assert recorded_events == 3 and recorded_bytes > 0
    assert stats.buffered_events_current == 0
    assert stats.buffered_bytes_current == 0
    assert stats.resident_bytes_current == 0
    assert manager.live_buffers == 0


def test_release_after_full_external_drain_is_balanced():
    """Extreme partial flush: the whole list drained externally."""
    stats = RunStatistics()
    manager = BufferManager(stats)
    buffer = manager.create_buffer()
    buffer.extend([StartElement("a"), EndElement("a")])
    manager.flush()
    buffer.events.clear()
    buffer.release()
    assert stats.buffered_events_current == 0
    assert stats.buffered_bytes_current == 0
    assert manager.live_buffers == 0


def test_freeing_more_resident_than_recorded_is_rejected():
    """The fail-loud guards extend to the resident ledger."""
    stats = RunStatistics()
    stats.record_buffered(2, 20)
    with pytest.raises(RuntimeError, match="resident"):
        stats.record_freed(2, 20, resident=21)
    with pytest.raises(RuntimeError, match="resident"):
        stats.record_spill(21, 10)
    stats.record_freed(2, 20, resident=20)
    assert stats.resident_bytes_current == 0


def test_resident_tracks_buffered_without_a_governor():
    stats = RunStatistics()
    manager = BufferManager(stats)
    buffer = manager.create_buffer()
    buffer.extend([StartElement("a"), Characters("xy"), EndElement("a")])
    assert stats.resident_bytes_current == stats.buffered_bytes_current
    assert stats.peak_resident_bytes == stats.peak_buffered_bytes
    buffer.release()
    assert stats.resident_bytes_current == 0
    assert stats.peak_resident_bytes == stats.peak_buffered_bytes


def test_freeing_more_than_buffered_is_rejected():
    stats = RunStatistics()
    stats.record_buffered(2, 20)
    with pytest.raises(RuntimeError, match="exceeds"):
        stats.record_freed(3, 20)
    with pytest.raises(RuntimeError, match="exceeds"):
        stats.record_freed(2, 21)
    stats.record_freed(2, 20)
    assert stats.buffered_events_current == 0
    assert stats.buffered_bytes_current == 0


def test_condition_byte_accounting():
    stats = RunStatistics()
    stats.record_condition_bytes(10)
    stats.record_condition_bytes(5)
    stats.record_condition_bytes(-15)
    assert stats.condition_bytes_current == 0
    assert stats.peak_condition_bytes == 15


def test_stats_summary_mentions_key_figures():
    stats = RunStatistics()
    stats.record_input(10, 100)
    stats.record_output(5, 50)
    stats.record_buffered(3, 30)
    summary = stats.summary()
    assert "peak-buffer=3" in summary
    assert "in=10" in summary
