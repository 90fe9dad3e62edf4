"""Registry unregistration (satellite of the serve PR).

:meth:`QueryRegistry.unregister` removes one compiled query: indices stay
dense, ``version`` bumps (so engines rebuild their merged filter), the
``repro.registry.*`` counters record the change, and -- the balanced-ledger
property -- runs before and after unregistration release every buffered
byte they charge, so removing a query never leaves dangling memory.
"""

import pytest

from repro import MultiQueryEngine, QueryRegistry
from repro.obs.metrics import global_registry
from repro.xmark import xmark_dtd
from repro.xmark.generator import config_for_scale, generate_document
from repro.xmark.queries import BENCHMARK_QUERIES


@pytest.fixture(scope="module")
def document():
    return generate_document(config_for_scale(0.02, seed=7))


@pytest.fixture()
def registry():
    reg = QueryRegistry(xmark_dtd())
    for name in ("Q1", "Q13", "Q20"):
        reg.register(name, BENCHMARK_QUERIES[name])
    return reg


def test_unregister_removes_and_keeps_indices_dense(registry):
    version = registry.version
    entry = registry.unregister("Q13")
    assert entry.name == "Q13"
    assert registry.names == ("Q1", "Q20")
    assert [registry.get(name).index for name in registry.names] == [0, 1]
    assert registry.version == version + 1
    assert "Q13" not in registry
    with pytest.raises(KeyError, match="Q13"):
        registry.unregister("Q13")


def test_unregister_metrics_ledger_balances(registry):
    metrics = global_registry()
    registered = metrics.counter("repro.registry.registered.total")
    unregistered = metrics.counter("repro.registry.unregistered.total")
    before = (registered.value, unregistered.value)

    registry.register("extra", BENCHMARK_QUERIES["Q8"])
    registry.unregister("extra")
    registry.unregister("Q20")

    assert registered.value == before[0] + 1
    assert unregistered.value == before[1] + 2


def test_runs_stay_correct_and_release_buffers_after_unregister(registry, document):
    engine = MultiQueryEngine(registry)
    full = engine.run(document)
    solo = {
        name: registry.get(name).engine.execute(document).output
        for name in registry.names
    }
    assert full.outputs() == solo

    registry.unregister("Q13")
    survivors = engine.run(document)
    assert set(survivors.outputs()) == {"Q1", "Q20"}
    assert survivors.outputs() == {name: solo[name] for name in ("Q1", "Q20")}

    # Balanced ledger: every byte charged during each pass was released.
    for run in (full, survivors):
        for name in run.outputs():
            stats = run[name].stats
            assert stats.resident_bytes_current == 0
            assert stats.peak_resident_bytes >= 0


def test_reregister_after_unregister_reuses_name(registry):
    registry.unregister("Q1")
    entry = registry.register("Q1", BENCHMARK_QUERIES["Q1"])
    assert entry.index == len(registry) - 1
    assert registry.names == ("Q13", "Q20", "Q1")
