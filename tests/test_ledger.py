"""The run's ledger: what the ``charge`` hook sees, and how the rows are kept.

Tracing wraps ``wsnec.simulator.charge``, which the simulator looks up on
every handling, and counts its non-``None`` returns as booked handlings, so
those calls must be the ledger, row for row. The ledger keeps its rows in
four typed columns, out of reference cycles.
"""

import gc
import sys
import weakref

import pytest

from wsnec import simulator
from wsnec.config import ScenarioConfig
from wsnec.simulator import ChargeEntry, PacketKind


def _columns(ledger):
    return ledger.slices, ledger.nodes, ledger.kinds, ledger.energies


@pytest.mark.parametrize("fields", [
    {}, {"initial_battery": 0.004}, {"mix_charging": True},
    {"repair_radius_hops": 2, "initial_battery": 0.02}],
    ids=["default", "depleted", "mix-charging", "repair-2-hops"])
def test_charge_hook_returns_are_the_ledger(monkeypatch, fields):
    booked = []
    original = simulator.charge

    def recording(node, kind, cost, slice_index):
        returned = original(node, kind, cost, slice_index)
        if returned is not None:
            assert returned == cost
            booked.append((slice_index, node.node_id, kind.code, cost))
        return returned

    monkeypatch.setattr(simulator, "charge", recording)
    result = simulator.run(ScenarioConfig(**fields))
    assert len(booked) == len(result.ledger) > 0
    assert list(zip(*_columns(result.ledger))) == booked
    # Each record's flows are its slice's rows per constituent.
    flows = [[0.0] * 5 for _ in result.records]
    for entry in result.ledger:
        flows[entry.slice_index][entry.kind.flow_slot] += 1
    assert [list(rec.flows.as_tuple()) for rec in result.records] == flows


def test_ledger_reads_as_a_sequence_of_entries():
    ledger = simulator.run(ScenarioConfig(total_slices=8)).ledger
    entries = list(ledger)
    n = len(entries)
    assert len(ledger) == n > 2
    assert all(type(e) is ChargeEntry and isinstance(e.kind, PacketKind) for e in entries)
    assert all(type(e.slice_index) is int and type(e.node_id) is int and type(e.energy) is float
               for e in entries)
    assert ledger[0] == entries[0] and ledger[-1] == entries[-1]
    assert ledger[-n] == entries[0] and ledger[-2] == entries[-2]
    assert ledger[1:3] == entries[1:3]
    assert ledger[::3] == entries[::3] and ledger[-1:0:-2] == entries[-1:0:-2]
    assert ledger == entries and ledger != entries[:-1]
    assert ledger == simulator.run(ScenarioConfig(total_slices=8)).ledger
    assert ledger != simulator.run(ScenarioConfig(total_slices=7)).ledger
    with pytest.raises(IndexError):
        ledger[n]
    with pytest.raises(IndexError):
        ledger[-n - 1]
    with pytest.raises(TypeError):
        ledger[0] = entries[0]


@pytest.mark.parametrize("fields", [{}, {"nodes": 200}], ids=["default", "200-nodes"])
def test_ledger_costs_at_most_20_bytes_a_row(fields):
    ledger = simulator.run(ScenarioConfig(**fields)).ledger
    columns = _columns(ledger)
    assert [c.typecode for c in columns] == ["i", "i", "b", "d"]
    assert all(len(c) == len(ledger) for c in columns) and len(ledger) > 10_000
    assert sum(map(sys.getsizeof, columns)) / len(ledger) <= 20


def test_reference_counting_alone_frees_the_ledger():
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = simulator.run(ScenarioConfig(total_slices=10))
        ref = weakref.ref(result.ledger)
        del result
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
