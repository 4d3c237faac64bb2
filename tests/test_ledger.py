"""The run's ledger: what the ``charge`` hook sees, and how the rows are kept.

Tracing wraps ``wsnec.simulator.charge``, which the simulator looks up on
every handling, and counts its non-``None`` returns as booked handlings, so
those returns must be the ledger, row for row. The ledger keeps its
rows out of the cyclic collector and out of reference cycles.
"""

import gc
import weakref

import pytest

from wsnec import simulator
from wsnec.config import ScenarioConfig
from wsnec.simulator import ChargeEntry, PacketKind


@pytest.mark.parametrize("fields", [
    {}, {"initial_battery": 0.004}, {"mix_charging": True},
    {"repair_radius_hops": 2, "initial_battery": 0.02}],
    ids=["default", "depleted", "mix-charging", "repair-2-hops"])
def test_charge_hook_returns_are_the_ledger(monkeypatch, fields):
    returns = []
    original = simulator.charge

    def recording(*args, **kwargs):
        entry = original(*args, **kwargs)
        returns.append(entry)
        return entry

    monkeypatch.setattr(simulator, "charge", recording)
    result = simulator.run(ScenarioConfig(**fields))
    booked = [row for row in returns if row is not None]
    rows = result.ledger._rows
    assert len(booked) == len(rows) == len(result.ledger)
    assert all(row is kept and type(row) is tuple for row, kept in zip(booked, rows))
    assert [simulator._entry(row) for row in booked] == list(result.ledger)
    # Each record's flows are its slice's rows per constituent.
    flows = [[0.0] * 5 for _ in result.records]
    for entry in result.ledger:
        flows[entry.slice_index][entry.kind.flow_slot] += 1
    assert [list(rec.flows.as_tuple()) for rec in result.records] == flows


def test_ledger_reads_as_a_sequence_of_entries():
    ledger = simulator.run(ScenarioConfig(total_slices=8)).ledger
    entries = list(ledger)
    assert len(ledger) == len(entries) > 2
    assert all(type(e) is ChargeEntry and isinstance(e.kind, PacketKind) for e in entries)
    assert ledger[0] == entries[0] and ledger[-1] == entries[-1]
    assert ledger[1:3] == entries[1:3]
    assert ledger == entries and ledger != entries[:-1]
    assert ledger == simulator.run(ScenarioConfig(total_slices=8)).ledger
    assert ledger != simulator.run(ScenarioConfig(total_slices=7)).ledger
    with pytest.raises(IndexError):
        ledger[len(entries)]
    with pytest.raises(TypeError):
        ledger[0] = entries[0]


def test_ledger_rows_are_untracked_after_a_collection():
    result = simulator.run(ScenarioConfig())
    gc.collect()
    rows = result.ledger._rows
    assert len(rows) == len(result.ledger) > 0
    assert not any(gc.is_tracked(row) for row in rows)


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
