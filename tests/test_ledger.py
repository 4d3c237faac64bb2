"""The run's ledger: what the ``charge`` hook sees, and how the rows are kept.

Tracing wraps ``wsnec.simulator.charge``, which the simulator looks up on
every handling, and counts its non-``None`` returns as booked handlings, so
those calls must be the ledger, row for row. The ledger keeps its rows in
one group of three typed columns per slice, energies in whole nanojoules,
out of reference cycles, and a node's battery drop is exactly the sum of its
rows.
"""

import gc
import sys
import weakref
from collections import Counter

import pytest

from wsnec import simulator
from wsnec.config import ScenarioConfig
from wsnec.energy_core import ConstituentFlowVector
from wsnec.simulator import ChargeEntry, Ledger, PacketKind


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
    assert [(i, node_id, code, nanojoules)
            for i, (nodes, codes, energies) in enumerate(result.ledger.groups)
            for node_id, code, nanojoules in zip(nodes, codes, energies)] == booked
    assert [(e.slice_index, e.node_id, e.kind.code, e.energy) for e in result.ledger] == [
        (i, node_id, code, nanojoules / 1e9) for i, node_id, code, nanojoules in booked]
    # One row group per slice, as long as the rows booked in that slice.
    groups, counts = result.ledger.groups, Counter(row[0] for row in booked)
    assert len(groups) == len(result.records)
    assert [len(energies) for _, _, energies in groups] == [counts[i] for i in range(len(groups))]
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


@pytest.mark.parametrize("fields", [
    {}, {"initial_battery": 0.004}, {"repair_radius_hops": 2, "initial_battery": 0.02},
    {"mix_charging": True}, {"r_tx": 0.0}],
    ids=["default", "depleted", "repair-2-hops", "mix-charging", "no-links"])
def test_each_nodes_battery_drop_is_the_sum_of_its_rows(fields):
    cfg = ScenarioConfig(**fields)
    result = simulator.run(cfg)
    booked = [0.0] * cfg.nodes
    for nodes, _, energies in result.ledger.groups:
        for node_id, nanojoules in zip(nodes, energies):
            booked[node_id] += nanojoules
    initial = round(cfg.initial_battery * 1e9)
    assert [initial - node.battery for node in result.nodes] == booked
    assert all(booked)


@pytest.mark.parametrize("fields", [{}, {"nodes": 200}], ids=["default", "200-nodes"])
def test_ledger_costs_at_most_16_bytes_a_row(fields):
    ledger = simulator.run(ScenarioConfig(**fields)).ledger
    columns = [column for group in ledger.groups for column in group]
    assert {tuple(c.typecode for c in group) for group in ledger.groups} == {("i", "b", "d")}
    assert all(len(nodes) == len(kinds) == len(energies) for nodes, kinds, energies in ledger.groups)
    assert len(ledger) > 10_000
    # The columns hold the rows; each group's 3-tuple adds 64 B a slice (0.4 B
    # a row on the default run's 80 slices), which this bound leaves out.
    assert sum(map(sys.getsizeof, columns)) / len(ledger) <= 16


def test_rows_compare_equal_however_they_were_booked():
    code = PacketKind.RELAYED_DATA.code
    stages = {1: [([3, 4], [500.0, 250.0])], 2: [([], [])],
              4: [([7], [2000.0]), ([8, 9], [1000.0, 3000.0])]}
    per_stage, per_row = Ledger(), Ledger()
    for slice_index, booked in stages.items():
        for ids, costs in booked:
            per_stage.book(slice_index, ids, bytes((code,)) * len(ids), costs)
            for node_id, cost in zip(ids, costs):
                per_row.book(slice_index, [node_id], bytes((code,)), [cost])
    per_row.book(6, [], b"", [])   # empty trailing slices
    assert (len(per_stage.groups), len(per_row.groups)) == (5, 7)
    rows = [ChargeEntry(1, 3, PacketKind.RELAYED_DATA, 5e-7),
            ChargeEntry(1, 4, PacketKind.RELAYED_DATA, 2.5e-7),
            ChargeEntry(4, 7, PacketKind.RELAYED_DATA, 2e-6),
            ChargeEntry(4, 8, PacketKind.RELAYED_DATA, 1e-6),
            ChargeEntry(4, 9, PacketKind.RELAYED_DATA, 3e-6)]
    assert per_stage == per_row == rows and len(per_row) == 5
    assert per_row[2:4] == rows[2:4] and per_row[-1] == rows[-1]
    per_row.book(6, [1], bytes((code,)), [3000.0])
    assert per_stage != per_row


def test_totals_of_a_slice_without_rows():
    ledger = Ledger()
    ledger.book(2, [5, 6], bytes((PacketKind.SENSED.code, PacketKind.SCHEDULING.code)),
                [1500.0, 250.0])
    for slice_index in (0, 1, 3):
        assert ledger.totals(slice_index) == (ConstituentFlowVector(0, 0, 0, 0, 0), 0.0)
    assert ledger.totals(2) == (ConstituentFlowVector(1, 1, 0, 0, 0), 1750.0)
    assert len(ledger.groups) == 4 and len(ledger) == 2


def test_reference_counting_alone_frees_the_ledger():
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        gc.collect()   # garbage left by earlier tests would be saved below
        result = simulator.run(ScenarioConfig(total_slices=10))
        ref = weakref.ref(result.ledger)
        del result
        assert ref() is None
        # Nor does the node graph form a cycle: the collector finds none of it.
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        assert sum(isinstance(obj, (simulator.NodeState, simulator.Neighbor))
                   for obj in gc.garbage) == 0
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
