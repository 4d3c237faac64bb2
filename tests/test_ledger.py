"""The run's ledger: what the ``charge`` hook sees, and how the rows are kept.

Tracing wraps ``wsnec.simulator.charge``, which the simulator looks up on
every handling, and counts its non-``None`` returns as booked handlings, so
those calls must be the ledger, row for row. The ledger keeps its rows in
one group of two typed columns per slice, node ids and handling codes, each
code naming a (kind, whole-nanojoule price, sends, receives) handling in the
run's handling table; it stays out of reference cycles, and a node's battery
drop is exactly the sum of its rows.
"""

import gc
import sys
import weakref
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            booked.append((slice_index, node.node_id, kind, cost))
        return returned

    monkeypatch.setattr(simulator, "charge", recording)
    result = simulator.run(ScenarioConfig(**fields))
    handlings = result.ledger.handlings
    assert len(booked) == len(result.ledger) > 0
    assert [(i, node_id, *handlings[code][:2])
            for i, (nodes, codes) in enumerate(result.ledger.groups)
            for node_id, code in zip(nodes, codes)] == booked
    assert [(e.slice_index, e.node_id, e.kind, e.energy) for e in result.ledger] == [
        (i, node_id, kind, nanojoules / 1e9) for i, node_id, kind, nanojoules in booked]
    # One row group per slice, as long as the rows booked in that slice.
    groups, counts = result.ledger.groups, Counter(row[0] for row in booked)
    assert len(groups) == len(result.records)
    assert [len(codes) for _, codes in groups] == [counts[i] for i in range(len(groups))]
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
    assert list(ledger) == entries   # reading again gives the same rows
    assert entries == list(simulator.run(ScenarioConfig(total_slices=8)).ledger)
    assert entries != list(simulator.run(ScenarioConfig(total_slices=7)).ledger)
    with pytest.raises(TypeError):
        ledger[0] = entries[0]


@pytest.mark.parametrize("fields", [
    {}, {"initial_battery": 0.004}, {"repair_radius_hops": 2, "initial_battery": 0.02},
    {"mix_charging": True}, {"r_tx": 0.0}],
    ids=["default", "depleted", "repair-2-hops", "mix-charging", "no-links"])
def test_each_nodes_battery_drop_is_the_sum_of_its_rows(fields):
    cfg = ScenarioConfig(**fields)
    result = simulator.run(cfg)
    booked, handlings = [0.0] * cfg.nodes, result.ledger.handlings
    for nodes, codes in result.ledger.groups:
        for node_id, code in zip(nodes, codes):
            booked[node_id] += handlings[code][1]
    initial = round(cfg.initial_battery * 1e9)
    assert [initial - node.battery for node in result.nodes] == booked
    assert all(booked)


@pytest.mark.parametrize("fields", [{}, {"nodes": 200}], ids=["default", "200-nodes"])
def test_ledger_costs_at_most_9_bytes_a_row(fields):
    ledger = simulator.run(ScenarioConfig(**fields)).ledger
    columns = [column for group in ledger.groups for column in group]
    assert {tuple(c.typecode for c in group) for group in ledger.groups} == {("i", "I")}
    assert all(len(nodes) == len(codes) for nodes, codes in ledger.groups)
    assert len(ledger) > 10_000
    # 8 B a row, plus each column's header (128 B a slice, 0.8 B a row on the
    # default run's 80 slices) and any spare capacity. Each group's 2-tuple
    # adds 56 B a slice (0.3 B a row), which this bound leaves out.
    assert sum(map(sys.getsizeof, columns)) / len(ledger) <= 9


def test_rows_compare_equal_however_they_were_booked():
    relayed = PacketKind.RELAYED_DATA
    stages = {1: [([3, 4], [500.0, 250.0])], 2: [([], [])],
              4: [([7], [2000.0]), ([8, 9], [1000.0, 3000.0])]}
    per_stage, per_row = Ledger(), Ledger()
    per_row.code(PacketKind.SENSED, 1.0, 1, 0)   # so that the two ledgers' codes differ
    for slice_index, booked in stages.items():
        for ids, costs in booked:
            per_stage.book(slice_index, ids,
                           array("I", [per_stage.code(relayed, c, 1, 1) for c in costs]))
            for node_id, cost in zip(ids, costs):
                per_row.book(slice_index, [node_id],
                             array("I", (per_row.code(relayed, cost, 1, 1),)))
    per_row.book(6, [], array("I"))   # empty trailing slices
    assert per_stage.groups[4][1] != per_row.groups[4][1]
    assert (len(per_stage.groups), len(per_row.groups)) == (5, 7)
    rows = [ChargeEntry(1, 3, PacketKind.RELAYED_DATA, 5e-7),
            ChargeEntry(1, 4, PacketKind.RELAYED_DATA, 2.5e-7),
            ChargeEntry(4, 7, PacketKind.RELAYED_DATA, 2e-6),
            ChargeEntry(4, 8, PacketKind.RELAYED_DATA, 1e-6),
            ChargeEntry(4, 9, PacketKind.RELAYED_DATA, 3e-6)]
    assert list(per_stage) == list(per_row) == rows and len(per_row) == 5
    per_row.book(6, [1], array("I", (per_row.code(relayed, 3000.0, 1, 1),)))
    assert list(per_stage) != list(per_row)


def test_totals_of_a_slice_without_rows():
    ledger = Ledger()
    ledger.code(PacketKind.ROUTING_INFO, 4000.0, 1, 1)   # in the table, booked nowhere
    ledger.book(2, [5, 6, 7], array("I", (ledger.code(PacketKind.SENSED, 1500.0, 1, 0),
                                          ledger.code(PacketKind.SCHEDULING, 250.0, 1, 0),
                                          ledger.code(PacketKind.NEIGHBOR_INFO, 250.0, 0, 1))))
    for slice_index in (0, 1, 3):
        assert ledger.totals(slice_index) == (ConstituentFlowVector(0, 0, 0, 0, 0), 0.0, 0, 0)
    assert ledger.totals(2) == (ConstituentFlowVector(1, 2, 0, 0, 0), 2000.0, 2, 1)
    assert len(ledger.groups) == 4 and len(ledger) == 3


def test_handlings_of_one_kind_and_price_differ_by_their_legs():
    # Mix charging prices by kind alone: a warm-up and a sense-and-send cost
    # the same, and so do a queued receive and a plain relay receive. Their
    # sends and receives keep them apart, and the slice totals count them.
    ledger = Ledger()
    sensed, relayed = PacketKind.SENSED, PacketKind.RELAYED_DATA
    codes = [ledger.code(sensed, 900.0, 0, 0), ledger.code(sensed, 900.0, 1, 0),
             ledger.code(relayed, 700.0, 0, 1), ledger.code(relayed, 700.0, 1, 1)]
    assert codes == [0, 1, 2, 3] and ledger.code(sensed, 900.0, 1, 0) == 1
    ledger.book(0, [1, 1, 2, 3, 3], array("I", [0, 1, 2, 3, 3]))
    assert ledger.totals(0) == (ConstituentFlowVector(2, 0, 3, 0, 0), 3900.0, 3, 3)
    assert [(e.kind, e.energy) for e in ledger] == [
        (sensed, 9e-7), (sensed, 9e-7), (relayed, 7e-7), (relayed, 7e-7), (relayed, 7e-7)]


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


# Tiny, dense, event-free, link-free, mix-charging and depleted scenarios.
scenarios = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 31 - 1),
    "nodes": st.integers(1, 3) | st.integers(20, 60),
    "area_width": st.sampled_from([20.0, 100.0]),   # 20 m a side: dense
    "event_rate": st.sampled_from([0.0, 18.0]),
    "r_tx": st.sampled_from([0.0, 30.0]),
    "mix_charging": st.booleans(),
    "initial_battery": st.floats(0.001, 0.05) | st.just(0.5),
    "total_slices": st.integers(3, 30),
})


@settings(max_examples=40, deadline=None)
@given(scenarios)
def test_decoded_rows_add_up_to_every_battery_drop_and_slice_energy(fields):
    fields["area_height"] = fields["area_width"]
    cfg = ScenarioConfig(**fields)
    result = simulator.run(cfg)
    ledger = result.ledger
    handlings, table = ledger.handlings, list(ledger.handlings)
    # One code per distinct (kind, nJ, sends, receives) handling, and each
    # code gives its handling back.
    assert len(set(table)) == len(table)
    assert [ledger.code(*handling) for handling in table] == list(range(len(table)))
    assert [handlings[ledger.code(*handling)] for handling in table] == table
    assert handlings == table   # looking a handling up interned nothing new
    drops, energies = [0.0] * cfg.nodes, [0.0] * len(result.records)
    sends = receives = 0
    for index, (nodes, codes) in enumerate(ledger.groups):
        for node_id, code in zip(nodes, codes):
            _, nanojoules, tx, rx = handlings[code]
            drops[node_id] += nanojoules
            energies[index] += nanojoules
            sends, receives = sends + tx, receives + rx
    initial = round(cfg.initial_battery * 1e9)
    assert [initial - node.battery for node in result.nodes] == drops
    assert [rec.energy_j for rec in result.records] == [e / 1e9 for e in energies]
    assert result.ledger_total == sum(energies) / 1e9
    assert (result.radio.tx_events, result.radio.rx_events) == (sends, receives)
