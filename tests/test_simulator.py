"""Tests for the deterministic slice-stepped simulator."""

import dataclasses
import math
import random
import statistics
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnec.config import ConfigError, ScenarioConfig
from wsnec.energy_core import (
    CONSTITUENT_ORDER,
    Constituent,
    ResourcePowerProfile,
    ResourceUsageVector,
    task_energy,
)
from wsnec.radio import rx_energy_per_bit, tx_energy_per_bit
from wsnec.simulator import (
    SINK_ID,
    NodeState,
    PacketKind,
    Phase,
    Simulation,
    _poisson,
    charge,
    run,
)


def cfg_with(**kw) -> ScenarioConfig:
    return dataclasses.replace(ScenarioConfig(), **kw)


PROFILE = ResourcePowerProfile(2e-5, 1e-5, 4e-5, 6e-5, 3e-5)


@st.composite
def scenario_families(draw):
    """A short scenario from one of five families: tiny (1-3 nodes), dense (20-40
    nodes on 30 m x 30 m), event-free, mix-charging or depleted (0.001-0.05 J)."""
    total = draw(st.integers(1, 30))
    fields = {"seed": draw(st.integers(0, 2 ** 31 - 1)), "total_slices": total,
              "init_slices": draw(st.integers(0, min(3, total)))}
    family = draw(st.sampled_from(["tiny", "dense", "event-free", "mix-charging", "depleted"]))
    if family == "tiny":
        fields["nodes"] = draw(st.integers(1, 3))
    elif family == "dense":
        fields.update(nodes=draw(st.integers(20, 40)), area_width=30.0, area_height=30.0,
                      sink_x=1.5, sink_y=1.5)
    elif family == "event-free":
        fields["event_rate"] = 0.0
    elif family == "mix-charging":
        fields["mix_charging"] = True
    else:
        fields["initial_battery"] = draw(st.floats(0.001, 0.05))
    return ScenarioConfig(**fields)


class TestClassifyPacket:
    def test_sensed_is_individual(self):
        assert PacketKind.SENSED.constituent is Constituent.INDIVIDUAL

    def test_scheduling_is_local(self):
        assert PacketKind.SCHEDULING.constituent is Constituent.LOCAL

    def test_relayed_data_is_global(self):
        assert PacketKind.RELAYED_DATA.constituent is Constituent.GLOBAL

    def test_mapping_is_total_and_exact(self):
        expected = {
            PacketKind.SENSED: Constituent.INDIVIDUAL,
            PacketKind.NEIGHBOR_INFO: Constituent.LOCAL,
            PacketKind.SCHEDULING: Constituent.LOCAL,
            PacketKind.TOPOLOGY_INFO: Constituent.GLOBAL,
            PacketKind.ROUTING_INFO: Constituent.GLOBAL,
            PacketKind.RELAYED_DATA: Constituent.GLOBAL,
        }
        assert {k: k.constituent for k in PacketKind} == expected
        for kind in PacketKind:
            assert kind.constituent is expected[kind]
            assert CONSTITUENT_ORDER[kind.flow_slot] is expected[kind]


class TestBuildTopology:
    def test_single_node_in_sink_range_routes_direct(self):
        cfg = cfg_with(nodes=1, area_width=10.0, area_height=10.0,
                       sink_x=5.0, sink_y=5.0, r_tx=30.0)
        nodes = Simulation(cfg).nodes
        assert nodes[0].next_hop == SINK_ID

    def test_out_of_range_pair_not_connected(self):
        # a 300x1 strip with r_tx=5 makes in-range pairs unlikely; scan a few
        # seeds for a placement with the two nodes far apart.
        for seed in range(10):
            cfg = cfg_with(seed=seed, nodes=2, area_width=300.0, area_height=1.0,
                           sink_x=0.0, sink_y=0.5, r_tx=5.0)
            nodes = Simulation(cfg).nodes
            d = math.hypot(nodes[0].x - nodes[1].x, nodes[0].y - nodes[1].y)
            if d > cfg.r_tx:
                assert not nodes[0].neighbors and not nodes[1].neighbors
                return
        raise AssertionError("no far-apart placement found in seed scan")

    def test_fixed_seed_reproduces_adjacency(self):
        cfg = cfg_with(seed=99)
        first = Simulation(cfg).nodes
        second = Simulation(cfg).nodes
        for a, b in zip(first, second):
            assert (a.x, a.y) == (b.x, b.y)
            assert [(n.node_id, n.distance) for n in a.neighbors] == \
                [(n.node_id, n.distance) for n in b.neighbors]
            assert a.next_hop == b.next_hop

    def test_neighbors_within_range_and_positive_distance(self):
        nodes = Simulation(cfg_with(seed=3)).nodes
        for node in nodes:
            for nbr in node.neighbors:
                assert 0.0 < nbr.distance <= 30.0

    def test_next_hop_strictly_closer_and_highest_residual(self):
        nodes = Simulation(cfg_with(seed=5)).nodes
        for node in nodes:
            if node.next_hop in (None, SINK_ID):
                continue
            hop = nodes[node.next_hop]
            assert hop.dist_to_sink < node.dist_to_sink
            # all batteries equal initially, so the tie-break picks the
            # lowest-id strictly-closer neighbor
            closer = [n.node_id for n in node.neighbors
                      if nodes[n.node_id].dist_to_sink < node.dist_to_sink]
            assert node.next_hop == min(closer)


@pytest.mark.parametrize("fields, message", [
    ({"initial_battery": 4e-10}, "initial_battery 4e-10 J rounds to 0 nJ"),
    ({"nodes": 10, "initial_battery": 1e6}, r"= 1e\+16 nJ exceeds 2\^53"),
    ({"profile": ResourcePowerProfile(4e-10, 0.0, 0.0, 1.0, 0.0)},
     "sensed handling price 4e-10 J rounds to 0 nJ"),
    ({"mix_charging": True, "profile": ResourcePowerProfile(4e-10, 0.0, 0.0, 0.0, 0.0)},
     "handling price 4e-10 J rounds to 0 nJ"),
    ({"profile": ResourcePowerProfile(0.0, 0.0, 0.0, 1e7, 0.0)},
     r"sensed handling price = 1e\+16 nJ exceeds 2\^53"),
    ({"profile": ResourcePowerProfile(0.0, 0.0, 0.0, 1e300, 0.0)},
     r"sensed handling price = inf nJ exceeds 2\^53"),
    ({"mix_charging": True, "profile": ResourcePowerProfile(1e300, 0.0, 0.0, 0.0, 0.0)},
     r"handling price = inf nJ exceeds 2\^53"),
])
def test_energies_outside_whole_nanojoules_rejected(fields, message):
    with pytest.raises(ConfigError, match=message):
        Simulation(cfg_with(**fields))


def test_a_relay_price_past_2_53_nanojoules_is_rejected_at_its_depth():
    # 1e15 nJ a buffer slot: a queued receive fits under 2^53 nJ, the relay
    # behind ten others does not, and it is priced when first reached.
    sim = Simulation(cfg_with(profile=ResourcePowerProfile(0.0, 1e6, 0.0, 0.0, 0.0)))
    assert sim._relay_handling(9)[0] == 9e15
    with pytest.raises(ConfigError, match=r"relayed_data handling price = 1e\+16 nJ exceeds 2\^53"):
        sim._relay_handling(10)


def test_whole_nanojoule_limits_accepted():
    # A 1 nJ battery, 9e15 nJ of batteries in all, and prices of 1 nJ and 0.
    Simulation(cfg_with(nodes=2, initial_battery=6e-10))
    Simulation(cfg_with(nodes=9, initial_battery=1e6))
    Simulation(cfg_with(nodes=2, profile=ResourcePowerProfile(6e-10, 0.0, 0.0, 0.0, 0.0)))


def reference_repair_participants(self) -> list[NodeState]:
    """``Simulation._repair_participants`` as a breadth-first walk of
    ``(node, depth)`` pairs, verbatim from before it took hop sets."""
    alive = [n for n in self.nodes if n.alive]
    radius = self.cfg.repair_radius_hops
    if radius <= 0 or not self._repair_triggers:
        return alive
    start = sorted(set(t for t in self._repair_triggers if self.nodes[t].alive))
    seen = set(start)
    frontier = deque((node_id, 0) for node_id in start)
    while frontier:
        node_id, depth = frontier.popleft()
        if depth == radius:
            continue
        for nbr in self.nodes[node_id].neighbors:
            if nbr.node_id not in seen and self.nodes[nbr.node_id].alive:
                seen.add(nbr.node_id)
                frontier.append((nbr.node_id, depth + 1))
    return [self.nodes[i] for i in sorted(seen)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 30), r_tx=st.floats(0.0, 150.0),
       radius=st.integers(0, 4), data=st.data())
def test_repair_participants_match_the_breadth_first_walk(seed, n, r_tx, radius, data):
    # Dead nodes anywhere, and triggers that are none, repeated or dead.
    sim = Simulation(cfg_with(seed=seed, nodes=n, r_tx=r_tx, repair_radius_hops=radius))
    for node, alive in zip(sim.nodes, data.draw(st.lists(st.booleans(), min_size=n, max_size=n))):
        node.alive = alive
    sim._repair_triggers = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    got = sim._repair_participants()
    assert got == reference_repair_participants(sim)
    assert all(a is b for a, b in zip(got, reference_repair_participants(sim)))


class TestCharge:
    """Batteries and prices in whole nanojoules, as a run holds them."""

    def _node(self, battery: float) -> NodeState:
        return NodeState(0, 0.0, 0.0, battery, 10.0)

    @staticmethod
    def _price(usage: ResourceUsageVector) -> float:
        return float(round(task_energy(usage, PROFILE) * 1e9))

    def test_battery_equal_to_cost_dies_at_zero(self):
        cost = self._price(ResourceUsageVector(b_cpu=1, b_tx=1))
        node = self._node(80_000.0)   # 2e-5 J + 6e-5 J
        entry = charge(node, cost)
        assert entry == cost == 80_000.0
        assert node.battery == 0.0 and not node.alive

    def test_dead_node_drops(self):
        node = self._node(1e9)
        node.alive = False
        before = node.battery
        cost = self._price(ResourceUsageVector(b_cpu=1))
        assert charge(node, cost) is None
        assert node.battery == before

    def test_unaffordable_task_ignored(self):
        node = self._node(1_000.0)
        cost = self._price(ResourceUsageVector(b_cpu=1))
        assert charge(node, cost) is None
        assert node.battery == 1_000.0 and node.alive


class TestRun:
    def test_null_workload_has_zero_collection_flows(self):
        cfg = cfg_with(nodes=5, event_rate=0.0, monitoring=False,
                       maintenance_period=0, total_slices=10)
        result = run(cfg)
        for rec in result.records:
            if rec.phase is Phase.COLLECTION:
                assert rec.flows.as_tuple() == (0.0,) * 5
                assert rec.energy_j == 0.0

    def test_single_adjacent_node_delivers_directly(self):
        # seed 0 gives exactly one event in the single collection slice
        cfg = cfg_with(seed=0, nodes=1, area_width=10.0, area_height=10.0,
                       sink_x=5.0, sink_y=5.0, r_tx=30.0, r_sense=50.0,
                       init_slices=0, total_slices=1, monitoring=False,
                       scheduling=False, maintenance_period=0, event_rate=1.0)
        result = run(cfg)
        sensed = [e for e in result.ledger if e.kind is PacketKind.SENSED]
        relays = [e for e in result.ledger if e.kind is PacketKind.RELAYED_DATA]
        assert len(sensed) == 1 and not relays
        assert result.delivered == 1

    def test_default_run_is_deterministic(self):
        cfg = cfg_with(seed=7, total_slices=30)
        a, b = run(cfg), run(cfg)
        assert [r.flows.as_tuple() for r in a.records] == [r.flows.as_tuple() for r in b.records]
        assert [r.energy_j for r in a.records] == [r.energy_j for r in b.records]
        assert [r.phase for r in a.records] == [r.phase for r in b.records]
        assert a.delivered == b.delivered and a.dropped == b.dropped

    def test_conservation_ledger_vs_battery(self):
        # In whole nJ, exactly; the run's joule totals are those over 1e9.
        cfg = cfg_with(seed=11)
        result = run(cfg)
        initial = cfg.nodes * round(cfg.initial_battery * 1e9)
        drained = initial - sum(node.battery for node in result.nodes)
        handlings = result.ledger.handlings
        booked = sum(handlings[code][1] for _, codes in result.ledger.groups for code in codes)
        assert drained == booked > 0
        assert result.initial_battery_total == initial / 1e9
        assert result.final_battery_total == (initial - drained) / 1e9
        assert result.ledger_total == booked / 1e9

    @settings(max_examples=100, deadline=None)
    @given(scenario_families())
    def test_books_balance_in_every_scenario_family(self, cfg):
        # Each node's battery drop is its rows' whole nJ, exactly; those nJ
        # over 1e9 are the ledger total; nodes never revive; no battery goes
        # below 0; and every delivery was sensed and sent outside initialization.
        result = run(cfg)
        handlings, drops = result.ledger.handlings, [0.0] * cfg.nodes
        sense_sends = 0
        for rec, (nodes, codes) in zip(result.records, result.ledger.groups, strict=True):
            for node_id, code in zip(nodes, codes):
                kind, nanojoules, sends, _ = handlings[code]
                drops[node_id] += nanojoules
                sense_sends += (kind is PacketKind.SENSED and sends > 0
                                and rec.phase is not Phase.INITIALIZATION)
        battery = round(cfg.initial_battery * 1e9)
        assert [battery - node.battery for node in result.nodes] == drops
        assert sum(drops) / 1e9 == result.ledger_total
        alive = [rec.alive_nodes for rec in result.records]
        assert alive == sorted(alive, reverse=True)
        assert all(node.battery >= 0 for node in result.nodes)
        assert result.delivered <= sense_sends

    def test_slice_energy_equals_ledger_per_slice(self):
        # The slice's whole-nJ rows, added in any order (here the reverse of
        # booking order), over 1e9: default, depleted, mix-charging and
        # repair-2-hops scenarios.
        for fields in ({}, {"initial_battery": 0.004}, {"mix_charging": True},
                       {"repair_radius_hops": 2, "initial_battery": 0.02}):
            result = run(ScenarioConfig(**fields))
            expected, handlings = [0.0] * len(result.records), result.ledger.handlings
            for index, (_, codes) in enumerate(result.ledger.groups):
                for _, nanojoules, _, _ in map(handlings.__getitem__, reversed(codes)):
                    assert nanojoules == round(nanojoules) > 0
                    expected[index] += nanojoules
            assert [rec.energy_j for rec in result.records] == [e / 1e9 for e in expected], fields

    def test_flow_totals_count_every_charge_once(self):
        result = run(cfg_with(seed=17, total_slices=20))
        counts = {}
        for entry in result.ledger:
            k = CONSTITUENT_ORDER.index(entry.kind.constituent)
            key = (entry.slice_index, k)
            counts[key] = counts.get(key, 0) + 1
        for rec in result.records:
            for k in range(5):
                assert rec.flows.as_tuple()[k] == counts.get((rec.index, k), 0)

    def test_maintenance_exceeds_collection_global_and_energy(self):
        result = run(ScenarioConfig())
        coll = [r for r in result.records if r.phase is Phase.COLLECTION]
        maint = [r for r in result.records if r.phase is Phase.MAINTENANCE]
        assert maint, "default scenario must reach maintenance"
        mean_coll_energy = sum(r.energy_j for r in coll) / len(coll)
        mean_coll_global = sum(r.flows.b_global for r in coll) / len(coll)
        for rec in maint:
            assert rec.flows.b_global > mean_coll_global
            assert rec.energy_j > mean_coll_energy

    def test_phase_sequence_valid(self):
        result = run(ScenarioConfig())
        phases = [r.phase for r in result.records]
        assert phases[:3] == [Phase.INITIALIZATION] * 3
        assert phases[3] is Phase.COLLECTION
        assert Phase.INITIALIZATION not in phases[3:]
        for i, p in enumerate(phases):
            if p is Phase.MAINTENANCE:
                assert phases[i - 1] in (Phase.COLLECTION, Phase.MAINTENANCE)

    def test_alive_count_non_increasing(self):
        result = run(cfg_with(seed=1, initial_battery=0.004, total_slices=40))
        alive = [r.alive_nodes for r in result.records]
        assert all(a >= b for a, b in zip(alive, alive[1:]))

    def test_dead_next_hop_triggers_maintenance(self):
        # frozen scenario: nodes run dry, probes time out, repair follows
        cfg = cfg_with(seed=1, nodes=4, area_width=90.0, area_height=4.0,
                       sink_x=0.0, sink_y=2.0, r_tx=40.0, r_sense=60.0,
                       init_slices=3, total_slices=30, monitoring=True,
                       scheduling=False, maintenance_period=0, monitor_period=5,
                       event_rate=3.0, initial_battery=0.004)
        result = run(cfg)
        phases = [r.phase for r in result.records]
        assert Phase.MAINTENANCE in phases
        first = phases.index(Phase.MAINTENANCE)
        assert phases[first - 1] is Phase.COLLECTION

    def test_global_share_ordering_against_individual_baseline(self):
        # pure-individual baseline: one node beside the sink, no monitoring
        baseline = run(cfg_with(seed=2, nodes=1, area_width=10.0, area_height=10.0,
                                sink_x=5.0, sink_y=5.0, init_slices=0, total_slices=20,
                                monitoring=False, scheduling=False,
                                maintenance_period=0, event_rate=4.0))
        base_flows = [0.0] * 5
        for rec in baseline.records:
            for k in range(5):
                base_flows[k] += rec.flows.as_tuple()[k]
        assert base_flows[2] == 0.0 and base_flows[0] > 0

        result = run(ScenarioConfig())
        coll = [r for r in result.records if r.phase is Phase.COLLECTION]
        maint = [r for r in result.records if r.phase is Phase.MAINTENANCE]
        def share(records):
            tot = [0.0] * 5
            for r in records:
                for k in range(5):
                    tot[k] += r.flows.as_tuple()[k]
            return tot[2] / sum(tot)
        assert share(maint) > share(coll) > 0.0

    def test_environment_and_sink_flows_stay_zero(self):
        result = run(ScenarioConfig())
        for rec in result.records:
            assert rec.flows.b_environment == 0.0
            assert rec.flows.b_snk == 0.0

    def test_all_dead_truncates_trace(self):
        # two warm-up readings at 5 µJ apiece drain a 10 µJ battery in slice 0
        profile = ResourcePowerProfile(p_cpu=2.5e-6, p_mem=0.0, p_rx=0.0,
                                       p_tx=0.0, p_sens=2.5e-6)
        cfg = cfg_with(seed=5, nodes=1, initial_battery=1e-5, total_slices=10,
                       warmup_packets=2, monitoring=False, scheduling=False,
                       event_rate=0.0, maintenance_period=0, profile=profile)
        result = run(cfg)
        assert len(result.records) == 1
        assert result.records[0].alive_nodes == 0
        assert result.nodes[0].battery == 0.0 and not result.nodes[0].alive

    @pytest.mark.parametrize("battery", [0.001, 0.004, 0.02, 0.05])
    def test_depleted_runs_reach_node_death(self, battery):
        # A battery that lands on zero kills its node; a live node holds more.
        nodes = run(cfg_with(initial_battery=battery)).nodes
        assert any(not node.alive for node in nodes)
        assert all((node.battery == 0.0) is not node.alive for node in nodes)

    def test_mix_charging_prices_by_constituent(self):
        cfg = cfg_with(seed=9, total_slices=10, mix_charging=True)
        result = run(cfg)
        from wsnec.energy_core import constituent_alpha
        costs = {c: constituent_alpha(cfg.mix.row(c), cfg.profile)
                 for c in CONSTITUENT_ORDER}
        for entry in result.ledger:
            assert entry.energy == pytest.approx(costs[entry.kind.constituent], rel=1e-12)


@pytest.mark.parametrize("lam", [1000.0, 3000.0])
def test_poisson_mean_holds_past_the_underflow_of_exp(lam):
    # exp(-lam) underflows near lam = 745, where single draws saturated.
    rng = random.Random(17)
    draws = [_poisson(rng, lam) for _ in range(2000)]
    assert abs(statistics.fmean(draws) - lam) < 4 * math.sqrt(lam / 2000)


class TestRadioAudit:
    def test_single_hop_audit_matches_profile_charges(self):
        # place the node, read its actual sink distance, then price p_tx so the
        # per-packet charge equals the radio model's per-packet energy
        probe_cfg = cfg_with(seed=21, nodes=1, area_width=10.0, area_height=10.0,
                             sink_x=5.0, sink_y=5.0, init_slices=0, total_slices=5,
                             monitoring=False, scheduling=False,
                             maintenance_period=0, event_rate=3.0)
        d = Simulation(probe_cfg).nodes[0].dist_to_sink
        per_packet = probe_cfg.bits_per_packet * tx_energy_per_bit(d, probe_cfg.radio)
        profile = ResourcePowerProfile(p_cpu=2e-5, p_mem=1e-5, p_rx=4e-5,
                                       p_tx=per_packet, p_sens=3e-5)
        result = run(dataclasses.replace(probe_cfg, profile=profile))
        assert result.radio.tx_events > 0
        assert result.radio.charged_tx_j == pytest.approx(result.radio.model_tx_j, rel=1e-12)

    def test_audit_counts_tx_rx_events(self):
        cfg = ScenarioConfig()
        radio = run(cfg).radio
        assert radio.tx_events > 0 and radio.rx_events > 0
        assert radio.charged_tx_j == radio.tx_events * cfg.profile.p_tx
        assert radio.charged_rx_j == radio.rx_events * cfg.profile.p_rx
        assert radio.model_rx_j == radio.rx_events * (
            cfg.bits_per_packet * rx_energy_per_bit(cfg.radio))
