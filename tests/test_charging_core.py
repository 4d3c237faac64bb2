"""Equivalence of the simulator's charging core with its plain references.

The cell grid must find exactly the neighbors and covered nodes an O(n^2)
scan finds, in the same order; the exchange stages must book exactly what
per-pair probe and announcement loops book, and the event loop exactly what
the per-handling sense, schedule and relay path books; the per-run cost
table must hold exactly the ``task_energy`` of each usage in whole
nanojoules; and the radio audit must not move.
"""

import dataclasses
import math
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnec.config import ScenarioConfig
from wsnec.energy_core import (
    ResourcePowerProfile,
    ResourceUsageVector,
    constituent_alpha,
    task_energy,
)
from wsnec.radio import tx_energy_per_bit
from wsnec.simulator import (
    SINK_ID,
    USAGE_RECV,
    USAGE_RECV_QUEUE,
    USAGE_SEND,
    USAGE_SENSE_SEND,
    USAGE_WARMUP,
    CellGrid,
    Neighbor,
    NodeState,
    PacketKind,
    RadioAudit,
    Simulation,
    _poisson,
    charge,
    connect_neighbors,
    select_next_hop,
)

EXTENT = 100.0


def reference_neighbors(nodes, r_tx):
    """The O(n^2) pair loop the grid replaces, as (id, distance, residual) lists."""
    lists = {node.node_id: [] for node in nodes}
    for a in nodes:
        for b in nodes:
            if b.node_id <= a.node_id:
                continue
            d = math.hypot(a.x - b.x, a.y - b.y)
            if 0.0 < d <= r_tx:
                lists[a.node_id].append(Neighbor(b.node_id, d, b.battery))
                lists[b.node_id].append(Neighbor(a.node_id, d, a.battery))
    for nbrs in lists.values():
        nbrs.sort(key=lambda nbr: nbr.node_id)
    return {k: [(n.node_id, n.distance, n.last_residual) for n in v] for k, v in lists.items()}


def reference_covered(nodes, x, y, radius):
    return [n.node_id for n in nodes if n.alive and math.hypot(n.x - x, n.y - y) <= radius]


coord = st.floats(0.0, EXTENT, allow_nan=False)
border = st.sampled_from([0.0, EXTENT])
radius = st.one_of(st.just(0.0), st.sampled_from([0.5, 7.0, 12.0, 30.0, 150.0]),
                   st.floats(0.0, 2 * EXTENT, allow_nan=False))


@st.composite
def layouts(draw):
    """Node positions mixing uniform points, border points, dense clusters and
    points exactly ``r`` apart, and a radius ``r`` (possibly 0)."""
    r = draw(radius)
    points = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["uniform", "border", "cluster", "at_r", "lattice"]))
        if kind == "uniform" or not points and kind in ("cluster", "at_r"):
            points.append((draw(coord), draw(coord)))
        elif kind == "border":
            points.append(draw(st.sampled_from([(draw(border), draw(coord)),
                                                (draw(coord), draw(border))])))
        elif kind == "cluster":
            x, y = draw(st.sampled_from(points))
            dx, dy = draw(st.floats(-1e-3, 1e-3)), draw(st.floats(-1e-3, 1e-3))
            points.append((min(max(x + dx, 0.0), EXTENT), min(max(y + dy, 0.0), EXTENT)))
        elif kind == "at_r":
            x, y = draw(st.sampled_from(points))
            dx, dy = draw(st.sampled_from([(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r),
                                           (0.6 * r, 0.8 * r)]))
            points.append((min(max(x + dx, 0.0), EXTENT), min(max(y + dy, 0.0), EXTENT)))
        else:
            i, j = draw(st.integers(0, 8)), draw(st.integers(0, 8))
            points.append((min(i * r, EXTENT), min(j * r, EXTENT)))
    return points, r


def make_nodes(points, battery=1.0):
    return [NodeState(i, x, y, battery + i, 0.0) for i, (x, y) in enumerate(points)]


class TestCellGrid:
    @settings(max_examples=300, deadline=None)
    @given(layouts())
    def test_neighbor_lists_match_pair_loop(self, layout):
        points, r_tx = layout
        nodes = make_nodes(points)
        connect_neighbors(nodes, r_tx, EXTENT)
        got = {n.node_id: [(b.node_id, b.distance, b.last_residual) for b in n.neighbors]
               for n in nodes}
        assert got == reference_neighbors(nodes, r_tx)

    @settings(max_examples=300, deadline=None)
    @given(layouts(), st.data())
    def test_covered_nodes_match_full_scan(self, layout, data):
        # Two passes over the same queries, with the alive flags redrawn in
        # between: a cached block must not carry the first pass's flags.
        points, r = layout
        nodes = make_nodes(points)
        grid = CellGrid(nodes, r, EXTENT)
        queries = [(data.draw(coord), data.draw(coord)), (data.draw(border), data.draw(coord))]
        for x, y in points[:5]:
            queries += [(x, y), (min(x + r, EXTENT), y), (x, max(y - r, 0.0))]
        first = {}
        for _ in range(2):
            for node in nodes:
                node.alive = data.draw(st.booleans()) or node.node_id % 2 == 0
            for x, y in queries:
                near = grid.near(x, y)
                assert type(near) is tuple and near is first.setdefault(grid._key(x, y), near)
                assert [n.node_id for n in near] == sorted(n.node_id for n in near)
                got = [n.node_id for n in near if n.alive and math.hypot(n.x - x, n.y - y) <= r]
                assert got == reference_covered(nodes, x, y, r)

    def test_distance_rounded_down_to_the_range_across_two_cell_edges(self):
        # 1.0 - 0.49999999999999994 rounds to exactly 0.5, yet with cells
        # exactly 0.5 wide the two points sit two cells apart.
        nodes = make_nodes([(0.49999999999999994, 3.0), (1.0, 3.0)])
        connect_neighbors(nodes, 0.5, EXTENT)
        assert [n.node_id for n in nodes[0].neighbors] == [1]
        grid = CellGrid(nodes, 0.5, EXTENT)
        assert [n.node_id for n in grid.near(1.0, 3.0)] == [0, 1]

    def test_zero_range_gives_no_neighbors(self):
        nodes = make_nodes([(0.0, 0.0), (0.0, 0.0), (1e-12, 0.0), (EXTENT, EXTENT)])
        connect_neighbors(nodes, 0.0, EXTENT)
        assert all(not n.neighbors for n in nodes)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 60), radius)
    def test_placed_topology_matches_pair_loop(self, seed, n, r_tx):
        cfg = ScenarioConfig(seed=seed, nodes=n, r_tx=r_tx)
        nodes = Simulation(cfg).nodes
        got = {n.node_id: [(b.node_id, b.distance, b.last_residual) for b in n.neighbors]
               for n in nodes}
        assert got == reference_neighbors(nodes, r_tx)


def _relay_usage(depth):
    return ResourceUsageVector(b_cpu=1, b_mem=depth, b_rx=1, b_tx=1)


class _PerHandling(Simulation):
    """The per-handling path that ``_events`` replaces: one ``_charge`` call
    per handling, an event loop, ``_handle_event`` and the relay walk, and
    the warm-up loop that booked through ``_charge``, verbatim, except that
    each handling is priced on its own, not from the run's cost table, and
    interned with its own usage's sends and receives, and each hop's model
    joules come from geometry, not from the node's link. The run's radio
    audit counts its events from those sends and receives."""

    def _hop_tx_j(self, node: NodeState) -> float:
        """The radio model's joules for ``node`` to send one packet to its
        next hop: over its distance to the sink, or to that neighbor."""
        hop = node.next_hop
        distance = node.dist_to_sink if hop == SINK_ID else next(
            entry.distance for entry in node.neighbors if entry.node_id == hop)
        return self.cfg.bits_per_packet * tx_energy_per_bit(distance, self.cfg.radio)

    def _charge(self, node: NodeState, kind: PacketKind, usage: ResourceUsageVector,
                tx_j: float = 0.0) -> float | None:
        """Book one handling of ``usage``, priced in whole nJ by its usage or
        under mix charging by its kind; ``tx_j`` is the radio model's joules
        for the packet it sends, if it sends one."""
        cfg = self.cfg
        joules = (constituent_alpha(cfg.mix.row(kind.constituent), cfg.profile)
                  if cfg.mix_charging else task_energy(usage, cfg.profile))
        cost = float(round(joules * 1e9))
        booked = charge(node, kind, cost, self.slice_index)
        if booked is None:
            self.dropped += 1
            return None
        code = self.ledger.code(kind, cost, usage.b_tx, usage.b_rx)
        self.ledger.book(self.slice_index, [node.node_id], array("I", (code,)))
        self.model_tx_j += tx_j
        return booked

    def _handle_event(self, node: NodeState) -> None:
        seen = self._sensed_this_slice[node.node_id]
        if seen >= self._sense_cap:
            return
        has_route = node.next_hop is not None
        if has_route:
            entry = self._charge(node, PacketKind.SENSED, USAGE_SENSE_SEND,
                                 self._hop_tx_j(node))
        else:
            entry = self._charge(node, PacketKind.SENSED, USAGE_WARMUP)
        if entry is None:
            return
        self._sensed_this_slice[node.node_id] = seen + 1
        if not has_route:
            self.dropped += 1
            return
        if self.cfg.scheduling:
            self._charge(node, PacketKind.SCHEDULING, USAGE_SEND, self._hop_tx_j(node))
        self._relay(node)

    def _relay(self, origin: NodeState) -> None:
        current = origin
        while True:
            hop = current.next_hop
            if hop is None:
                self.dropped += 1
                return
            if hop == SINK_ID:
                self.delivered += 1
                return
            target = self.nodes[hop]
            if not target.alive:
                self.dropped += 1
                for entry in current.neighbors:
                    if entry.node_id == hop:
                        entry.known_alive = False
                self._repair_triggers.append(current.node_id)
                return
            if target.next_hop is None:
                # Stranded relay: receives and queues, cannot forward.
                self._charge(target, PacketKind.RELAYED_DATA, USAGE_RECV_QUEUE)
                self.dropped += 1
                return
            depth = self._relayed_this_slice[target.node_id]
            entry = self._charge(target, PacketKind.RELAYED_DATA, _relay_usage(depth),
                                 self._hop_tx_j(target))
            if entry is None:
                self.dropped += 1
                return
            self._relayed_this_slice[target.node_id] = depth + 1
            current = target

    def _collection_work(self, full_refresh: bool) -> None:
        # Packets each node sensed, and relayed, in this slice.
        self._sensed_this_slice = [0] * len(self.nodes)
        self._relayed_this_slice = [0] * len(self.nodes)
        if self.cfg.monitoring:
            self._monitoring(full_refresh)
        events = _poisson(self.rng, self.cfg.event_rate)
        for _ in range(events):
            ex = self.rng.uniform(0.0, self.cfg.area_width)
            ey = self.rng.uniform(0.0, self.cfg.area_height)
            # Tested only after the previous node was handled, so a node an
            # earlier handling of the same event killed is skipped.
            for node in self._sense_grid.near(ex, ey):
                if node.alive and math.hypot(node.x - ex, node.y - ey) <= self.cfg.r_sense:
                    self._handle_event(node)

    def _init_work(self, idx: int) -> None:
        """Startup staging: warm-up readings first, neighbor handshakes in the
        middle slices, topology probing and route setup in the last one.
        Short initializations fold the stages together."""
        n = self.cfg.init_slices
        first, last = idx == 0, idx == n - 1
        do_warmup = first
        do_handshake = (n == 1) or (n == 2 and first) or (n >= 3 and not first and not last)
        if do_warmup:
            for node in self.nodes:
                if not node.alive:
                    continue
                for _ in range(self.cfg.warmup_packets):
                    self._charge(node, PacketKind.SENSED, USAGE_WARMUP)
        if do_handshake:
            self._monitoring(full_refresh=True)
        if last:
            self._route_setup(self.nodes)


class _Logged(_PerHandling):
    """Records every node an event reaches, in order."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.handled = []

    def _handle_event(self, node):
        self.handled.append((self.slice_index, node.node_id))
        super()._handle_event(node)


class _FullScan(_Logged):
    """The collection step the grid replaces: every event scans every node,
    testing each one only after the previous one was handled."""

    def _collection_work(self, full_refresh):
        self._sensed_this_slice = [0] * len(self.nodes)
        self._relayed_this_slice = [0] * len(self.nodes)
        if self.cfg.monitoring:
            self._monitoring(full_refresh)
        for _ in range(_poisson(self.rng, self.cfg.event_rate)):
            ex = self.rng.uniform(0.0, self.cfg.area_width)
            ey = self.rng.uniform(0.0, self.cfg.area_height)
            for node in self.nodes:
                if node.alive and math.hypot(node.x - ex, node.y - ey) <= self.cfg.r_sense:
                    self._handle_event(node)


# Prices of 2, 1, 2, 4 and 2 times 78,125 nJ divide the power-of-two
# batteries below (2^-8 J is 50 times 78,125 nJ), so batteries land exactly
# on zero and nodes die in the middle of an event's handlings.
EXACT_PROFILE = ResourcePowerProfile(*(k * 78_125 / 1e9 for k in (2, 1, 2, 4, 2)))


class TestCoveredSequence:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), nodes=st.integers(1, 40),
           r_sense=st.sampled_from([0.5, 12.0, 40.0, 150.0]),
           battery=st.sampled_from([0.5, 0.004, 2 ** -6, 2 ** -8]),
           exact=st.booleans(), side=st.sampled_from([10.0, 100.0]))
    def test_run_handles_the_same_nodes_as_a_full_scan(self, seed, nodes, r_sense, battery,
                                                       exact, side):
        cfg = ScenarioConfig(seed=seed, nodes=nodes, r_sense=r_sense, initial_battery=battery,
                             area_width=side, area_height=side, sink_x=side / 2,
                             sink_y=0.0, total_slices=20)
        if exact:
            cfg = dataclasses.replace(cfg, profile=EXACT_PROFILE)
        grid, scan = _Logged(cfg), _FullScan(cfg)
        a, b = grid.run(), scan.run()
        assert grid.handled == scan.handled
        assert list(a.ledger) == list(b.ledger)
        assert a.radio == b.radio
        assert (a.delivered, a.dropped) == (b.delivered, b.dropped)


class _PerPair(_PerHandling):
    """The per-pair exchange loops that ``_exchanges`` replaces, verbatim."""

    def _probe(self, prober, nbr, kind):
        """Request/response exchange with one neighbor; a silent neighbor is
        marked not known-alive, and a silent next hop schedules a repair."""
        sent = self._charge(prober, kind, USAGE_SEND, nbr.tx_j)
        if sent is None:
            return
        target = self.nodes[nbr.node_id]
        answered = self._charge(target, kind, USAGE_RECV)
        if answered is not None:
            nbr.last_residual = target.battery
            nbr.known_alive = True
        else:
            nbr.known_alive = False
            if prober.next_hop == nbr.node_id:
                self._repair_triggers.append(prober.node_id)

    def _monitoring(self, full_refresh):
        for node in self.nodes:
            if not node.alive:
                continue
            if full_refresh:
                for nbr in node.neighbors:
                    self._probe(node, nbr, PacketKind.NEIGHBOR_INFO)
            elif node.next_hop is not None and node.next_hop != SINK_ID:
                for entry in node.neighbors:
                    if entry.node_id == node.next_hop:
                        self._probe(node, entry, PacketKind.NEIGHBOR_INFO)

    def _route_setup(self, participants):
        """Topology probes from every alive participant, their next hops
        recomputed, then a routing announcement to each of their neighbors."""
        for node in participants:
            if not node.alive:
                continue
            for nbr in node.neighbors:
                self._probe(node, nbr, PacketKind.TOPOLOGY_INFO)
        self._route(participants)
        for node in participants:
            if not node.alive:
                continue
            for nbr in node.neighbors:
                if self._charge(node, PacketKind.ROUTING_INFO, USAGE_SEND, nbr.tx_j) is not None:
                    self._charge(self.nodes[nbr.node_id], PacketKind.ROUTING_INFO, USAGE_RECV)


def _node_state(result):
    return [(n.battery, n.alive, n.next_hop,
             [(nbr.last_residual, nbr.known_alive) for nbr in n.neighbors])
            for n in result.nodes]


def _assert_same_run(a, b):
    assert list(a.ledger) == list(b.ledger)
    assert a.radio == b.radio
    assert a.records == b.records
    assert (a.delivered, a.dropped) == (b.delivered, b.dropped)
    assert _node_state(a) == _node_state(b)


class TestExchangeStages:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), nodes=st.integers(1, 60),
           battery=st.sampled_from([0.5, 0.004, 2 ** -6, 2 ** -8]), exact=st.booleans(),
           mix=st.booleans(), hops=st.sampled_from([0, 1, 2]),
           monitor_period=st.sampled_from([0, 1, 10]), side=st.sampled_from([30.0, 100.0]))
    def test_stages_book_what_the_per_pair_loops_book(self, seed, nodes, battery, exact, mix,
                                                      hops, monitor_period, side):
        cfg = ScenarioConfig(seed=seed, nodes=nodes, initial_battery=battery,
                             mix_charging=mix, repair_radius_hops=hops,
                             monitor_period=monitor_period, area_width=side,
                             area_height=side, sink_x=side / 20, sink_y=side / 20,
                             total_slices=24)
        if exact:
            cfg = dataclasses.replace(cfg, profile=EXACT_PROFILE)
        a, b = Simulation(cfg).run(), _PerPair(cfg).run()
        _assert_same_run(a, b)
        # Each record's flows are its slice's ledger entries per constituent.
        counts = [[0.0] * 5 for _ in a.records]
        for entry in a.ledger:
            counts[entry.slice_index][entry.kind.flow_slot] += 1
        assert [list(r.flows.as_tuple()) for r in a.records] == counts


class _RouteChecked(Simulation):
    """Checks every node's link each time the participants' routes are set."""

    def _route(self, participants):
        super()._route(participants)
        for node in participants:
            if not node.alive:
                assert node.link is None
            elif node.dist_to_sink <= self.cfg.r_tx:
                assert node.link.node_id == SINK_ID
            else:
                assert node.link is select_next_hop(node, self.nodes)


@pytest.mark.parametrize("fields", [{}, {"initial_battery": 0.004},
                                    {"repair_radius_hops": 2, "initial_battery": 0.02},
                                    {"r_tx": 0.0},
                                    {"initial_battery": 0.001}])   # deaths before routing
def test_a_route_is_a_link(fields):
    cfg = ScenarioConfig(**fields)
    # Checked after the run too, when repairs and deaths have rerouted nodes.
    for node in _RouteChecked(cfg).run().nodes:
        link, in_range = node.link, node.dist_to_sink <= cfg.r_tx
        assert node.next_hop == (None if link is None else link.node_id)
        if node.alive and in_range:
            assert link.node_id == SINK_ID
        if link is None:
            continue
        if link.node_id == SINK_ID:
            assert in_range and link.distance == node.dist_to_sink
            assert link.tx_j == cfg.bits_per_packet * tx_energy_per_bit(node.dist_to_sink,
                                                                         cfg.radio)
        else:
            assert any(nbr is link for nbr in node.neighbors)


class _Counted(_PerHandling):
    """Counts the drop branches the reference event path takes."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.hits = Counter()
        self._in_event = False

    def _handle_event(self, node):
        self._in_event = True
        try:
            super()._handle_event(node)
        finally:
            self._in_event = False

    def _charge(self, node, kind, usage, tx_j=0.0):
        row = super()._charge(node, kind, usage, tx_j)
        if self._in_event and usage is USAGE_WARMUP:
            self.hits["no-route"] += 1
        elif kind is PacketKind.RELAYED_DATA and usage is USAGE_RECV_QUEUE:
            self.hits["stranded"] += 1
        elif kind is PacketKind.RELAYED_DATA and row is None:
            self.hits["refused-relay"] += 1
        return row

    def _relay(self, origin):
        triggers = len(self._repair_triggers)
        super()._relay(origin)
        if len(self._repair_triggers) > triggers:
            self.hits["dead-next-hop"] += 1


class TestEventLoop:
    """``_events`` books what the per-handling path books. With monitoring
    off, a dead next hop is found only by a relay; a sink in the far corner
    makes long relay walks, and ``g_sense = 0.2`` makes the sense cap fire."""

    @staticmethod
    def config(seed, nodes, battery, exact, mix, scheduling, monitoring, g_sense, r_tx=30.0):
        cfg = ScenarioConfig(seed=seed, nodes=nodes, initial_battery=battery, mix_charging=mix,
                             scheduling=scheduling, monitoring=monitoring, g_sense=g_sense,
                             r_tx=r_tx, sink_x=100.0, sink_y=100.0, total_slices=24)
        return dataclasses.replace(cfg, profile=EXACT_PROFILE) if exact else cfg

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), nodes=st.integers(1, 40),
           battery=st.sampled_from([0.5, 0.004, 2 ** -6, 2 ** -8]), exact=st.booleans(),
           mix=st.booleans(), scheduling=st.booleans(), monitoring=st.booleans(),
           g_sense=st.sampled_from([0.0, 0.2]))
    def test_events_book_what_the_per_handling_path_books(self, seed, nodes, battery, exact, mix,
                                                          scheduling, monitoring, g_sense):
        cfg = self.config(seed, nodes, battery, exact, mix, scheduling, monitoring, g_sense)
        _assert_same_run(Simulation(cfg).run(), _PerHandling(cfg).run())

    # Prices that divide the batteries, so nodes die and relays meet dead next hops.
    @pytest.mark.parametrize("seed, battery, mix, scheduling, g_sense, r_tx", [
        (1, 2 ** -6, False, True, 0.0, 20.0),
        (3, 2 ** -4, True, True, 0.2, 20.0),
        (2, 2 ** -4, False, False, 0.2, 24.0),
        (1, 2 ** -4, True, False, 0.0, 30.0),
    ])
    def test_every_drop_branch_books_what_the_per_handling_path_books(
            self, seed, battery, mix, scheduling, g_sense, r_tx):
        cfg = self.config(seed, 40, battery, True, mix, scheduling, False, g_sense, r_tx)
        reference = _Counted(cfg)
        _assert_same_run(Simulation(cfg).run(), reference.run())
        assert set(reference.hits) == {"no-route", "dead-next-hop", "stranded", "refused-relay"}


class TestCostTable:
    @pytest.mark.parametrize("profile", [
        ScenarioConfig().profile,
        ResourcePowerProfile(0.1, 0.2, 0.3, 1e-17, 3.0),
        ResourcePowerProfile(1 / 3, 1 / 7, 1 / 11, 1 / 13, 1 / 17),
    ])
    def test_every_cost_equals_task_energy(self, profile):
        sim = Simulation(dataclasses.replace(ScenarioConfig(), nodes=3, profile=profile))
        sensed, relayed = PacketKind.SENSED, PacketKind.RELAYED_DATA
        table = [(sim._warmup, sensed, ResourceUsageVector(b_cpu=1, b_sens=1)),
                 (sim._sense_send, sensed, ResourceUsageVector(b_cpu=1, b_sens=1, b_tx=1)),
                 (sim._recv_queue, relayed, ResourceUsageVector(b_cpu=1, b_mem=1, b_rx=1))]
        for kind in PacketKind:
            table += [(sim._send[kind], kind, ResourceUsageVector(b_cpu=1, b_tx=1)),
                      (sim._recv[kind], kind, ResourceUsageVector(b_cpu=1, b_rx=1))]
        table += [(sim._relay_handling(depth), relayed, _relay_usage(depth)) for depth in range(33)]
        for (cost, code), kind, usage in table:
            assert type(cost) is float and cost == round(task_energy(usage, profile) * 1e9)
            # Each handling is interned in the ledger's table under its code,
            # with its usage's sends and receives.
            handling = kind, cost, usage.b_tx, usage.b_rx
            assert sim.ledger.handlings[code] == handling and sim.ledger.code(*handling) == code
        assert len(set(sim.ledger.handlings)) == len(sim.ledger.handlings)


def test_radio_audit_unchanged_on_depleted_scenario():
    result = Simulation(ScenarioConfig(initial_battery=0.004)).run()
    assert result.radio == RadioAudit(
        model_tx_j=0.04132228508430548, model_rx_j=0.0276992,
        charged_tx_j=0.04482, charged_rx_j=0.021640000000000003,
        tx_events=747, rx_events=541)
    assert (result.delivered, result.dropped, len(result.ledger)) == (20, 4659, 1375)


def test_radio_audit_unchanged_under_mix_charging():
    # Mix charging prices a handling by its kind alone, so handlings that send
    # and ones that do not share a kind and a price: a warm-up and a
    # sense-and-send, a queued receive and a plain relay receive.
    result = Simulation(ScenarioConfig(mix_charging=True)).run()
    assert result.radio == RadioAudit(
        model_tx_j=float.fromhex("0x1.fb58007a036cdp-2"), model_rx_j=0.353792,
        charged_tx_j=0.53382, charged_rx_j=0.27640000000000003,
        tx_events=8897, rx_events=6910)
    assert (result.delivered, result.dropped, len(result.ledger)) == (783, 555, 13390)
