"""Deterministic, seeded, slice-stepped sensor-network simulator.

Nodes are placed uniformly in the area, connect to every node in
transmission range, and route sensed data toward the sink, directly if it is
in range, else through the in-range neighbor with the most last-known
residual energy among those strictly closer to the sink (so relay chains
always make progress). A node's route is its link, set whenever the route is
recomputed: that neighbor's entry, or an entry for the sink, built once per
node in range of it; no link is no route. Each link carries the radio
model's joules to send one packet over it; next-hop probes and the marking
of a dead next hop use the link itself.

The run is one loop over the slices: an initialization phase (boot warm-up
readings, neighbor handshakes, route setup), then collection slices (area
events sensed and relayed hop by hop, next-hop monitoring probes, periodic
full neighbor refreshes). Exactly one maintenance slice follows a collection
slice once a next-hop death was detected (a probe timeout or a relay toward
a dead node) or the periodic repair interval elapsed since the last one. It
does the collection work plus a topology probe and routing announcement
flood, which make it expensive, among the alive nodes within
``repair_radius_hops`` hops of an alive trigger, through alive nodes (every
alive node for radius 0 or an untriggered periodic repair). Probes and
floods are exchange stages: each sender, read with its neighbor entries,
costs itself a send per entry and, if sent, that neighbor a receive. One
loop books each exchange stage, and one a slice's events (sense, schedule
and the relay walk), each with its prices bound once; the loops only book.

Every packet handling is charged against the node's battery through the
per-resource price profile and booked in the run's ledger; per-slice flow
totals per constituent plus the slice energy form the trace, and both are
read from the slice's ledger rows when the slice ends; the run's ledger
total is those slice energies added up. ``charge(node, cost)`` touches the
battery only. Each run prices its handlings once (relays by queue depth),
each a code into the run's (kind, price, sends, receives) table. The
booking loops append rows to the ledger's open slice, two typed columns
(node, code), an exchange stage in one step, its codes following from its
send count and refused receives; the run closes the slice when it ends,
sealing it as the next row group, each column of the narrowest type that
holds it, so groups line up with slices. The ledger hands each row out as
a ``ChargeEntry`` when iterated. Every energy inside a run (batteries,
residuals, prices) is a whole number of nanojoules in a float, exact below
2^53, so sums are exact in any order and a battery that lands on zero kills
its node; a run rejects a battery or nonzero price that rounds to 0 nJ, a
price past 2^53 nJ and batteries that add up past it. Joules, nJ / 1e9,
appear only in slice energies, ledger entries and the run's totals.
Neighbor lists and the nodes an event covers are found through a uniform
cell grid, with cells as wide as the radio or sensing range, instead of
scanning every node; as nodes never move, the grid sorts the nodes around
each cell once and keeps them. Identical configurations (same seed) produce
identical traces, byte for byte once serialized. Alongside the profile-based
charges the run keeps a per-bit radio-model audit of the same tx/rx events
as an independent cross-check on radio energy accounting: the booking loops
sum the model's tx joules per link, and the slice totals count sends and
receives from each handling's legs. No handling sends or receives more than
one packet, and the first-order radio model prices every received packet
alike, so the audit's other three sums are event counts times run
constants, set when the run ends.
"""

from __future__ import annotations

import functools
import math
import random
from array import array
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .config import ConfigError, ScenarioConfig
from .energy_core import (
    CONSTITUENT_ORDER,
    Constituent,
    ConstituentFlowVector,
    ResourceUsageVector,
    constituent_alpha,
    task_energy,
)
from .radio import rx_energy_per_bit, tx_energy_per_bit

#: Pseudo node id of the sink group (a mains-powered destination, never charged).
SINK_ID = -1


class Phase(Enum):
    INITIALIZATION = "initialization"
    COLLECTION = "collection"
    MAINTENANCE = "maintenance"


class PacketKind(Enum):
    SENSED = "sensed"
    NEIGHBOR_INFO = "neighbor_info"
    SCHEDULING = "scheduling"
    TOPOLOGY_INFO = "topology_info"
    ROUTING_INFO = "routing_info"
    RELAYED_DATA = "relayed_data"

    # Set below for every member: its constituent, and that constituent's
    # index in CONSTITUENT_ORDER, read when a slice's rows are counted.
    constituent: Constituent
    flow_slot: int


for _kind, _constituent in {
        PacketKind.SENSED: Constituent.INDIVIDUAL,
        PacketKind.NEIGHBOR_INFO: Constituent.LOCAL,
        PacketKind.SCHEDULING: Constituent.LOCAL,
        PacketKind.TOPOLOGY_INFO: Constituent.GLOBAL,
        PacketKind.ROUTING_INFO: Constituent.GLOBAL,
        PacketKind.RELAYED_DATA: Constituent.GLOBAL}.items():
    _kind.constituent = _constituent
    _kind.flow_slot = CONSTITUENT_ORDER.index(_constituent)
del _kind, _constituent


# Per-handling resource usage: every handling costs a cpu unit; radio legs add
# tx/rx; a packet that waits in the node's queue adds a mem unit; sensed
# packets add a sensor reading (a warm-up reading, or a sensed packet with no
# route, is sensed and not sent). Relays are priced by queue depth in
# ``Simulation._relay_handling``.
USAGE_WARMUP = ResourceUsageVector(b_cpu=1, b_sens=1)
USAGE_SENSE_SEND = ResourceUsageVector(b_cpu=1, b_sens=1, b_tx=1)
USAGE_SEND = ResourceUsageVector(b_cpu=1, b_tx=1)
USAGE_RECV = ResourceUsageVector(b_cpu=1, b_rx=1)
USAGE_RECV_QUEUE = ResourceUsageVector(b_cpu=1, b_mem=1, b_rx=1)


@dataclass(slots=True)
class Neighbor:
    node_id: int
    distance: float
    last_residual: float   # nJ
    known_alive: bool = True
    tx_j: float = 0.0   # radio-model joules to send one packet over this link


@dataclass(slots=True)
class NodeState:
    node_id: int
    x: float
    y: float
    battery: float   # nJ, a whole number
    dist_to_sink: float
    alive: bool = True
    neighbors: list[Neighbor] = field(default_factory=list)   # sorted by node_id
    link: Neighbor | None = None   # the route: the next hop's or the sink's entry; None: no route

    @property
    def next_hop(self) -> int | None:
        """The link's node id (``SINK_ID`` for direct delivery), or ``None``."""
        return None if self.link is None else self.link.node_id


class ChargeEntry(NamedTuple):
    """One booked handling; its constituent is ``kind.constituent``."""

    slice_index: int
    node_id: int
    kind: PacketKind
    energy: float   # joules


class Ledger:
    """A run's booked handlings, in booking order: iterating gives each as a
    ``ChargeEntry``, and ``len`` counts them.

    ``handlings`` is the run's table of ``(PacketKind, whole-nJ price,
    sends, receives)`` handlings; a row names one by its index there, its
    code. The booking loops append the slice being booked to the open
    columns ``nodes`` and ``codes`` (``'I'``, whose appends skip the
    argument parsing of narrower types), and ``close`` seals them as the
    next group of ``groups``, one per slice, so no column outgrows one
    slice, each of the narrowest type for the run's node count or the
    table's size; each handling's row of ``close``'s weights is built once.
    Entries, in joules, are built when read. Nothing the ledger holds refers
    back to it, so reference counting alone frees it.
    """

    __slots__ = ("groups", "nodes", "codes", "handlings", "_node_count", "_codes", "_weights", "__weakref__")

    def __init__(self, node_count: int):
        self.groups: list[tuple[array, array]] = []
        self.nodes, self.codes, self._node_count = array("I"), array("I"), node_count
        self.handlings: list[tuple[PacketKind, float, int, int]] = []
        self._codes: dict[tuple[PacketKind, float, int, int], int] = {}
        self._weights = np.zeros((0, len(CONSTITUENT_ORDER) + 3))   # see ``close``

    def code(self, kind: PacketKind, nanojoules: float, sends: int, receives: int) -> int:
        """The code of ``(kind, nanojoules, sends, receives)``, interned on first use."""
        handling = kind, nanojoules, sends, receives
        code = self._codes.setdefault(handling, len(self.handlings))
        if code == len(self.handlings):
            self.handlings.append(handling)
        return code

    def close(self) -> tuple[ConstituentFlowVector, float, float, float]:
        """Seal the open slice as the next group, its columns narrowed and
        sized to its rows, start an empty one, and tally the sealed rows:
        their count per constituent, their nJ, their sends and their
        receives, each handling's row count times its row of weights (its
        one-hot flow slot, its price and its legs), exact below 2^53; a row
        is built once, by the first close after its handling was interned."""
        codes, size = np.frombuffer(self.codes, np.uintc), len(self.handlings)
        self.groups.append((_narrowed(np.frombuffer(self.nodes, np.uintc), self._node_count),
                            _narrowed(codes, size)))
        self.nodes, self.codes = array("I"), array("I")
        if len(self._weights) != size:
            self._weights = np.append(self._weights, [
                [kind.flow_slot == slot for slot in range(len(CONSTITUENT_ORDER))] + tally
                for kind, *tally in self.handlings[len(self._weights):]], axis=0)
        counts = np.bincount(codes, minlength=size)
        *flows, energy, sends, receives = (counts @ self._weights).tolist()
        return ConstituentFlowVector(*flows), energy, sends, receives

    def __len__(self) -> int:
        return sum(len(codes) for _, codes in self.groups)

    def __iter__(self):
        kinds = [kind for kind, *_ in self.handlings]
        joules = [nanojoules / 1e9 for _, nanojoules, *_ in self.handlings]
        for index, (nodes, codes) in enumerate(self.groups):
            yield from map(ChargeEntry, repeat(index, len(nodes)), nodes,
                           map(kinds.__getitem__, codes), map(joules.__getitem__, codes))


def _narrowed(values: np.ndarray, bound: int) -> array:
    """``values``, each below ``bound``, in the narrowest of ``'B'``, ``'H'``
    and ``'I'``, with no spare capacity: ``[:]`` drops what reading bytes leaves."""
    typecode = "B" if bound <= 2 ** 8 else "H" if bound <= 2 ** 16 else "I"
    return array(typecode, values.astype(typecode).tobytes())[:]


@dataclass(frozen=True)
class SliceRecord:
    index: int
    phase: Phase
    flows: ConstituentFlowVector
    energy_j: float
    alive_nodes: int


@dataclass(frozen=True)
class RadioAudit:
    """Independent per-bit radio-model accounting of the run's tx/rx events."""

    model_tx_j: float
    model_rx_j: float
    charged_tx_j: float
    charged_rx_j: float
    tx_events: int
    rx_events: int


@dataclass
class RunResult:
    records: list[SliceRecord]
    nodes: list[NodeState]
    ledger: Ledger
    delivered: int
    dropped: int   # packet drops plus refused charges: a refused or stranded relay counts one of each
    initial_battery_total: float
    ledger_total: float   # joules: the slices' energies added up
    radio: RadioAudit

    @property
    def final_battery_total(self) -> float:
        return sum(n.battery for n in self.nodes) / 1e9


def charge(node: NodeState, cost: float) -> float | None:
    """Charge one packet handling of price ``cost`` (whole nJ) against the
    node's battery and return ``cost``. The caller books the handling in the
    ledger's open slice, under a code that carries its kind and radio legs.

    Dead nodes handle nothing; a node that cannot afford the cost ignores
    the task. Both cases return ``None``. A node whose battery lands on
    zero dies with the charge.
    """
    if not node.alive or node.battery < cost:
        return None
    battery = node.battery = node.battery - cost
    if battery == 0.0:
        node.alive = False
    return cost


def _links(senders: list[NodeState]):
    """Each sender with all of its ``Neighbor`` entries, lazily."""
    return ((node, node.neighbors) for node in senders)


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    if lam > 500:   # exp(-lam) underflows near 745; the halves' counts add
        return _poisson(rng, lam / 2) + _poisson(rng, lam / 2)
    limit = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


class CellGrid(dict):
    """Nodes hashed into square cells at least ``radius`` wide.

    Every node within ``radius`` of a point lies in the 3x3 block of cells
    around the point's cell, so ``near`` returns a superset of those nodes,
    in ascending node id; callers apply the exact distance test and their
    own ``alive`` test. The grid maps each cell's key, ``_key``, to its
    block; nodes never move, so a missing block is sorted from its key on
    its first lookup, and every later lookup in that cell returns the same
    tuple. Node and query coordinates lie in ``[0, extent]``.
    """

    def __init__(self, nodes: list[NodeState], radius: float, extent: float):
        # At most 2^20 cells a side keeps a computed cell index within 2^-33
        # of the exact quotient, and the 1e-9 margin then keeps two points
        # whose rounded distance is at most ``radius`` in adjacent cells.
        self.size = max(radius, extent * 2.0 ** -20) * (1.0 + 1e-9)
        self._cells: dict[tuple[int, int], list[NodeState]] = {}
        for node in nodes:
            self._cells.setdefault(self._key(node.x, node.y), []).append(node)

    def _key(self, x: float, y: float) -> tuple[int, int]:
        return math.floor(x / self.size), math.floor(y / self.size)

    def near(self, x: float, y: float) -> tuple[NodeState, ...]:
        return self[self._key(x, y)]

    def __missing__(self, key: tuple[int, int]) -> tuple[NodeState, ...]:
        cx, cy = key
        block = self[key] = tuple(sorted(
            (node for i in (cx - 1, cx, cx + 1) for j in (cy - 1, cy, cy + 1)
             for node in self._cells.get((i, j), ())), key=attrgetter("node_id")))
        return block


def connect_neighbors(nodes: list[NodeState], r_tx: float, extent: float) -> None:
    """Link every pair of distinct-position nodes at most ``r_tx`` apart.

    Pairs are visited in ascending (lower id, higher id) order, so every
    neighbor list fills in ascending node id.
    """
    grid = CellGrid(nodes, r_tx, extent)
    for a in nodes:
        for b in grid.near(a.x, a.y):
            if b.node_id <= a.node_id:
                continue
            d = math.hypot(a.x - b.x, a.y - b.y)
            if 0.0 < d <= r_tx:
                a.neighbors.append(Neighbor(b.node_id, d, b.battery))
                b.neighbors.append(Neighbor(a.node_id, d, a.battery))


def _place_nodes(cfg: ScenarioConfig, rng: random.Random) -> list[NodeState]:
    nodes, battery = [], round(cfg.initial_battery * 1e9, 0)
    if not battery:
        raise ConfigError([f"initial_battery {cfg.initial_battery!r} J rounds to 0 nJ"])
    if cfg.nodes * battery > 2 ** 53:   # floats hold every whole nJ below 2^53
        raise ConfigError([f"nodes x initial_battery = {cfg.nodes * battery:.6g} nJ exceeds 2^53"])
    for node_id in range(cfg.nodes):
        x = rng.uniform(0.0, cfg.area_width)
        y = rng.uniform(0.0, cfg.area_height)
        dist_sink = math.hypot(x - cfg.sink_x, y - cfg.sink_y)
        nodes.append(NodeState(node_id, x, y, battery, dist_sink))
    connect_neighbors(nodes, cfg.r_tx, max(cfg.area_width, cfg.area_height))
    return nodes


def select_next_hop(node: NodeState, nodes: list[NodeState]) -> Neighbor | None:
    """The entry of the relay toward the sink: the known-alive neighbor with
    maximum last-known residual energy among those strictly closer to the
    sink (ties: lowest node id)."""
    best: Neighbor | None = None
    for nbr in node.neighbors:   # ordered by id, so ties keep the lowest id
        if not nbr.known_alive:
            continue
        if nodes[nbr.node_id].dist_to_sink >= node.dist_to_sink:
            continue
        if best is None or nbr.last_residual > best.last_residual:
            best = nbr
    return best


class Simulation:
    """One deterministic run over a scenario; single-threaded by contract."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.nodes = _place_nodes(cfg, self.rng)
        # Radio-model joules to send one packet over each link, priced once
        # per distance; a node in range of the sink has a link to it.
        tx_j = functools.cache(
            lambda distance: cfg.bits_per_packet * tx_energy_per_bit(distance, cfg.radio))
        for node in self.nodes:
            for nbr in node.neighbors:
                nbr.tx_j = tx_j(nbr.distance)
        self._sink_links = [
            Neighbor(SINK_ID, node.dist_to_sink, math.inf, tx_j=tx_j(node.dist_to_sink))
            if node.dist_to_sink <= cfg.r_tx else None for node in self.nodes]
        self._route(self.nodes)
        self._sense_grid = CellGrid(self.nodes, cfg.r_sense, max(cfg.area_width, cfg.area_height))
        self.ledger = Ledger(cfg.nodes)
        self.model_tx_j = 0.0   # the radio model's send joules, summed in booking order
        self.delivered = 0
        self.dropped = 0
        self._repair_triggers: list[int] = []
        self._sense_cap = int(cfg.delta_t // cfg.g_sense) if cfg.g_sense > 0 else math.inf
        # Cost table: every handling priced and interned once, as a (price,
        # code) pair, sends and receives per kind.
        handling, sensed, relayed = self._handling, PacketKind.SENSED, PacketKind.RELAYED_DATA
        self._warmup = handling(sensed, USAGE_WARMUP)
        self._sense_send = handling(sensed, USAGE_SENSE_SEND)
        self._send = {kind: handling(kind, USAGE_SEND) for kind in PacketKind}
        self._recv = {kind: handling(kind, USAGE_RECV) for kind in PacketKind}
        self._recv_queue = handling(relayed, USAGE_RECV_QUEUE)
        self._relay_by_depth: list[tuple[float, int]] = []
        self._relay_handling(0)   # so that a relay price that rounds to 0 nJ fails here

    # -- charging ----------------------------------------------------------

    def _handling(self, kind: PacketKind, usage: ResourceUsageVector) -> tuple[float, int]:
        """The whole-nJ price of one handling of ``usage``, or under mix
        charging of one ``kind`` packet, and its code in the ledger, which
        keeps the usage's sends and receives. A nonzero price that rounds to
        0 nJ is rejected, and so is one past 2^53 nJ, which no battery pays."""
        cfg = self.cfg
        joules = (constituent_alpha(cfg.mix.row(kind.constituent), cfg.profile)
                  if cfg.mix_charging else task_energy(usage, cfg.profile))
        nanojoules = round(joules * 1e9, 0)
        if joules and not nanojoules:
            raise ConfigError([f"{kind.value} handling price {joules!r} J rounds to 0 nJ"])
        if nanojoules > 2 ** 53:
            raise ConfigError([f"{kind.value} handling price = {nanojoules:.6g} nJ exceeds 2^53"])
        return nanojoules, self.ledger.code(kind, nanojoules, usage.b_tx, usage.b_rx)

    def _relay_handling(self, depth: int) -> tuple[float, int]:
        """The (price, code) of a relay by queue depth: the first relay of a
        slice forwards straight through; later ones queue, paying one mem
        unit per buffer slot they sit behind."""
        table = self._relay_by_depth
        while len(table) <= depth:
            usage = ResourceUsageVector(b_cpu=1, b_mem=len(table), b_rx=1, b_tx=1)
            table.append(self._handling(PacketKind.RELAYED_DATA, usage))
        return table[depth]

    # -- neighbor interaction ----------------------------------------------

    def _route(self, participants: list[NodeState]) -> None:
        """Recompute the participants' links: none for a dead node, else the
        sink's entry if the sink is in range, else the chosen neighbor's."""
        nodes, sink_links = self.nodes, self._sink_links
        for node in participants:
            node.link = None if not node.alive else (
                sink_links[node.node_id] or select_next_hop(node, nodes))

    def _exchanges(self, stage, kind: PacketKind) -> None:
        """Book one exchange stage over lazy (sender, ``Neighbor`` entries)
        items, skipping a sender dead at its turn. Every kind but a routing
        announcement probes: a probe keeps the residual of a neighbor that
        answers; a silent one is marked not known-alive, and a silent next
        hop schedules a repair. Refused receives are cut out."""
        book, nodes, probe = charge, self.nodes, kind is not PacketKind.ROUTING_INFO
        (send_cost, send_code), (recv_cost, recv_code) = self._send[kind], self._recv[kind]
        ids, refused = [], []
        add_id = ids.append
        triggers, model_tx = self._repair_triggers, self.model_tx_j
        unsent = 0
        for node, entries in stage:
            if not node.alive:
                continue
            sender = node.node_id
            for nbr in entries:
                if book(node, send_cost) is None:
                    unsent += 1
                    continue
                add_id(sender)
                model_tx += nbr.tx_j
                target = nodes[nbr.node_id]
                if book(target, recv_cost) is None:
                    refused.append(len(ids) + len(refused))   # its slot had none been refused
                    if probe:
                        nbr.known_alive = False
                        if node.link is nbr:
                            triggers.append(sender)
                    continue
                add_id(nbr.node_id)
                if probe:
                    nbr.last_residual = target.battery
                    nbr.known_alive = True
        sent = (len(ids) + len(refused)) // 2
        codes = array("I", (send_code, recv_code)) * sent
        if refused:   # keep the slots between refused receives
            slots, codes = codes, array("I")
            for a, b in zip([-1, *refused], [*refused, len(slots)]):
                codes += slots[a + 1:b]
        self.ledger.nodes.fromlist(ids)
        self.ledger.codes.extend(codes)
        self.model_tx_j = model_tx
        self.dropped += unsent + len(refused)

    def _monitoring(self, full_refresh: bool) -> None:
        # Every neighbor, or each next hop; a sink link and no route are skipped.
        stage = _links(self.nodes) if full_refresh else (
            (node, (link,)) for node in self.nodes
            if (link := node.link) is not None and link.node_id != SINK_ID)
        self._exchanges(stage, PacketKind.NEIGHBOR_INFO)

    # -- sensing and relaying ------------------------------------------------

    def _events(self, count: int) -> None:
        """Book a slice's ``count`` area events as ``_exchanges`` books a stage:
        each covered node under its sense cap senses, schedules and starts the
        relay walk. A packet is dropped at an origin with no route (sensed, not
        sent), a dead next hop (marked not known-alive; a repair is scheduled),
        a stranded relay (it receives and queues) or a relay that cannot pay."""
        cfg, nodes, blocks, random = self.cfg, self.nodes, self._sense_grid, self.rng.random
        hypot, floor, size, r_sense = math.hypot, math.floor, blocks.size, cfg.r_sense
        width, height, scheduling = cfg.area_width, cfg.area_height, cfg.scheduling
        book, triggers = charge, self._repair_triggers
        sensed, relayed, cap = [0] * len(nodes), [0] * len(nodes), self._sense_cap
        table, relay_handling = self._relay_by_depth, self._relay_handling
        add_id, add_code = self.ledger.nodes.append, self.ledger.codes.append
        warmup, sense, (queue_cost, queue_code) = self._warmup, self._sense_send, self._recv_queue
        send_cost, send_code = self._send[PacketKind.SCHEDULING]
        model_tx = self.model_tx_j
        delivered = dropped = 0
        for _ in range(count):
            ex, ey = width * random(), height * random()   # rng.uniform(0.0, side), bit for bit
            # Tested only after the previous node was handled, so a node an
            # earlier handling of the same event killed is skipped.
            for node in blocks[floor(ex / size), floor(ey / size)]:   # CellGrid.near(ex, ey)
                if not (node.alive and hypot(node.x - ex, node.y - ey) <= r_sense):
                    continue
                origin = node.node_id
                seen = sensed[origin]
                if seen >= cap:
                    continue
                link = node.link
                cost, code = warmup if link is None else sense
                if book(node, cost) is None:
                    dropped += 1
                    continue
                add_id(origin)
                add_code(code)
                sensed[origin] = seen + 1
                if link is None:   # no route: sensed, not sent
                    dropped += 1
                    continue
                model_tx += link.tx_j
                if scheduling:
                    if book(node, send_cost) is None:
                        dropped += 1
                    else:
                        add_id(origin)
                        add_code(send_code)
                        model_tx += link.tx_j
                current = node
                while (hop := link.node_id) != SINK_ID:
                    target = nodes[hop]
                    if not target.alive:
                        dropped += 1
                        link.known_alive = False
                        triggers.append(current.node_id)
                        break
                    if target.link is None:
                        # Stranded relay: receives and queues, cannot forward.
                        if book(target, queue_cost) is None:
                            dropped += 1
                        else:
                            add_id(hop)
                            add_code(queue_code)
                        dropped += 1
                        break
                    depth = relayed[hop]
                    try:
                        cost, code = table[depth]
                    except IndexError:   # the first relay at this depth in the run
                        cost, code = relay_handling(depth)
                    if book(target, cost) is None:
                        dropped += 2   # a refused charge and a drop
                        break
                    add_id(hop)
                    add_code(code)
                    current, link = target, target.link
                    model_tx += link.tx_j
                    relayed[hop] = depth + 1
                else:   # the walk reached the sink
                    delivered += 1
        self.model_tx_j = model_tx
        self.delivered += delivered
        self.dropped += dropped

    def _collection_work(self, full_refresh: bool) -> None:
        if self.cfg.monitoring:
            self._monitoring(full_refresh)
        self._events(_poisson(self.rng, self.cfg.event_rate))

    # -- maintenance ----------------------------------------------------------

    def _repair_participants(self) -> list[NodeState]:
        """By node id, the alive nodes within ``repair_radius_hops`` hops of an
        alive trigger, through alive nodes; every alive node when the radius
        is 0 or nothing triggered (a periodic repair)."""
        nodes, radius = self.nodes, self.cfg.repair_radius_hops
        if radius <= 0 or not self._repair_triggers:
            return [n for n in nodes if n.alive]
        reached = frontier = {t for t in self._repair_triggers if nodes[t].alive}
        for _ in range(radius):
            frontier = {nbr.node_id for i in frontier for nbr in nodes[i].neighbors
                        if nodes[nbr.node_id].alive} - reached
            reached |= frontier
        return [nodes[i] for i in sorted(reached)]

    def _route_setup(self, participants: list[NodeState]) -> None:
        """Topology probes from every alive participant, their next hops
        recomputed, then a routing announcement to each of their neighbors."""
        self._exchanges(_links(participants), PacketKind.TOPOLOGY_INFO)
        self._route(participants)
        self._exchanges(_links(participants), PacketKind.ROUTING_INFO)

    # -- initialization --------------------------------------------------------

    def _init_work(self, idx: int) -> None:
        """Startup staging: warm-up readings first, neighbor handshakes in the
        middle slices, topology probing and route setup in the last one.
        Short initializations fold the stages together."""
        n = self.cfg.init_slices
        first, last = idx == 0, idx == n - 1
        if first:
            (cost, code), ledger = self._warmup, self.ledger
            for node in self.nodes:
                for _ in range(self.cfg.warmup_packets):
                    if charge(node, cost) is None:
                        self.dropped += 1
                    else:
                        ledger.nodes.append(node.node_id)
                        ledger.codes.append(code)
        if first if n <= 2 else not (first or last):
            self._monitoring(full_refresh=True)
        if last:
            self._route_setup(self.nodes)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> RunResult:
        cfg = self.cfg
        alive = attrgetter("alive")
        initial_total = sum(n.battery for n in self.nodes) / 1e9
        booked = sends = receives = 0.0   # whole nJ and counts, so the sums are exact
        repair_next, last_repair = False, cfg.init_slices - 1   # the last maintenance slice
        records: list[SliceRecord] = []
        for index in range(cfg.total_slices):
            if index < cfg.init_slices:
                phase = Phase.INITIALIZATION
                self._init_work(index)
            else:
                phase = Phase.MAINTENANCE if repair_next else Phase.COLLECTION
                period = cfg.monitor_period
                self._collection_work(period > 0 and (index - cfg.init_slices) % period == 0)
                if repair_next:
                    self._route_setup(self._repair_participants())
                    self._repair_triggers.clear()
                    last_repair = index
                # One maintenance slice follows a detected next-hop failure or
                # the periodic repair interval elapsing since the last one.
                repair_next = bool(self._repair_triggers) or (
                    cfg.maintenance_period > 0 and index - last_repair >= cfg.maintenance_period)
            flows, energy, tx, rx = self.ledger.close()
            booked, sends, receives = booked + energy, sends + tx, receives + rx
            records.append(SliceRecord(
                index=index,
                phase=phase,
                flows=flows,
                energy_j=energy / 1e9,
                alive_nodes=sum(map(alive, self.nodes)),
            ))
            if not records[-1].alive_nodes:
                break
        return RunResult(
            records=records,
            nodes=self.nodes,
            ledger=self.ledger,
            delivered=self.delivered,
            dropped=self.dropped,
            initial_battery_total=initial_total,
            ledger_total=booked / 1e9,
            # One send and one receive each carry one packet, priced alike.
            radio=RadioAudit(
                model_tx_j=self.model_tx_j,
                model_rx_j=receives * (cfg.bits_per_packet * rx_energy_per_bit(cfg.radio)),
                charged_tx_j=sends * cfg.profile.p_tx, charged_rx_j=receives * cfg.profile.p_rx,
                tx_events=int(sends), rx_events=int(receives)),
        )


def run(cfg: ScenarioConfig) -> RunResult:
    """Execute one deterministic run of the scenario."""
    return Simulation(cfg).run()
