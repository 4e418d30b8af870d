"""Seeded inputs and the systems under test for ``perfbench/run.py``.

A :class:`Stream` is a deterministic function of its seed: an endless
sequence of flow indices, from which fresh ``Packet`` objects (or wire
descriptors) are built on demand, each with its expected disposition
known by construction.  Packets are never reused: every consumer of a
burst gets its own objects, because the data path mutates them.

The systems wrap the public entry points the workloads drive:

* :class:`RouterSystem` — one border ``Router`` (``receive_batch``);
* :class:`TopologySystem` — a 3-router ``Topology`` chain
  (``Topology.receive_batch``);
* :class:`ShardSystem` — a ``ShardedRouter`` of border routers
  (``receive_wire``).

Each exposes the control library ``PluginManager`` selects for it, so a
reservation is one code path whatever the system.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Dict, List, Sequence

from repro import Disposition, Packet, PluginManager, Router, Topology
from repro.core.plugin import Plugin, PluginInstance, TYPE_IP_OPTIONS
from repro.net.addresses import IPAddress
from repro.net.headers import PROTO_UDP
from repro.shard import ShardedRouter, encode_packet
from repro.workloads.flows import heavy_tailed_train_lengths, zipf_flows

BURST = 256            # packets per receive call (the closed-loop unit)
PAYLOAD = bytes(64)    # smallest packets: 64-byte UDP payload
ACL_RULES = 256        # one /16 source rule per 10.k.0.0/16
DENY_RULES = 32        # ... of which this many bind the deny instance
FLOW_CAP = 1024        # edge flow table, far below the flow working set
POOL_FLOWS = 16384     # distinct edge flows before the train list repeats
ACTIVE_TRAINS = 64     # concurrent flow trains interleaved on the link
TRAIN_CAP = 200        # longest Pareto train (packets); a low cap keeps
                       # the hit ratio within ~1% from seed to seed
DESTINATIONS = 256     # Zipf destination population
CHAIN_FLOWS = 512      # chain3 working set; fits every node's flow table
DST_PORT = 9000

FORWARDED = Disposition.FORWARDED
DENIED = Disposition.DROPPED_BY_PLUGIN
DISPOSITIONS = frozenset(
    value for key, value in vars(Disposition).items() if key.isupper()
)


class EmptyPlugin(Plugin):
    """A plugin whose instances return CONTINUE: the paper's Table 3
    "empty plugin", here bound at ``ip_options``."""

    plugin_type = TYPE_IP_OPTIONS
    name = "bench-empty"
    instance_class = PluginInstance


class Stream:
    """The seeded packet source of one workload.

    ``edge`` traffic: ``ACTIVE_TRAINS`` concurrent flow trains whose
    lengths are Pareto (``heavy_tailed_train_lengths``) and whose
    destinations are Zipf (``zipf_flows``); a finished train is replaced
    by the next flow of the pool.  The pool repeats after
    ``POOL_FLOWS`` flows, by which time each of its flows has long been
    evicted from the ``FLOW_CAP`` table, so a repeat is a fresh flow to
    the router.  ``chain`` traffic: uniform picks over ``CHAIN_FLOWS``
    flows, all of which fit every node's table.
    """

    def __init__(self, kind: str, seed: int):
        if kind not in ("edge", "chain"):
            raise ValueError(f"unknown stream kind {kind!r}")
        self.kind = kind
        rng = random.Random(seed)
        self.deny = frozenset(rng.sample(range(ACL_RULES), DENY_RULES))
        count = POOL_FLOWS if kind == "edge" else CHAIN_FLOWS
        specs = zipf_flows(count, destinations=DESTINATIONS, seed=seed)
        parsed: Dict[str, IPAddress] = {}

        def addr(text: str) -> IPAddress:
            value = parsed.get(text)
            if value is None:
                value = parsed[text] = IPAddress.parse(text)
            return value

        #: per flow: (src, dst, sport) — shared, never mutated
        self.flows = [(addr(f.src), addr(f.dst), f.src_port) for f in specs]
        self.sources = [f.src for f in specs]
        second_octet = [int(f.src.split(".")[1]) for f in specs]
        if kind == "edge":
            self.expect = [DENIED if k in self.deny else FORWARDED
                           for k in second_octet]
            self._lengths = heavy_tailed_train_lengths(
                count, seed=seed + 1, cap=TRAIN_CAP
            )
        else:
            # The chain carries no ACL: every packet is forwarded end to end.
            self.expect = [FORWARDED] * count
        self._rng = random.Random(seed + 2)
        self._slots: List[List[int]] = []
        self._next_flow = 0
        self._cursor = 0
        self._position = 0
        self._wire = None

    # -- the flow-index sequence ----------------------------------------
    def take(self, n: int = BURST) -> List[int]:
        """The next ``n`` flow indices of the stream."""
        self._position += n
        if self.kind == "chain":
            if self._position <= CHAIN_FLOWS:
                # The first pass visits every flow once, so a warm-up
                # of that length installs the whole working set.
                return list(range(self._position - n, self._position))
            pick = self._rng.randrange
            return [pick(CHAIN_FLOWS) for _ in range(n)]
        slots = self._slots
        if not slots:
            for _ in range(ACTIVE_TRAINS):
                slots.append(self._new_train())
        out = []
        for _ in range(n):
            slot = slots[self._cursor]
            self._cursor = (self._cursor + 1) % ACTIVE_TRAINS
            out.append(slot[0])
            slot[1] -= 1
            if slot[1] == 0:
                slot[0], slot[1] = self._new_train()
        return out

    def _new_train(self) -> List[int]:
        flow = self._next_flow % len(self.flows)
        self._next_flow += 1
        return [flow, self._lengths[flow]]

    # -- materialisation (outside any timed region) -----------------------
    def packets(self, indices: Sequence[int], iif: str = "atm0") -> List[Packet]:
        flows = self.flows
        return [
            Packet(src=flows[i][0], dst=flows[i][1], protocol=PROTO_UDP,
                   src_port=flows[i][2], dst_port=DST_PORT, iif=iif,
                   payload=PAYLOAD)
            for i in indices
        ]

    def descriptors(self, indices: Sequence[int]) -> list:
        """Wire descriptors (RX-ring view, fold precomputed) with fresh
        packet ids."""
        if self._wire is None:
            self._wire = [
                encode_packet(p)[:12]
                for p in self.packets(range(len(self.flows)))
            ]
            self._ids = itertools.count(1)
        wire, ids = self._wire, self._ids
        return [wire[i] + (next(ids), 0.0) for i in indices]

    def expected(self, indices: Sequence[int]) -> List[str]:
        expect = self.expect
        return [expect[i] for i in indices]

    def reservable(self, indices: Sequence[int], taken) -> str:
        """A source of an allowed flow in ``indices`` with no live
        reservation (reservations never change a disposition)."""
        for i in indices:
            src = self.sources[i]
            if self.expect[i] == FORWARDED and src not in taken:
                return src
        raise LookupError("no reservable flow in the burst")


# ----------------------------------------------------------------------
# Router configurations
# ----------------------------------------------------------------------
def bind_empty(router: Router) -> None:
    plugin = EmptyPlugin()
    router.pcu.load(plugin)
    plugin.register_instance(plugin.create_instance(), "*, *, UDP",
                             gate="ip_options")


def build_edge_router(deny, name: str = "edge") -> Router:
    """The border router: a ``ACL_RULES``-rule firewall ACL at
    ``ip_security`` installed through the control library, an empty
    plugin at ``ip_options``, and a flow table capped at ``FLOW_CAP``."""
    router = Router(name=name, max_flows=FLOW_CAP)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    library = PluginManager(router).library
    library.modload("firewall")
    library.create_instance("firewall", "acl-allow", action="allow")
    library.create_instance("firewall", "acl-deny", action="deny")
    for k in range(ACL_RULES):
        library.bind("acl-deny" if k in deny else "acl-allow",
                     f"10.{k}.0.0/16, *, UDP", gate="ip_security")
    bind_empty(router)
    return router


def build_chain_node(name: str, entry: bool, exit_: bool) -> Router:
    """One chain3 hop: a plain router with an empty plugin at
    ``ip_options``; unbounded flow table."""
    router = Router(name=name)
    router.add_interface("atm0" if entry else "dn0",
                         prefix="10.0.0.0/8" if entry else None)
    if exit_:
        router.add_interface("atm1", prefix="20.0.0.0/8")
    else:
        router.add_interface("up0")
        router.routing_table.add("20.0.0.0/8", "up0")
    bind_empty(router)
    return router


def build_chain(hops: int = 3) -> Topology:
    topo = Topology(f"chain{hops}", max_hops=hops + 1)
    names = [f"r{i + 1}" for i in range(hops)]
    for i, name in enumerate(names):
        topo.add_node(name, router=build_chain_node(
            name, entry=i == 0, exit_=hops > 1 and i == hops - 1))
    for a, b in zip(names, names[1:]):
        topo.link(a, "up0", b, "dn0")
    return topo


# ----------------------------------------------------------------------
# Systems: one interface over the three entry points
# ----------------------------------------------------------------------
class RouterSystem:
    """One ``Router`` driven through ``receive_batch``."""

    entry_span = "core.receive_batch"
    wire = False     # fed wire descriptors rather than Packets
    chain = False    # dispositions are end to end over several routers

    def __init__(self, router: Router):
        self.router = router
        self.library = PluginManager(router).library
        self.send = router.receive_batch

    def health(self) -> dict:
        return self.router.health()

    def counter_rows(self) -> List[Counter]:
        return [Counter(self.router.counters)]

    def reconcile(self, observed: Counter) -> List[str]:
        return reconcile_rows(self.counter_rows(), observed, self.chain)

    def close(self) -> None:
        pass


class TopologySystem(RouterSystem):
    """A router chain driven through ``Topology.receive_batch``;
    dispositions are end to end."""

    entry_span = "topo.receive_batch"
    chain = True

    def __init__(self, topo: Topology):
        self.topo = topo
        self.library = PluginManager(topo).library
        self.send = topo.receive_batch

    def health(self) -> dict:
        return self.topo.health()

    def counter_rows(self) -> List[Counter]:
        return [Counter(r.counters) for r in self.topo.nodes.values()]


class ShardSystem(RouterSystem):
    """A ``ShardedRouter`` of border routers fed wire descriptors."""

    entry_span = "shard.receive_wire"
    wire = True

    def __init__(self, sharded: ShardedRouter):
        self.sharded = sharded
        self.library = PluginManager(sharded).library
        self.send = sharded.receive_wire

    def health(self) -> dict:
        return self.sharded.health()

    def counter_rows(self) -> List[Counter]:
        return [Counter(row["counters"]) for row in self.health()["shards"]]

    def close(self) -> None:
        self.sharded.close()


def reconcile_rows(rows: Sequence[Counter], observed: Counter,
                   chain: bool) -> List[str]:
    """Counter reconciliation; returns the identities that failed.

    Per router: ``rx == sum of its disposition counters``.  End to end:
    for shards or a single router the summed disposition counters equal
    the dispositions the calls returned; for a chain every packet the
    entry accepted is accounted by one final disposition, and the exit
    node forwarded exactly the packets reported forwarded.
    """
    bad = []
    for n, row in enumerate(rows):
        total = sum(v for k, v in row.items() if k in DISPOSITIONS)
        if row["rx"] != total:
            bad.append(f"row {n}: rx {row['rx']} != dispositions {total}")
    if chain:
        if rows[0]["rx"] != sum(observed.values()):
            bad.append("chain: entry rx != packets sent")
        if rows[-1][FORWARDED] != observed[FORWARDED]:
            bad.append("chain: exit forwarded != end-to-end forwarded")
    else:
        summed: Counter = Counter()
        for row in rows:
            summed.update({k: v for k, v in row.items() if k in DISPOSITIONS})
        for key in set(summed) | set(observed):
            if summed[key] != observed[key]:
                bad.append(f"{key}: counters {summed[key]} != returned {observed[key]}")
    return bad
