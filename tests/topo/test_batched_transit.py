"""Differential proof: batched transit is the scalar transit pump.

A ``Topology`` hands each head run of transit items bound for one
(node, iface) to the node's stamped batch loop; its scalar twin, whose
``_batchable`` always says no, pumps every hop one packet at a time.
The same traffic through twin topologies must leave the same state, for
state: end-to-end dispositions, departure times, every node's (and
shard's) flow records including ``created`` / ``last_used``, interface
pacing (``_next_free``) and RX/TX counters, disposition counters, fault
domains, and the topology's ``dropped_loop`` count.

Covered: a 3-hop chain with link delay at bursts of 1, 32 and 256 (ICMP
errors travelling back, a bounded flow table evicting mid-path), the
same chain with a sharded middle hop (which takes the scalar step while
the hops around it batch), the ECMP diamond with a branch
quarantined mid-run, ``max_hops`` loop cutting, and the ESP tunnel,
whose decrypting gateway stays on the scalar step so tunnel adoption is
exact — each under scalar and batched entry.
"""

import copy
import random

import pytest

from repro import Topology
from repro.net.packet import make_udp
from repro.topo import DROPPED_LOOP
from repro.workloads import build_topo_scenario

pytestmark = pytest.mark.topo

DELAY = 5e-5


def _chain(shards_mid=0):
    """r1 -> r2 -> r3 with link delay.  r2 owns an address (so TTL
    expiry and no-route send ICMP errors back toward r1) and lacks the
    20.8/16 route r1 sends toward it; r3's flow table is bounded."""
    topo = Topology("chain", max_hops=8)
    topo.add_node("r1")
    topo.add_node("r2", shards=shards_mid)
    topo.add_node("r3", max_flows=24)
    topo.add_interface("r1", "lan0", prefix="10.7.0.0/16")
    topo.add_interface("r1", "up0")
    topo.add_interface("r2", "dn0", address="172.16.0.2")
    topo.add_interface("r2", "up0")
    topo.add_interface("r3", "dn0")
    topo.add_interface("r3", "lan0", prefix="20.7.0.0/16")
    topo.link("r1", "up0", "r2", "dn0", delay=DELAY)
    topo.link("r2", "up0", "r3", "dn0", delay=DELAY)
    for prefix in ("20.7.0.0/16", "20.8.0.0/16"):
        topo.add_route("r1", prefix, "up0")
    topo.add_route("r2", "20.7.0.0/16", "up0")
    topo.add_route("r2", "10.7.0.0/16", "dn0")
    topo.add_route("r3", "20.7.0.0/16", "lan0")
    return topo


def _chain_stream(count=600, seed=5):
    """Forwarded flows (more than r3's table holds), TTL expiry at r2,
    and no-route at r2 — shuffled."""
    rng = random.Random(seed)
    packets = []
    for _ in range(count):
        roll = rng.random()
        src = f"10.7.{rng.randrange(4)}.{rng.randrange(1, 12)}"
        if roll < 0.08:
            packets.append(make_udp(src, "20.7.0.9", 7000, 9000,
                                    iif="lan0", ttl=2))
        elif roll < 0.14:
            packets.append(make_udp(src, "20.8.0.1", 7100, 9000, iif="lan0"))
        else:
            packets.append(make_udp(
                src, f"20.7.0.{rng.randrange(1, 20)}",
                rng.randrange(5000, 5040), 9000, iif="lan0",
            ))
    return packets


def _loop_pair():
    """a <-> b, each routing 30/8 at the other: only max_hops ends it."""
    topo = Topology("loop", max_hops=5)
    topo.add_node("a")
    topo.add_node("b")
    topo.add_interface("a", "lan0", prefix="10.9.0.0/16")
    topo.add_interface("a", "x0")
    topo.add_interface("b", "x0")
    topo.link("a", "x0", "b", "x0", delay=DELAY)
    topo.add_route("a", "30.0.0.0/8", "x0")
    topo.add_route("b", "30.0.0.0/8", "x0")
    return topo


def _loop_stream(count=300, seed=9):
    rng = random.Random(seed)
    return [
        make_udp(f"10.9.0.{rng.randrange(1, 30)}", f"30.0.0.{rng.randrange(1, 9)}",
                 rng.randrange(5000, 5020), 9000, iif="lan0")
        for _ in range(count)
    ]


def _routers(topo):
    for name, node in topo.nodes.items():
        for index, router in enumerate(Topology._node_routers(node)):
            yield f"{name}/{index}", router


def _state(topo):
    nodes = {}
    for label, router in _routers(topo):
        flows = sorted(
            (r.key.src, r.key.dst, r.key.protocol, r.key.sport, r.key.dport,
             str(r.key.iif), r.created, r.last_used, r.packets, r.bytes)
            for r in router.aiu.flow_table
        )
        nodes[label] = {
            "counters": dict(router.counters),
            "flows": flows,
            "flow_stats": router.aiu.flow_table.stats(),
            "ifaces": {
                name: (i._next_free, i.rx_packets, i.rx_bytes,
                       i.tx_packets, i.tx_bytes)
                for name, i in router.interfaces.items()
            },
            "faults": router.faults.health(),
        }
    return {"local": dict(topo._local_counters), "nodes": nodes}


def _drive(topo, timeline, burst, entry, ops=()):
    """Feed ``(t, packet)`` pairs in bursts of ``burst`` (each stamped
    with its first packet's time), applying each control op before the
    first burst that starts at or after its time.  Returns the
    per-packet end-to-end dispositions and departure times."""
    ops = sorted(ops, key=lambda op: op[0])
    got, sent = [], []
    for start in range(0, len(timeline), burst):
        chunk = timeline[start:start + burst]
        now = chunk[0][0]
        while ops and ops[0][0] <= now:
            ops.pop(0)[1](topo)
        packets = [p for _, p in chunk]
        sent.extend(packets)
        if entry == "batch":
            got.extend(topo.receive_batch(packets, now=now))
        else:
            got.extend(topo.receive(p, now=now) for p in packets)
    return got, [p.departure_time for p in sent]


def _twins(build, timeline_fn, burst, entry, ops_fn=lambda topo: ()):
    """Run the same traffic through a scalar-pumped and a batch-pumped
    twin; assert state-for-state equality and return both topologies."""
    out = []
    for batched in (False, True):
        topo = build()
        if not batched:
            topo._batchable = lambda node, iface_name: False
        result = _drive(topo, timeline_fn(), burst, entry, ops_fn(topo))
        out.append((topo, result, _state(topo)))
    (scalar, want, want_state), (batched, got, got_state) = out
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got_state == want_state
    return scalar, batched


def _stamped_loops(topo, node):
    return sum(
        1 for router in Topology._node_routers(topo.node(node))
        for key in router._batch_loops if key[-1]
    )


def _timed(packets, step=4e-6):
    return [(i * step, p) for i, p in enumerate(packets)]


@pytest.mark.parametrize("entry", ["batch", "scalar"])
@pytest.mark.parametrize("burst", [1, 32, 256])
def test_chain_transit_matches_scalar_pump(burst, entry):
    scalar, batched = _twins(
        _chain, lambda: _timed(_chain_stream()), burst, entry)
    counters = batched.counters
    assert counters["dropped_ttl"] and counters["dropped_no_route"]
    assert counters["icmp_sent"]
    assert batched.node("r3").aiu.flow_table.evictions
    if burst > 1 and entry == "batch":
        assert _stamped_loops(batched, "r2") and _stamped_loops(batched, "r3")
    assert _stamped_loops(scalar, "r2") == 0


@pytest.mark.parametrize("entry", ["batch", "scalar"])
@pytest.mark.parametrize("burst", [32, 256])
def test_sharded_middle_hop_matches_scalar_pump(burst, entry):
    """The sharded node takes the scalar step, packet by packet to its
    shard; the run its emissions form at r3 still batches, so r3 sees
    its packets — and paces its egress — exactly as the scalar pump
    has it."""
    scalar, batched = _twins(
        lambda: _chain(shards_mid=3), lambda: _timed(_chain_stream()),
        burst, entry)
    assert not batched._batchable(batched.node("r2"), "dn0")
    assert _stamped_loops(batched, "r2") == 0
    if entry == "batch":
        assert _stamped_loops(batched, "r3")
    shard_rx = [r.counters["rx"] for r in batched.node("r2").shards]
    assert all(shard_rx)


def _scenario_timeline(name):
    _, sc = build_topo_scenario(name, seed=3)
    timeline = []
    for _phase, packets in sc.phases():
        for t, packet, _attack in packets:
            clone = copy.copy(packet)
            clone.annotations = dict(packet.annotations)
            clone.fix = None
            timeline.append((t, clone))
    return timeline


def _scenario_build(name):
    return lambda: build_topo_scenario(name, seed=3)[0]


@pytest.mark.parametrize("entry", ["batch", "scalar"])
@pytest.mark.parametrize("burst", [1, 64])
def test_ecmp_diamond_with_quarantined_branch_matches_scalar_pump(burst, entry):
    """The quarantine_reroute diamond: the left branch's plugin is
    quarantined mid-run (every flow re-folds onto the right branch) and
    later reinstated."""
    from repro.mgr.fanout import library_for

    def ops(topo):
        _, sc = build_topo_scenario("quarantine_reroute", seed=3)
        library = library_for(topo)
        (t_impair, _), (t_recover, _) = sorted(sc.control_ops,
                                               key=lambda op: op[0])
        return [
            (t_impair, lambda _t: library.quarantine("stats", node="left")),
            (t_recover, lambda _t: library.reinstate("stats", node="left")),
        ]

    scalar, batched = _twins(
        _scenario_build("quarantine_reroute"),
        lambda: _scenario_timeline("quarantine_reroute"), burst, entry, ops)
    left = batched.node("left")
    assert left.counters["rx"] < batched.node("right").counters["rx"]
    assert left.faults.health()["stats"]["quarantine_count"] == 1


@pytest.mark.parametrize("entry", ["batch", "scalar"])
def test_max_hops_cuts_loops_like_the_scalar_pump(entry):
    scalar, batched = _twins(
        _loop_pair, lambda: _timed(_loop_stream()), 64, entry)
    assert batched.counters[DROPPED_LOOP] == 300
    if entry == "batch":
        assert _stamped_loops(batched, "a") and _stamped_loops(batched, "b")


@pytest.mark.parametrize("entry", ["batch", "scalar"])
@pytest.mark.parametrize("burst", [1, 32])
def test_ipsec_tunnel_adoption_matches_scalar_pump(burst, entry):
    """The decrypting gateway binds a re-injecting instance, so it stays
    on the scalar step and every decapsulated packet is adopted: the
    end-to-end disposition of each tunnelled packet is the inner
    packet's, under both entries."""
    scalar, batched = _twins(
        _scenario_build("ipsec_tunnel"),
        lambda: _scenario_timeline("ipsec_tunnel"), burst, entry)
    gwb = batched.node("gwb")
    assert not batched._batchable(gwb, "wan0")
    assert gwb._reinjects and not gwb._batch_loops
    assert gwb.counters["consumed"] > 0
    if burst > 1 and entry == "batch":
        assert _stamped_loops(batched, "gwa")
        assert _stamped_loops(batched, "e2")


def test_ipsec_tunnel_delivers_end_to_end_when_batched():
    topo = build_topo_scenario("ipsec_tunnel", seed=3)[0]
    timeline = [(t, p) for t, p in _scenario_timeline("ipsec_tunnel")
                if str(p.dst).startswith("10.2.")]
    got, _ = _drive(topo, timeline, 32, "batch")
    assert got == ["forwarded"] * len(timeline)


def test_observer_keeps_the_scalar_step():
    """A PathTracer walk never enters the batch loops: traces are the
    scalar pump's, hop for hop."""
    from repro.topo import PathTracer

    topo = _chain()
    trace = PathTracer(topo).trace(("10.7.0.1", "20.7.0.1", 17, 5000, 9000))
    assert trace.path() == ["r1", "r2", "r3"]
    assert not any(_stamped_loops(topo, n) for n in ("r1", "r2", "r3"))
