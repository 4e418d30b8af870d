"""Hop-by-hop path tracing through multi-router topologies.

Pins the ISSUE acceptance criteria:

* ``PathTracer.trace(five_tuple)`` on the 4-hop IPsec scenario returns
  one span per hop carrying classification outcome, gates run, and
  modelled cycles — with the decapsulating hop folded (outer ESP
  consume + inner re-injection rendered as one ``decapsulated`` hop);
* ``pmgr show paths --json`` round-trips through the topic registry
  with the versioned schema envelope;
* quarantining a middle-hop plugin via the topology ``FanoutLibrary``
  reroutes the traced path onto the ECMP alternate, and reinstating
  brings it back.
"""

import json

import pytest

from repro import PathTracer, PluginManager, Topology
from repro.mgr.format import strip_schema
from repro.net.packet import make_udp
from repro.workloads import build_topo_scenario

pytestmark = pytest.mark.topo

PROBE = ("10.1.3.7", "10.2.0.9", 17, 5000, 9000)


@pytest.fixture()
def ipsec_topo():
    topo, _sc = build_topo_scenario("ipsec_tunnel")
    return topo


class TestIpsecPathTrace:
    def test_four_hops_with_decapsulation(self, ipsec_topo):
        trace = PathTracer(ipsec_topo).trace(PROBE)
        assert trace.path() == ["e1", "gwa", "gwb", "e2"]
        assert trace.disposition == "forwarded"
        for hop in trace.hops:
            assert hop["gates"], hop["node"]
            assert hop["cycles"] > 0, hop["node"]
            assert hop["classification"] is not None, hop["node"]
        # gwa encapsulates (ESP runs at ip_security)...
        assert "ip_security" in trace.hops[1]["gates"]
        # ...and gwb is the folded decapsulation hop: outer consume +
        # inner forward shown as one hop, with both walks' gates.
        gwb = trace.hops[2]
        assert gwb["decapsulated"] is True
        assert gwb["disposition"] == "forwarded"
        assert gwb["gates"].count("ip_security") >= 2

    def test_header_names_the_asked_about_flow(self, ipsec_topo):
        """ESP rewrites the packet in place; the rendered header must
        still name the probe flow, not the tunnel endpoints."""
        lines = PathTracer(ipsec_topo).trace(PROBE).render()
        assert "10.1.3.7:5000 -> 10.2.0.9:9000/17" in lines[0]
        assert "192.0.2." not in lines[0]
        assert len(lines) == 1 + 4  # header + one line per hop

    def test_trace_is_side_effect_free_on_flow_state(self, ipsec_topo):
        tracer = PathTracer(ipsec_topo)
        tracer.trace(PROBE)
        gwb = ipsec_topo.node("gwb")
        lifecycles = [
            r._lifecycle for r in ipsec_topo._node_routers(gwb)
        ]
        assert all(lc is None for lc in lifecycles)

    def test_to_dict_roundtrip(self, ipsec_topo):
        trace = PathTracer(ipsec_topo).trace(PROBE)
        data = trace.to_dict()
        assert data["disposition"] == "forwarded"
        assert [h["node"] for h in data["hops"]] == trace.path()
        json.dumps(data)  # must be JSON-serializable as-is


class TestTraceMechanics:
    def _chain(self, shards_mid=0):
        topo = Topology("chain")
        topo.add_node("a")
        topo.add_node("b", shards=shards_mid)
        topo.add_interface("a", "lan0", prefix="10.4.0.0/16")
        topo.add_interface("a", "up0")
        topo.add_interface("b", "dn0")
        topo.add_interface("b", "lan0", prefix="20.4.0.0/16")
        topo.link("a", "up0", "b", "dn0")
        topo.add_route("a", "20.4.0.0/16", "up0")
        topo.add_route("b", "20.4.0.0/16", "lan0")
        return topo

    def test_sharded_hop_records_shard_index(self):
        topo = self._chain(shards_mid=3)
        probe = make_udp("10.4.0.1", "20.4.0.1", 5000, 9000, iif="lan0")
        trace = PathTracer(topo).trace(probe)
        assert trace.path() == ["a", "b"]
        expected = probe.flow_fold32() % 3
        assert trace.hops[1]["shard"] == expected
        assert f"shard={expected}" in trace.render()[2]
        assert trace.hops[0]["shard"] is None

    def test_entry_override(self):
        topo = self._chain()
        probe = make_udp("10.4.0.1", "20.4.0.1", 5000, 9000, iif="dn0")
        trace = PathTracer(topo).trace(probe, entry="b")
        assert trace.path() == ["b"]
        assert topo._entry == "a"  # override did not stick

    def test_scheduler_verdict_on_shaped_hop(self):
        topo, _sc = build_topo_scenario("hfsc_aggregation")
        probe = make_udp("10.5.0.1", "20.5.0.1", 5000, 9000, iif="lan0")
        trace = PathTracer(topo).trace(probe)
        agg = next(h for h in trace.hops if h["node"] == "agg")
        assert agg["scheduler"] in ("queued", "scheduled")
        assert "packet_scheduling" in agg["gates"]

    def test_probe_from_destination_string(self):
        topo = self._chain()
        trace = PathTracer(topo).trace("20.4.0.0/16")
        assert trace.path() == ["a", "b"]


class TestPmgrIntegration:
    def test_trace_path_and_show_paths_json(self, ipsec_topo):
        library = PluginManager(ipsec_topo).library
        lines = []
        mgr = PluginManager(ipsec_topo, output=lines.append)
        assert mgr.library.topology is ipsec_topo

        mgr.run_command(
            "trace path 10.1.3.7 10.2.0.9 proto=17 sport=5000 dport=9000"
        )
        rendered = "\n".join(lines)
        assert "e1" in rendered and "gwb" in rendered
        assert "decapsulated" in rendered

        lines.clear()
        mgr.run_command("show paths --json")
        data = json.loads("\n".join(lines))
        assert data["schema"] == {"topic": "paths", "version": 1}
        paths = strip_schema(data)["paths"]
        assert len(paths) == 1
        assert [h["node"] for h in paths[0]["hops"]] == [
            "e1", "gwa", "gwb", "e2",
        ]
        del library

    def test_show_topology_json(self, ipsec_topo):
        lines = []
        mgr = PluginManager(ipsec_topo, output=lines.append)
        mgr.run_command("show topology --json")
        data = json.loads("\n".join(lines))
        assert data["schema"] == {"topic": "topology", "version": 1}
        body = strip_schema(data)
        assert {n["name"] for n in body["nodes"]} == {
            "e1", "gwa", "gwb", "e2",
        }
        assert body["entry"] == "e1"
        assert len(body["links"]) == 3


class TestQuarantineReroute:
    def test_traced_path_moves_to_ecmp_alternate(self):
        topo, _sc = build_topo_scenario("quarantine_reroute")
        library = PluginManager(topo).library
        probe = make_udp("10.6.0.1", "20.6.0.1", 5000, 9000, iif="lan0")
        before = library.trace_path(probe)
        assert before.disposition == "forwarded"
        first_via = before.path()[1]
        assert first_via in ("left", "right")

        # Quarantine the branch the flow pinned to: the ECMP fold must
        # steer around the impaired node, established flow intact.
        library.quarantine("stats", node=first_via)
        rerouted = library.trace_path(probe)
        assert rerouted.disposition == "forwarded"
        alternate = rerouted.path()[1]
        assert alternate != first_via

        library.reinstate("stats", node=first_via)
        restored = library.trace_path(probe)
        assert restored.path()[1] == first_via

        # All three traces retained for `pmgr show paths`.
        assert len(library._paths) == 3
