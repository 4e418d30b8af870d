"""One control library for every owner kind.

``PluginManager(owner)`` picks a ``RouterPluginLibrary`` for a Router
and a ``FanoutLibrary`` for a ShardedRouter (inline or mp) or a
Topology.  The same pmgr commands must then behave the same on all four:
``mroute`` and ``msg`` fan out through the library (each shard or node
resolves its own ``instance=``), and ``telemetry status`` / ``overload
status`` report the merged query, not a front-end attribute.
"""

import pytest

from repro import (
    FanoutLibrary,
    PluginManager,
    Router,
    RouterPluginLibrary,
    ShardedRouter,
    Topology,
)
from repro.core.errors import ConfigurationError
from repro.net.packet import make_udp
from repro.shard import encode_packet, mp_available

OWNERS = [
    "router",
    "inline",
    pytest.param("mp", marks=pytest.mark.skipif(
        not mp_available(), reason="needs fork start method")),
    "topo",
]


def _factory(index: int = 0) -> Router:
    router = Router(name=f"fan/{index}")
    router.add_interface("up0", prefix="10.0.0.0/8")
    router.add_interface("down1")
    router.add_interface("down2")
    return router


def _topology() -> Topology:
    topo = Topology("fan")
    topo.add_node("a", router=_factory())
    topo.add_node("b", router=ShardedRouter(nshards=2, factory=_factory))
    return topo


@pytest.fixture(params=OWNERS)
def owner(request):
    kind = request.param
    if kind == "router":
        yield _factory()
    elif kind == "inline":
        yield ShardedRouter(nshards=3, factory=_factory)
    elif kind == "mp":
        with ShardedRouter(nshards=2, factory=_factory, backend="mp") as sharded:
            yield sharded
    else:
        yield _topology()


def _routers(owner):
    """Every plain Router behind an in-process owner."""
    if isinstance(owner, Topology):
        return [r for node in owner.nodes.values()
                for r in Topology._node_routers(node)]
    if isinstance(owner, ShardedRouter):
        return owner.shards
    return [owner]


def _manager(owner):
    lines = []
    return PluginManager(owner, output=lines.append), lines


def _is_mp(owner) -> bool:
    return getattr(owner, "_pool", None) is not None


def test_library_for_each_owner_kind():
    assert type(PluginManager(_factory()).library) is RouterPluginLibrary
    sharded = PluginManager(ShardedRouter(nshards=2, factory=_factory)).library
    assert isinstance(sharded, FanoutLibrary)
    assert all(type(lib) is RouterPluginLibrary for lib in sharded.libraries)
    topo = PluginManager(_topology()).library
    plain, nested = topo.libraries
    assert type(plain) is RouterPluginLibrary
    assert isinstance(nested, FanoutLibrary) and len(nested.libraries) == 2


def test_node_keyword_refused_on_shards():
    sharded = ShardedRouter(nshards=2, factory=_factory)
    library = PluginManager(sharded).library
    with pytest.raises(ConfigurationError, match="identically configured"):
        library.modload("stats", node="0")
    assert not any(r.pcu.is_loaded("stats") for r in sharded.shards)


def test_mroute_fans_out(owner):
    manager, lines = _manager(owner)
    manager.run_command("mroute 232.1.1.1 down1,down2")
    assert lines == ["mroute (*, 232.1.1.1) -> ['down1', 'down2']"]
    packets = [
        make_udp(f"10.0.{i}.1", "232.1.1.1", 5000 + i, 9000, iif="up0")
        for i in range(8)
    ]
    if _is_mp(owner):
        dispositions = owner.receive_wire([encode_packet(p) for p in packets])
        assert dispositions == ["forwarded"] * 8
        assert owner.health()["counters"]["multicast_replicated"] == 16
        return
    for router in _routers(owner):
        assert router.multicast_table.lookup(
            packets[0].src, packets[0].dst) is not None, router.name


def test_msg_resolves_instance_in_every_target(owner):
    manager, lines = _manager(owner)
    manager.run_script("modload stats\ncreate stats s0")
    manager.run_command("msg stats set_collector instance=s0 collector=sizes")
    assert lines[-1].startswith("msg set_collector -> ")
    if not _is_mp(owner):
        for router in _routers(owner):
            (instance,) = router.pcu.get("stats").instances
            assert instance.collector_name == "sizes", router.name
    with pytest.raises(ConfigurationError, match="nope"):
        manager.run_command("msg stats report instance=nope")


@pytest.mark.parametrize("command,subject", [
    ("telemetry", "telemetry"),
    ("overload", "overload governor"),
])
def test_status_reports_the_merged_query(owner, command, subject):
    manager, lines = _manager(owner)
    manager.run_command(f"{command} status")
    assert lines[-1] == f"{subject} disabled"
    manager.run_command(f"{command} on")
    manager.run_command(f"{command} status")
    expect = f"{subject} enabled"
    if command == "overload":
        expect += " tier=normal"
    assert lines[-1] == expect
    manager.run_command(f"{command} off")
    manager.run_command(f"{command} status")
    assert lines[-1] == f"{subject} disabled"


def test_shard_rows_are_numbered_per_shard(owner):
    rows = PluginManager(owner).library.query("shards")["shards"]
    expected = {
        Router: [0],
        ShardedRouter: list(range(getattr(owner, "nshards", 0))),
        Topology: ["a/0", "b/0", "b/1"],
    }[type(owner)]
    assert [row["shard"] for row in rows] == expected


def test_topology_topic_answers_on_every_owner(owner):
    """``show topology`` on a lone router or a sharded one is the
    one-node view; the mp front end holds no shards, so its view comes
    from the workers."""
    manager, lines = _manager(owner)
    data = manager.library.query("topology")
    manager.run_command("show topology")
    assert lines[0].startswith(f"topology {data['name']} ")
    if isinstance(owner, Topology):
        assert [n["name"] for n in data["nodes"]] == ["a", "b"]
        return
    (node,) = data["nodes"]
    assert node["interfaces"] == ["down1", "down2", "up0"]
    assert node["quarantined"] == []
    if isinstance(owner, ShardedRouter):
        assert (node["kind"], node["nshards"]) == ("sharded", owner.nshards)
    else:
        assert (node["kind"], node["nshards"]) == ("router", 1)
