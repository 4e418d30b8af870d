"""Differential tests for the compiled batch pipeline (repro.core.batch).

``receive_batch`` is semantically a loop over ``receive``; these tests
drive the same seeded traffic through both entry points on twin routers
and assert packet-for-packet identical dispositions plus identical
counters, flow-table statistics, filter-lookup counts, telemetry cells,
plugin call order, and fault/quarantine behavior — across router
configurations (no active pre gate, active pre gates over unbounded and
bounded flow tables, telemetry, schedulers) that all compile the one
scalar-ordered loop shape, and for the scalar fallback configs the
compiler refuses.
"""

import random

import pytest

from repro.core import (
    DEGRADE_BYPASS,
    FaultPolicy,
    GATE_IP_OPTIONS,
    GATE_IP_SECURITY,
    Plugin,
    PluginInstance,
    Router,
    TYPE_IP_SECURITY,
    Verdict,
)
from repro.core.batch import loop_for
from repro.core.gates import DEFAULT_GATES, GATE_PACKET_SCHEDULING
from repro.net.packet import make_udp
from repro.sched.drr import DrrPlugin
from repro.sim.cost import CycleMeter


def _build(name, **kwargs):
    router = Router(name=name, gates=DEFAULT_GATES, **kwargs)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    return router


class _PortFilter(PluginInstance):
    def process(self, packet, ctx):
        self.packets_processed += 1
        if packet.dst_port == 7777:
            return Verdict.DROP
        return Verdict.CONTINUE


class _PortFilterPlugin(Plugin):
    plugin_type = TYPE_IP_SECURITY
    name = "port-filter"
    instance_class = _PortFilter


class _NthFaulter(PluginInstance):
    """Raises on every n-th call — mid-batch, by construction."""

    def __init__(self, plugin, every=5, **config):
        super().__init__(plugin, **config)
        self.every = every
        self.calls = 0

    def process(self, packet, ctx):
        self.calls += 1
        if self.calls % self.every == 0:
            raise RuntimeError(f"fault at call {self.calls}")
        return Verdict.CONTINUE


class _FaultyPlugin(Plugin):
    plugin_type = TYPE_IP_SECURITY
    name = "faulty-batch"
    instance_class = _NthFaulter


def _bind(router, plugin_cls, gate=GATE_IP_SECURITY, spec="*, *, UDP", **config):
    plugin = plugin_cls()
    router.pcu.load(plugin)
    instance = plugin.create_instance(**config)
    plugin.register_instance(instance, spec, gate=gate)
    return instance


def _mixed_workload(seed=42, count=80):
    """Hits, misses, TTL expiry, no-route, plugin drops — shuffled."""
    packets = []
    for i in range(count // 4):
        for _ in range(3):
            packets.append(
                make_udp("10.0.0.1", f"20.0.1.{i % 9 + 1}", 5000 + i, 9000, iif="atm0")
            )
    for i in range(count // 8):
        packets.append(make_udp("10.0.2.1", "20.0.2.1", 6000 + i, 9000, iif="atm0"))
        packets.append(make_udp("10.0.3.1", "20.0.3.1", 7000 + i, 9000, iif="atm0", ttl=1))
        packets.append(make_udp("10.0.4.1", "30.0.0.1", 7100 + i, 9000, iif="atm0"))
        packets.append(make_udp("10.0.5.1", "20.0.5.1", 7200 + i, 7777, iif="atm0"))
    random.Random(seed).shuffle(packets)
    return packets


def _state(router):
    state = {
        "counters": dict(router.counters),
        "flow_stats": router.aiu.flow_table.stats(),
        "filter_lookups": router.aiu.filter_lookups,
        "tx": {
            name: (iface.tx_packets, iface.tx_bytes)
            for name, iface in router.interfaces.items()
        },
    }
    if router._tm_gate_cells is not None:
        state["gate_cells"] = list(router._tm_gate_cells)
        state["size_counts"] = list(router.aiu._tm_size_counts)
    return state


def _run_differential(make_router, workload=None, chunk=7, now_step=0.0):
    """Same traffic scalar vs batched; returns the batched router."""
    scalar = make_router("scalar")
    batched = make_router("batched")
    packets = workload or _mixed_workload()
    expected = []
    for i, p in enumerate(packets):
        expected.append(scalar.receive(p, now=i * now_step))
    replay = workload or _mixed_workload()
    got = []
    for start in range(0, len(replay), chunk):
        got.extend(
            batched.receive_batch(replay[start:start + chunk], now=start * now_step)
        )
    # With now_step > 0 the scalar/batch clocks intentionally differ
    # inside a chunk; only use it for workloads whose outcome is
    # time-invariant.
    assert got == expected
    assert _state(batched) == _state(scalar)
    return batched


# ----------------------------------------------------------------------
# Configuration coverage
# ----------------------------------------------------------------------
def test_single_shape_matches_scalar():
    """No active pre-routing gate: classify straight into the tail."""
    router = _run_differential(lambda n: _build(n))
    plans = [loop._plan for loop in router._batch_loops.values()]
    assert plans and all(not p["pre"] for p in plans)


def test_lanes_shape_matches_scalar():
    """An active pre-routing gate over an unbounded flow table."""
    def make(name):
        router = _build(name)
        _bind(router, _PortFilterPlugin)
        return router

    router = _run_differential(make)
    plans = [loop._plan for loop in router._batch_loops.values()]
    assert plans and all(p["pre"] and not p["bounded"] for p in plans)


@pytest.mark.parametrize("policy", ["lru", "clock"])
def test_fused_shape_bounded_table_matches_scalar(policy):
    """A capped flow table: in-batch evictions interleave with packet
    processing exactly as scalar order demands."""
    def make(name):
        router = _build(name, max_flows=8, flow_eviction=policy)
        _bind(router, _PortFilterPlugin)
        return router

    router = _run_differential(make)
    plans = [loop._plan for loop in router._batch_loops.values()]
    assert plans and all(p["bounded"] for p in plans)


class _Recorder(PluginInstance):
    """Appends ``(gate, packet)`` to a log shared across instances."""

    def __init__(self, plugin, log=None, **config):
        super().__init__(plugin, **config)
        self.log = log

    def process(self, packet, ctx):
        self.log.append((ctx.gate, id(packet)))
        return Verdict.CONTINUE


class _RecorderPlugin(Plugin):
    plugin_type = TYPE_IP_SECURITY
    name = "recorder"
    instance_class = _Recorder


def test_cross_gate_call_order_matches_scalar():
    """Two plugins at two pre-routing gates over an unbounded flow
    table: the batch calls them in exactly the scalar ``(gate, packet)``
    order — each packet runs every gate before the next packet starts."""
    def calls(receive_all):
        router = _build("order")
        log = []
        plugin = _RecorderPlugin()
        router.pcu.load(plugin)
        for gate in (GATE_IP_SECURITY, GATE_IP_OPTIONS):
            instance = plugin.create_instance(log=log)
            plugin.register_instance(instance, "*, *, UDP", gate=gate)
        packets = _mixed_workload()
        receive_all(router, packets)
        position = {id(p): i for i, p in enumerate(packets)}
        return [(gate, position[pid]) for gate, pid in log]

    def scalar(router, packets):
        for p in packets:
            router.receive(p)

    def batched(router, packets):
        for start in range(0, len(packets), 16):
            router.receive_batch(packets[start:start + 16])

    expected = calls(scalar)
    assert {gate for gate, _ in expected} == {GATE_IP_SECURITY, GATE_IP_OPTIONS}
    assert calls(batched) == expected


def test_telemetry_cells_and_histogram_match_scalar():
    def make(name):
        router = _build(name)
        router.attach_telemetry()
        _bind(router, _PortFilterPlugin)
        return router

    _run_differential(make)


def test_uneven_chunks_and_chunk_of_one():
    for chunk in (1, 3, 64):
        _run_differential(lambda n: _build(n), chunk=chunk)


def test_metered_batch_takes_the_specification_path():
    """A real meter forces per-packet receive(); dispositions and the
    modelled cycle totals must match the scalar metered run."""
    scalar = _build("scalar-metered")
    batched = _build("batched-metered")
    _bind(scalar, _PortFilterPlugin)
    _bind(batched, _PortFilterPlugin)
    scalar_meter = CycleMeter()
    batch_meter = CycleMeter()
    expected = [scalar.receive(p, cycles=scalar_meter) for p in _mixed_workload()]
    got = batched.receive_batch(_mixed_workload(), cycles=batch_meter)
    assert got == expected
    assert batch_meter.total == scalar_meter.total
    assert _state(batched) == _state(scalar)


def test_scalar_fallback_configs_still_match():
    """Configs the compiler refuses (flow cache off) fall back to the
    per-packet fast path with identical results."""
    def make(name):
        router = _build(name, use_flow_cache=False)
        _bind(router, _PortFilterPlugin)
        return router

    router = _run_differential(make)
    assert not router._batch_loops
    assert loop_for(router) is None


# ----------------------------------------------------------------------
# Parse-once contract on the data path
# ----------------------------------------------------------------------
def test_batch_folds_each_five_tuple_exactly_once():
    """Fresh packets cost one five-tuple derivation each; wire packets
    pre-warmed by Packet.parse() cost zero on either entry point."""
    from repro.net.packet import PARSE_STATS, Packet

    scalar = _build("scalar-parse")
    batched = _build("batched-parse")
    _bind(scalar, _PortFilterPlugin)
    _bind(batched, _PortFilterPlugin)

    fresh = _mixed_workload(count=40)
    before = PARSE_STATS.tuple_derivations
    batched.receive_batch(fresh)
    assert PARSE_STATS.tuple_derivations == before + len(fresh)

    warmed = [
        Packet.parse(p.serialize(), iif="atm0") for p in _mixed_workload(count=40)
    ]
    warmed_twin = [
        Packet.parse(p.serialize(), iif="atm0") for p in _mixed_workload(count=40)
    ]
    before = PARSE_STATS.tuple_derivations
    expected = [scalar.receive(p) for p in warmed]
    got = batched.receive_batch(warmed_twin)
    # Parse already derived the folds; neither data path re-derives.
    assert PARSE_STATS.tuple_derivations == before
    assert got == expected


# ----------------------------------------------------------------------
# Plan/epoch invalidation
# ----------------------------------------------------------------------
def test_filter_install_between_batches_recompiles_the_loop():
    scalar = _build("scalar-epoch")
    batched = _build("batched-epoch")

    expected = [scalar.receive(p) for p in _mixed_workload(seed=1, count=40)]
    got = batched.receive_batch(_mixed_workload(seed=1, count=40))
    keys_before = set(batched._batch_loops)

    _bind(scalar, _PortFilterPlugin)
    _bind(batched, _PortFilterPlugin)

    expected += [scalar.receive(p) for p in _mixed_workload(seed=2, count=40)]
    got += batched.receive_batch(_mixed_workload(seed=2, count=40))

    assert got == expected
    assert _state(batched) == _state(scalar)
    # The first filter activates ip_security — a new loop shape — so a
    # fresh loop compiled instead of reusing the no-pre-gate one.
    assert set(batched._batch_loops) - keys_before
    assert batched.loop_compiles == 2


def test_same_shape_filter_churn_reuses_the_loop():
    """Reservation-style churn: a /32 filter installed (and every other
    step removed again) at an already active gate between batches.  The
    shape never changes, so one loop object serves every batch — and
    the batches stay packet-for-packet equal to scalar receive(), so the
    reused loop never serves a stale binding."""
    scalar = _build("scalar-churn")
    batched = _build("batched-churn")
    instances = {
        scalar: _bind(scalar, _PortFilterPlugin),
        batched: _bind(batched, _PortFilterPlugin),
    }
    expected, got = [], []
    first_loop = None
    for step in range(6):
        for router, instance in instances.items():
            record = instance.plugin.register_instance(
                instance, f"10.0.{step}.1/32, *, UDP"
            )
            if step % 2:
                assert instance.plugin.deregister_instance(instance, record)
        expected += [
            scalar.receive(p) for p in _mixed_workload(seed=step, count=40)
        ]
        replay = _mixed_workload(seed=step, count=40)
        for start in range(0, len(replay), 8):
            got += batched.receive_batch(replay[start:start + 8])
        (loop,) = batched._batch_loops.values()
        first_loop = first_loop or loop
        assert loop is first_loop
    assert batched.loop_compiles == 1
    assert got == expected
    assert _state(batched) == _state(scalar)


# ----------------------------------------------------------------------
# Fault / quarantine equivalence (faults mapped inline, mid-batch)
# ----------------------------------------------------------------------
_POLICIES = [
    FaultPolicy(threshold=1000, window=1.0),                       # capture only
    FaultPolicy(threshold=1, window=5.0, action="drop", cooldown=10.0),
    FaultPolicy(threshold=2, window=5.0, action=DEGRADE_BYPASS, cooldown=10.0),
]


def _fault_state(router):
    state = _state(router)
    state["health"] = router.faults.health()
    return state


# Ids (kept stable): "lanes" is an unbounded flow table, "fused" a
# bounded one.  Both compile the same loop shape.
@pytest.mark.parametrize("policy", _POLICIES, ids=["capture", "trip1", "bypass2"])
@pytest.mark.parametrize("bounded", [False, True], ids=["lanes", "fused"])
def test_mid_batch_fault_splits_match_scalar(policy, bounded):
    """A plugin fault mid-batch: earlier packets finished first, the
    faulter takes the fault verdict, later packets observe any freshly
    tripped quarantine — identically to the scalar order."""
    def make(name):
        kwargs = {"max_flows": 16} if bounded else {}
        router = _build(name, **kwargs)
        _bind(router, _FaultyPlugin, every=5)
        router.faults.set_policy("faulty-batch", policy)
        return router

    _run_differential(make, chunk=8)


@pytest.mark.parametrize("bounded", [False, True], ids=["lanes", "fused"])
def test_fault_at_two_gates_same_instance_matches_scalar(bounded):
    """One instance bound at two pre-routing gates, faulting mid-batch:
    the fault verdict applies at the faulting gate and the packet does
    not re-run it.  Every loop preserves scalar call order, so the
    call-counting faulter must agree call for call."""
    def make(name):
        kwargs = {"max_flows": 16} if bounded else {}
        router = _build(name, **kwargs)
        plugin = _FaultyPlugin()
        router.pcu.load(plugin)
        instance = plugin.create_instance(every=7)
        plugin.register_instance(instance, "*, *, UDP", gate=GATE_IP_OPTIONS)
        plugin.register_instance(instance, "*, *, UDP", gate=GATE_IP_SECURITY)
        router.faults.set_policy(
            plugin.name,
            FaultPolicy(threshold=2, window=5.0, action="drop", cooldown=10.0),
        )
        return router

    _run_differential(make, chunk=8)


@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
def test_fault_ring_order_with_several_faults_per_batch(bounded):
    """Several faults inside one batch, at two gates: the fault ring
    holds the same records, in the same sequence order, as scalar."""
    routers = []

    def make(name):
        kwargs = {"max_flows": 16} if bounded else {}
        router = _build(name, **kwargs)
        plugin = _FaultyPlugin()
        router.pcu.load(plugin)
        instance = plugin.create_instance(every=3)
        plugin.register_instance(instance, "*, *, UDP", gate=GATE_IP_OPTIONS)
        plugin.register_instance(instance, "*, *, UDP", gate=GATE_IP_SECURITY)
        router.faults.set_policy(plugin.name, FaultPolicy(threshold=1000, window=1.0))
        routers.append(router)
        return router

    _run_differential(make, chunk=16)
    scalar, batched = routers
    expected = [r.signature() for r in scalar.faults.records()]
    assert len(expected) > 16  # several faults per 16-packet batch
    assert [r.signature() for r in batched.faults.records()] == expected


class _SchedFaulter(PluginInstance):
    """A pre-gate filter that is also its interface's bound scheduler,
    faulting on every n-th scheduler call."""

    def __init__(self, plugin, every=4, **config):
        super().__init__(plugin, **config)
        self.every = every
        self.sched_calls = 0

    def process(self, packet, ctx):
        if ctx.gate == GATE_PACKET_SCHEDULING:
            self.sched_calls += 1
            if self.sched_calls % self.every == 0:
                raise RuntimeError(f"scheduler fault {self.sched_calls}")
        return Verdict.CONTINUE


class _SchedFaultyPlugin(Plugin):
    plugin_type = TYPE_IP_SECURITY
    name = "sched-faulty"
    instance_class = _SchedFaulter


@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
def test_scheduler_fault_quarantine_intercepts_rest_of_batch(bounded):
    """A bound scheduler faults mid-batch and trips a quarantine: the
    later packets of the *same* batch are intercepted at the pre gate
    where the same instance is bound, exactly as scalar order has it."""
    def make(name):
        kwargs = {"max_flows": 16} if bounded else {}
        router = _build(name, **kwargs)
        instance = _bind(router, _SchedFaultyPlugin)
        router.set_scheduler("atm1", instance)
        router.faults.set_policy(
            "sched-faulty",
            FaultPolicy(threshold=1, window=5.0, action="drop", cooldown=10.0),
        )
        return router

    batched = _run_differential(make, chunk=80)
    assert batched.counters["plugin_quarantines"] == 1
    assert batched.faults.health()["sched-faulty"]["dropped_while_quarantined"] > 0


# ----------------------------------------------------------------------
# Scheduler path
# ----------------------------------------------------------------------
def test_drr_scheduler_queued_dispositions_match_scalar():
    def make(name):
        router = _build(name)
        plugin = DrrPlugin()
        router.pcu.load(plugin)
        instance = plugin.create_instance(interface="atm1", quantum=4096)
        plugin.register_instance(instance, "*, *, UDP", gate=GATE_PACKET_SCHEDULING)
        router.set_scheduler("atm1", instance)
        return router

    batched = _run_differential(make)
    assert batched.counters.get("queued", 0) > 0


# ----------------------------------------------------------------------
# The batch-start hook
# ----------------------------------------------------------------------
class _HookedFilter(PluginInstance):
    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.batch_calls = []

    def on_batch_start(self, now, batch_size):
        self.batch_calls.append((now, batch_size))

    def process(self, packet, ctx):
        self.packets_processed += 1
        return Verdict.CONTINUE


class _HookedPlugin(Plugin):
    plugin_type = TYPE_IP_SECURITY
    name = "hooked"
    instance_class = _HookedFilter


def test_on_batch_start_called_once_per_batch():
    router = _build("hooked")
    instance = _bind(router, _HookedPlugin)
    packets = _mixed_workload(count=40)
    sizes = []
    for start in range(0, len(packets), 9):
        chunk = packets[start:start + 9]
        router.receive_batch(chunk, now=1.5)
        sizes.append(len(chunk))
    assert instance.batch_calls == [(1.5, size) for size in sizes]


def test_on_batch_start_must_not_change_behavior():
    """The hook contract: scalar receive() never calls the hook, so a
    hook-bearing plugin must produce identical dispositions and state on
    both paths — the hook only hoists invariants."""
    batched = _run_differential(
        lambda n: (_bind(r := _build(n), _HookedPlugin), r)[1]
    )
    # The scalar twin never ran the hook; the batched one did, and the
    # differential still held.
    hooked = next(iter(batched._batch_loops.values()))._plan["hooks"]
    assert hooked  # the compiled loop discovered the hook


def test_batch_hooks_follow_bindings_without_recompiling():
    """Hooks are read from the router at call time: a hooked instance
    bound after the loop compiled is called from the next batch on, an
    unbound one stops being called, and only the first hook (none ->
    some is a shape change) compiles a loop."""
    router = _build("hook-fresh")
    _bind(router, _PortFilterPlugin)
    workload = iter(range(100))

    def batch(now):
        packets = _mixed_workload(seed=next(workload), count=8)
        router.receive_batch(packets, now=now)
        return len(packets)

    batch(0.0)
    assert router.loop_compiles == 1
    plugin = _HookedPlugin()
    router.pcu.load(plugin)
    first = plugin.create_instance()
    second = plugin.create_instance()
    record = plugin.register_instance(first, "10.0.9.1/32, *, UDP")
    size = batch(1.0)
    assert first.batch_calls == [(1.0, size)]
    assert router.loop_compiles == 2
    loop = loop_for(router)
    plugin.register_instance(second, "10.0.9.2/32, *, UDP")
    batch(2.0)
    assert first.batch_calls[-1] == second.batch_calls[-1] == (2.0, size)
    assert plugin.deregister_instance(first, record)
    batch(3.0)
    assert [now for now, _ in first.batch_calls] == [1.0, 2.0]
    assert [now for now, _ in second.batch_calls] == [2.0, 3.0]
    assert loop_for(router) is loop
    assert router.loop_compiles == 2


def test_warmed_pipeline_passes_codegen_audit():
    """After real traffic warms the batch loop in each configuration (no
    active pre gate, an active pre gate over an unbounded flow table,
    the same over a bounded one) plus the compiled filter tables and
    routing engines, the RP5xx exec-codegen audit must report zero
    findings — the emitter's live output is the fixture."""
    from repro.analysis import audit_router_codegen

    configs = {
        "no-pre-gate": ({}, False),
        "pre-gate": ({}, True),
        "pre-gate-bounded": ({"max_flows": 64}, True),
    }
    workload = _mixed_workload()
    for label, (kwargs, with_filter) in configs.items():
        router = _build(f"audit-{label}", **kwargs)
        if with_filter:
            _bind(router, _PortFilterPlugin)
        for start in range(0, len(workload), 7):
            router.receive_batch(workload[start:start + 7])
        assert router._batch_loops, label
        assert audit_router_codegen(router) == [], label


# ----------------------------------------------------------------------
# The stamped loop shape: each packet at its own arrival clock
# ----------------------------------------------------------------------
def _with_filter(router):
    _bind(router, _PortFilterPlugin)
    return router


def _local_sched(name):
    router = Router(name=name, gates=DEFAULT_GATES)
    router.add_interface("atm0", address="10.0.0.254", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    plugin = DrrPlugin()
    router.pcu.load(plugin)
    instance = plugin.create_instance(interface="atm1", quantum=4096)
    plugin.register_instance(instance, "*, *, UDP", gate=GATE_PACKET_SCHEDULING)
    router.set_scheduler("atm1", instance)
    return _with_filter(router)


def _l4_routing(name):
    from repro.core import GATE_ROUTING, GATES_WITH_L4_ROUTING
    from repro.core.routing_plugin import L4RoutingPlugin

    router = Router(name=name, gates=GATES_WITH_L4_ROUTING)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    router.add_interface("atm2")
    plugin = L4RoutingPlugin()
    router.pcu.load(plugin)
    instance = plugin.create_instance(action="forward", interface="atm2")
    plugin.register_instance(instance, "*, 20.0.1.1, UDP", gate=GATE_ROUTING)
    return _with_filter(router)


def _telemetry(name):
    router = _with_filter(_build(name))
    router.attach_telemetry()
    return router


#: Router configurations whose loop sources are pinned below: every
#: emitter branch (no active pre gate, pre gates, both eviction
#: policies over a bounded table, telemetry, local addresses, the
#: scheduling and routing gates, batch hooks).
_LOOP_CONFIGS = {
    "no-pre-gate": _build,
    "pre-gate": lambda n: _with_filter(_build(n)),
    "bounded-lru": lambda n: _with_filter(_build(n, max_flows=16)),
    "bounded-clock": lambda n: _with_filter(
        _build(n, max_flows=16, flow_eviction="clock")),
    "telemetry": _telemetry,
    "local-sched": _local_sched,
    "l4-routing": _l4_routing,
    "hooks": lambda n: (_bind(r := _build(n), _HookedPlugin), r)[1],
}

#: sha256 of each configuration's unstamped loop source, as emitted
#: before the stamped shape existed: adding the stamped bit must leave
#: every ``receive_batch(packets, now)`` caller on the very same code.
_UNSTAMPED_SOURCE_SHA256 = {
    "bounded-clock": "a16e7b47bac052de4a2a9145584e99b28e16770c2d521a303dfad56e181b184e",
    "bounded-lru": "cab03492c48830da0cb6e91a0b82e3374388c2cbadcfcea6049e7dab8dfdbbd0",
    "hooks": "94a998b6ad5c82bb146bdbc59619ba7d5d0a9d734a3fdf084583046fe2511c29",
    "l4-routing": "2048714e51030bbe8f80a349efbe3a1aaac2df7e1d63ff335c1ba1575777250b",
    "local-sched": "586330bdc2fdae6d852677cb2c0c0e97d13f19edda1004bcdc3ead73a0e57e7a",
    "no-pre-gate": "c1a17cbb38c77d2e7a33d97a40dafa3f890b4dbad57642838c3ef435609636b1",
    "pre-gate": "432655fd6157115ef3220bdfe61bc8bb7a146d1aafd3c87b9ca5d513cc54dac8",
    "telemetry": "0a6eb6c791d39be7230e4b5b28cdf9deab0e5bf6534a06b14dfc7ebe8da65cf0",
}


def _loop_source(make, name, stamped):
    router = make(name)
    router.receive_batch(_mixed_workload(count=16), now=None if stamped else 0.0)
    return loop_for(router, stamped)._source


@pytest.mark.parametrize("config", sorted(_LOOP_CONFIGS))
def test_unstamped_loop_source_is_unchanged(config):
    import hashlib

    source = _loop_source(_LOOP_CONFIGS[config], config, stamped=False)
    digest = hashlib.sha256(source.encode()).hexdigest()
    assert digest == _UNSTAMPED_SOURCE_SHA256[config]
    assert "arrival_time" not in source


@pytest.mark.parametrize("config", sorted(_LOOP_CONFIGS))
def test_stamped_loop_differs_only_by_clock_lines(config):
    from repro.analysis.codegen_audit import audit_clock_diff

    make = _LOOP_CONFIGS[config]
    stamped = _loop_source(make, config, stamped=True)
    unstamped = _loop_source(make, config, stamped=False)
    assert stamped != unstamped
    assert "now = packet.arrival_time" in stamped
    assert audit_clock_diff(stamped, unstamped) == []


def _stamped_workload(seed=42, count=80):
    """The mixed workload with strictly non-decreasing, irregular
    arrival times: back-to-back packets, microsecond gaps, and gaps
    longer than the fault windows and quarantine cooldowns below."""
    packets = _mixed_workload(seed=seed, count=count)
    rng = random.Random(seed)
    at = 0.0
    for packet in packets:
        at += rng.choice((0.0, 1e-6, 3e-3, 0.4, 2.5))
        packet.arrival_time = at
    return packets


def _clock_state(router, packets):
    """The per-packet clock's footprint: every flow record's timestamps
    and counts, interface pacing, departures, and fault domains."""
    flows = sorted(
        (record.key.src, record.key.dst, record.key.sport, record.created,
         record.last_used, record.packets, record.bytes)
        for record in router.aiu.flow_table
    )
    return {
        **_fault_state(router),
        "flows": flows,
        "next_free": {n: i._next_free for n, i in router.interfaces.items()},
        "departures": [p.departure_time for p in packets],
    }


def _run_stamped_differential(make, chunk=16, seed=42):
    """``receive_batch(chunk, now=None)`` against ``receive(p,
    now=p.arrival_time)`` per packet, on twin routers."""
    scalar = make("scalar")
    batched = make("batched")
    expected_packets = _stamped_workload(seed)
    expected = [scalar.receive(p, now=p.arrival_time) for p in expected_packets]
    packets = _stamped_workload(seed)
    got = []
    for start in range(0, len(packets), chunk):
        got.extend(batched.receive_batch(packets[start:start + chunk], now=None))
    assert got == expected
    assert _clock_state(batched, packets) == _clock_state(scalar, expected_packets)
    return scalar, batched


@pytest.mark.parametrize("config", sorted(_LOOP_CONFIGS))
def test_stamped_loop_matches_scalar_at_arrival_clocks(config):
    _, batched = _run_stamped_differential(_LOOP_CONFIGS[config])
    assert [key[-1] for key in batched._batch_loops] == [True]


@pytest.mark.parametrize("policy", _POLICIES, ids=["capture", "trip1", "bypass2"])
@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
def test_stamped_loop_faults_and_quarantine_follow_arrival_clocks(policy, bounded):
    """Fault windows, quarantine cooldowns and half-open probes run on
    each packet's own clock: a stamped batch spanning a cooldown must
    reinstate (or keep intercepting) exactly where the scalar walk
    does."""
    def make(name):
        kwargs = {"max_flows": 16} if bounded else {}
        router = _build(name, **kwargs)
        _bind(router, _FaultyPlugin, every=5)
        router.faults.set_policy("faulty-batch", policy)
        return router

    scalar, _ = _run_stamped_differential(make, chunk=32)
    assert scalar.faults.records()


def test_stamped_loop_on_a_quarantined_plugin_probes_on_arrival_clocks():
    """A plugin quarantined before traffic starts: packets before the
    cooldown are intercepted, the first one after it probes — decided
    by that packet's arrival time, not the batch's."""
    def make(name):
        router = _build(name)
        _bind(router, _PortFilterPlugin)
        router.faults.set_policy(
            "port-filter",
            FaultPolicy(threshold=1, window=1.0, action="drop", cooldown=3.0),
        )
        router.faults.quarantine("port-filter", now=0.0)
        return router

    scalar, _ = _run_stamped_differential(make, chunk=80)
    health = scalar.faults.health()["port-filter"]
    assert health["dropped_while_quarantined"] > 0
    assert health["state"] != "quarantined"


class _ClockGate(PluginInstance):
    """Drops packets seen in odd seconds of ``ctx.now`` and logs the
    clock of every call: any packet run at the wrong clock shows."""

    def __init__(self, plugin, log=None, **config):
        super().__init__(plugin, **config)
        self.log = [] if log is None else log

    def process(self, packet, ctx):
        self.log.append((ctx.gate, ctx.now))
        return Verdict.DROP if int(ctx.now) % 2 else Verdict.CONTINUE


class _ClockGatePlugin(Plugin):
    plugin_type = TYPE_IP_SECURITY
    name = "clock-gate"
    instance_class = _ClockGate


@pytest.mark.parametrize("gate", [GATE_IP_OPTIONS, GATE_PACKET_SCHEDULING])
def test_stamped_plugin_calls_see_each_packets_clock(gate):
    instances = []

    def make(name):
        router = _with_filter(_build(name))
        instances.append(_bind(router, _ClockGatePlugin, gate=gate))
        return router

    _run_stamped_differential(make)
    scalar, batched = instances
    assert batched.log == scalar.log
    assert len({now for _, now in scalar.log}) > 10


def test_stamped_batch_with_a_governor_samples_per_packet():
    """With an overload governor attached a stamped batch is the scalar
    walk itself, so the governor samples at each packet's clock."""
    def make(name):
        router = _with_filter(_build(name, max_flows=16))
        router.attach_overload_governor(sample_interval=4)
        return router

    _, batched = _run_stamped_differential(make)
    assert batched.loop_compiles == 0


def test_stamped_hooks_see_the_first_arrival():
    router = _build("hooked-stamped")
    instance = _bind(router, _HookedPlugin)
    packets = _stamped_workload(count=24)
    router.receive_batch(packets[:8], now=None)
    router.receive_batch(packets[8:], now=None)
    assert instance.batch_calls == [
        (packets[0].arrival_time, 8),
        (packets[8].arrival_time, len(packets) - 8),
    ]
