"""Exec-codegen audit unit tests: each RP5xx code fires on a planted
corruption of generated source / exec namespace / plan key / compiled
lookup structure, and a genuinely warmed router audits clean (so the
codes can gate CI without false positives)."""

import pytest

from repro.aiu.dag import _C_PREFIX, DagFilterTable
from repro.aiu.matchers import AmbiguousFilterError
from repro.aiu.records import FilterRecord
from repro.analysis import (
    analyze_router,
    audit_dag_table,
    audit_engine,
    audit_loop,
    audit_loop_source,
    audit_router_codegen,
)
from repro.analysis.codegen_audit import audit_clock_diff, audit_stamped_twin
from repro.bmp import make_engine
from repro.core.gates import DEFAULT_GATES, GATE_IP_SECURITY
from repro.core.plugin import Plugin, PluginInstance, TYPE_IP_SECURITY, Verdict
from repro.core.router import Router
from repro.mgr.library import RouterPluginLibrary
from repro.net.addresses import IPV4_WIDTH
from repro.net.packet import make_udp
from repro.workloads.filtersets import random_filters

# A minimal well-formed "generated" loop: free names resolved by the
# namespace, a fault handler that classifies through on_fault.
CLEAN_SOURCE = '''\
def _batch_loop(packets, now):
    out = []
    for packet in packets:
        try:
            out.append(classify(packet, now))
        except Exception as exc:
            out.append(on_fault(exc))
    return out
'''

NAMESPACE = {"classify": lambda p, n: "forward", "on_fault": lambda e: "drop"}


def _codes(diagnostics):
    return sorted(d.code for d in diagnostics)


# ----------------------------------------------------------------------
# RP501 / RP502 — free-name discipline
# ----------------------------------------------------------------------
def test_clean_source_audits_clean():
    assert audit_loop_source(CLEAN_SOURCE, NAMESPACE) == []


def test_rp501_unresolved_free_name():
    namespace = {"on_fault": NAMESPACE["on_fault"]}  # no classify
    findings = audit_loop_source(CLEAN_SOURCE, namespace)
    assert _codes(findings) == ["RP501"]
    assert "'classify'" in findings[0].message
    assert findings[0].line is not None


def test_rp502_nondeterministic_builtin():
    source = CLEAN_SOURCE.replace(
        "out.append(classify(packet, now))",
        "out.append(classify(packet, now) or hash(packet))",
    )
    findings = audit_loop_source(source, NAMESPACE)
    assert "RP502" in _codes(findings)
    assert any("'hash'" in d.message for d in findings)


def test_rp502_wins_over_rp501_for_forbidden_names():
    source = CLEAN_SOURCE.replace(
        "classify(packet, now)", "classify(packet, time())"
    )
    findings = audit_loop_source(source, NAMESPACE)
    assert _codes(findings) == ["RP502"]


# ----------------------------------------------------------------------
# RP503 — fault classification
# ----------------------------------------------------------------------
def test_rp503_no_handler_at_all():
    source = '''\
def _batch_loop(packets, now):
    return [classify(p, now) for p in packets]
'''
    findings = audit_loop_source(source, NAMESPACE)
    assert _codes(findings) == ["RP503"]
    assert "no fault handler" in findings[0].message


def test_rp503_swallowing_handler():
    source = CLEAN_SOURCE.replace("out.append(on_fault(exc))", "out.append(None)")
    findings = audit_loop_source(source, NAMESPACE)
    assert "RP503" in _codes(findings)
    assert any("neither classifies" in d.message for d in findings)


def test_rp503_reraise_is_accepted():
    source = CLEAN_SOURCE.replace("out.append(on_fault(exc))", "raise")
    assert audit_loop_source(source, NAMESPACE) == []


def test_rp503_on_fault_is_accepted():
    assert audit_loop_source(CLEAN_SOURCE, NAMESPACE) == []


def test_rp503_split_helper_is_not_accepted():
    """Resuming the batch through a helper instead of mapping the fault
    inline is no longer a fault-handling contract."""
    source = CLEAN_SOURCE.replace(
        "out.append(on_fault(exc))", "return _split_resume(packets, out, exc)"
    )
    namespace = dict(NAMESPACE, _split_resume=lambda *a: [])
    findings = audit_loop_source(source, namespace)
    assert _codes(findings) == ["RP503"]


# ----------------------------------------------------------------------
# RP504 — plan/source coherence
# ----------------------------------------------------------------------
def test_rp504_plan_field_missing_marker():
    plan = {"tm": True, "plain": True}
    findings = audit_loop_source(CLEAN_SOURCE, NAMESPACE, plan=plan)
    assert _codes(findings) == ["RP504"]
    assert "_tm_gate_cells" in findings[0].message


def test_rp504_marker_without_plan_field():
    source = CLEAN_SOURCE.replace(
        "out = []", "out = []\n    cells = _tm_gate_cells"
    )
    namespace = dict(NAMESPACE, _tm_gate_cells=())
    plan = {"plain": True}
    findings = audit_loop_source(source, namespace, plan=plan)
    assert _codes(findings) == ["RP504"]
    assert "clears" in findings[0].message


def test_rp504_loop_without_on_fault():
    """RP503 accepts a re-raising handler, but a compiled loop must
    still classify faults via on_fault somewhere."""
    source = CLEAN_SOURCE.replace("out.append(on_fault(exc))", "raise")
    plan = {"plain": True}
    findings = audit_loop_source(source, NAMESPACE, plan=plan)
    assert _codes(findings) == ["RP504"]
    assert "on_fault" in findings[0].message


def test_rp504_unreferenced_pre_gate():
    plan = {"plain": True, "pre": [("ip_security", None)]}
    findings = audit_loop_source(CLEAN_SOURCE, NAMESPACE, plan=plan)
    assert _codes(findings) == ["RP504"]
    assert "ip_security" in findings[0].message


def test_rp504_hooks_read_from_a_compile_time_snapshot():
    """Hooks change per plan epoch while the loop is cached per shape,
    so a loop that dispatches a namespace snapshot instead of reading
    ``router._batch_hooks`` at call time is flagged."""
    source = CLEAN_SOURCE.replace(
        "out = []", "out = []\n    for hook in HOOKS:\n        hook(now, 0)"
    )
    namespace = dict(NAMESPACE, HOOKS=())
    findings = audit_loop_source(
        source, namespace, plan={"plain": True, "hooks": True}
    )
    assert _codes(findings) == ["RP504"]
    assert "hooks" in findings[0].message


def test_rp504_stamped_plan_without_the_arrival_clock():
    findings = audit_loop_source(
        CLEAN_SOURCE, NAMESPACE, plan={"plain": True, "stamped": True}
    )
    assert _codes(findings) == ["RP504"]
    assert "arrival_time" in findings[0].message


def test_rp504_arrival_clock_in_an_unstamped_plan():
    source = CLEAN_SOURCE.replace(
        "    for packet in packets:\n",
        "    for packet in packets:\n        now = packet.arrival_time\n",
    )
    findings = audit_loop_source(source, NAMESPACE, plan={"plain": True})
    assert _codes(findings) == ["RP504"]
    assert "clears" in findings[0].message


def test_rp504_loop_without_source_attribute():
    def not_generated(packets, now):
        return []

    findings = audit_loop(not_generated)
    assert _codes(findings) == ["RP504"]
    assert "_source" in findings[0].message


# ----------------------------------------------------------------------
# RP506 — stamped and unstamped twins differ by the clock lines only
# ----------------------------------------------------------------------
def test_rp506_clock_lines_are_the_only_allowed_difference():
    stamped = CLEAN_SOURCE.replace(
        "    for packet in packets:\n",
        "    for packet in packets:\n        now = packet.arrival_time\n"
        "        ctx_1.now = now\n",
    )
    assert audit_clock_diff(stamped, CLEAN_SOURCE) == []


def test_rp506_flags_any_other_difference():
    stamped = CLEAN_SOURCE.replace(
        "    for packet in packets:\n",
        "    for packet in packets:\n        now = packet.arrival_time\n"
        "        now += 1\n",
    )
    findings = audit_clock_diff(stamped, CLEAN_SOURCE)
    assert _codes(findings) == ["RP506"]
    assert "now += 1" in findings[0].message


def test_rp506_a_warm_loop_and_its_twin_audit_clean():
    router = _warm_router("audit-twins", with_plugin=True)
    (fn,) = router._batch_loops.values()
    assert audit_stamped_twin(fn._source, fn._plan) == []


def test_rp506_flags_a_cached_stamped_loop_that_drifted():
    router = _warm_router("audit-drift", with_plugin=True)
    router.receive_batch(
        [make_udp("10.0.0.2", "20.0.1.2", 5001, 9001, iif="atm0")], now=None
    )
    (fn,) = [f for f in router._batch_loops.values() if f._plan["stamped"]]
    fn._source = fn._source.replace("fwd += 1", "fwd += 2")
    findings = audit_loop(fn)
    assert _codes(findings) == ["RP506"]
    assert "fwd += 2" in findings[0].message


def test_stamped_router_audits_clean():
    """A router that ran a stamped batch caches the stamped loop beside
    the unstamped one; both audit clean, RP506 included."""
    router = _warm_router("audit-stamped", with_plugin=True)
    router.receive_batch(
        [make_udp("10.0.0.2", "20.0.1.2", 5001, 9001, iif="atm0")], now=None
    )
    assert sorted(fn._plan["stamped"] for fn in router._batch_loops.values()) \
        == [False, True]
    assert audit_router_codegen(router) == []


# ----------------------------------------------------------------------
# RP505 — compiled lookup structures
# ----------------------------------------------------------------------
def _seeded_table():
    table = DagFilterTable(width=IPV4_WIDTH)
    for flt in random_filters(32, seed=3, host_fraction=0.3):
        try:
            table.install(FilterRecord(flt, gate="check"))
        except AmbiguousFilterError:
            continue
    table.ensure_compiled()
    return table


def _seeded_engine():
    engine = make_engine("waldvogel", IPV4_WIDTH)
    for index, flt in enumerate(random_filters(32, seed=5, host_fraction=0.3)):
        if not flt.src.is_wildcard:
            engine.insert(flt.src, index)
    engine.lookup_entry_fast(0)
    return engine


def test_rp505_dag_clean_when_untampered():
    assert audit_dag_table(_seeded_table()) == []


def test_rp505_dag_stale_epoch():
    table = _seeded_table()
    table._compiled_epoch -= 1
    table.ensure_compiled = lambda: None  # pin the tampered state
    findings = audit_dag_table(table)
    assert _codes(findings) == ["RP505"]
    assert "epoch" in findings[0].message


def test_rp505_dag_prefix_tables_out_of_order():
    table = _seeded_table()
    root = table._compiled_root
    assert root[0] == _C_PREFIX and len(root[1]) >= 2
    table._compiled_root = (root[0], tuple(reversed(root[1])), root[2])
    findings = audit_dag_table(table)
    assert "RP505" in _codes(findings)
    assert any("longest-first" in d.message for d in findings)


def test_rp505_engine_clean_when_untampered():
    assert audit_engine(_seeded_engine()) == []


def test_rp505_engine_tables_out_of_order():
    engine = _seeded_engine()
    assert len(engine._fast_tables) >= 2
    engine._fast_tables = tuple(reversed(engine._fast_tables))
    findings = audit_engine(engine)
    assert "RP505" in _codes(findings)


def test_rp505_engine_entry_count_mismatch():
    engine = _seeded_engine()
    shift, first = engine._fast_tables[0]
    dropped = dict(first)
    dropped.popitem()
    engine._fast_tables = ((shift, dropped),) + tuple(engine._fast_tables[1:])
    findings = audit_engine(engine)
    assert "RP505" in _codes(findings)
    assert any("entries" in d.message for d in findings)


# ----------------------------------------------------------------------
# Router-level audit: warm loops across three router configurations,
# then via analyze_router
# ----------------------------------------------------------------------
def _warm_router(name, max_flows=None, with_plugin=False):
    router = Router(name=name, gates=DEFAULT_GATES, max_flows=max_flows)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    if with_plugin:
        library = RouterPluginLibrary(router)
        library.modload("firewall")
        library.create_instance("firewall", "fw0")
        library.bind("fw0", "*, *, UDP", gate=GATE_IP_SECURITY)
    router.receive_batch(
        [make_udp("10.0.0.1", "20.0.1.1", 5000, 9000, iif="atm0")]
    )
    return router


# Labels (kept as stable test ids): "single" has no active pre gate,
# "lanes" an active pre gate over an unbounded flow table, "fused" the
# same over a bounded one.  All three compile the same loop shape.
@pytest.mark.parametrize(
    "max_flows,with_plugin,label",
    [(None, False, "single"), (None, True, "lanes"), (64, True, "fused")],
)
def test_warm_router_audits_clean(max_flows, with_plugin, label):
    router = _warm_router(f"audit-{label}", max_flows, with_plugin)
    assert router._batch_loops  # the loop actually compiled
    assert audit_router_codegen(router) == []


class _Hooked(PluginInstance):
    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.batches = 0

    def on_batch_start(self, now, batch_size):
        self.batches += 1

    def process(self, packet, ctx):
        return Verdict.CONTINUE


class _HookedPlugin(Plugin):
    plugin_type = TYPE_IP_SECURITY
    name = "audit-hooked"
    instance_class = _Hooked


def test_hooked_router_audits_clean():
    """A loop with live batch hooks reads them from the router at call
    time; the audit accepts that read and the hook actually runs."""
    router = _warm_router("audit-hooked")
    plugin = _HookedPlugin()
    router.pcu.load(plugin)
    instance = plugin.create_instance()
    plugin.register_instance(instance, "*, *, UDP", gate=GATE_IP_SECURITY)
    router.receive_batch(
        [make_udp("10.0.0.2", "20.0.1.2", 5001, 9001, iif="atm0")]
    )
    assert instance.batches == 1
    assert any(fn._plan["hooks"] for fn in router._batch_loops.values())
    assert audit_router_codegen(router) == []


def test_analyze_router_surfaces_codegen_findings():
    router = _warm_router("audit-wired", with_plugin=True)
    (fn,) = [
        fn for fn in router._batch_loops.values() if fn is not None
    ][:1] or [None]
    assert fn is not None
    fn._plan["tm"] = True  # lie about the specialization key
    report = analyze_router(router)
    assert any(d.code == "RP504" for d in report)


def test_subject_prefix_labels_findings():
    router = _warm_router("audit-prefix")
    router.receive_batch(
        [make_udp("10.0.0.2", "20.0.1.2", 5001, 9001, iif="atm0")]
    )
    # No findings expected; the prefix plumbing is exercised via the
    # audit call itself (it must not throw with a prefix).
    assert audit_router_codegen(router, subject_prefix="shard3: ") == []
