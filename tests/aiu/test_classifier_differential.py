"""Seeded differential fuzz: compiled vs metered vs linear oracle.

The compiled slow path (``DagFilterTable.lookup_fast``) is a wall-clock
specialization of the metered walk (``DagFilterTable.lookup``); the
:class:`LinearFilterTable` is the brute-force correctness oracle that
handles any filter set.  These tests drive all three over seeded random
filter sets and probe traffic — including traffic aimed *at* the
installed filters, not just random misses — and assert exact agreement,
then churn the tables with interleaved installs/removals to prove the
epoch invalidation never serves a stale compiled result, and that the
incremental (dirty-spine) recompile always equals a from-scratch one.
"""

import random

import pytest

from repro.aiu.aiu import AIU
from repro.aiu.dag import DagFilterTable
from repro.aiu.linear import LinearFilterTable
from repro.aiu.matchers import AmbiguousFilterError
from repro.aiu.records import FilterRecord
from repro.net.addresses import IPV4_WIDTH, IPV6_WIDTH, IPAddress
from repro.net.packet import Packet
from repro.workloads.filtersets import matching_probe, random_filters

SEEDS = (1, 7, 23, 99)


def _build_tables(filters, width):
    """Install ``filters`` into a DAG + linear pair; skip ambiguous ones."""
    dag = DagFilterTable(width=width)
    linear = LinearFilterTable(width=width)
    records = []
    for flt in filters:
        record = FilterRecord(flt, gate="g")
        try:
            dag.install(record)
        except AmbiguousFilterError:
            continue
        linear.install(record)
        records.append(record)
    assert records, "filter generator produced nothing installable"
    return dag, linear, records


def _probe_packets(filters, width, rng, per_filter=2, random_probes=64):
    """Packets matching installed filters plus uniform random traffic."""
    packets = []
    for flt in filters:
        for _ in range(per_filter):
            src, dst, protocol, sport, dport = matching_probe(flt, rng)
            packets.append(
                Packet(
                    src=IPAddress(src, width),
                    dst=IPAddress(dst, width),
                    protocol=protocol,
                    src_port=sport,
                    dst_port=dport,
                    iif=rng.choice(["atm0", "atm1", None]),
                )
            )
    for _ in range(random_probes):
        packets.append(
            Packet(
                src=IPAddress(rng.getrandbits(width), width),
                dst=IPAddress(rng.getrandbits(width), width),
                protocol=rng.choice((6, 17)),
                src_port=rng.randrange(65536),
                dst_port=rng.randrange(65536),
                iif=rng.choice(["atm0", "atm1", None]),
            )
        )
    return packets


def _assert_agree(dag, linear, packet):
    metered = dag.lookup(packet)
    compiled = dag.lookup_fast(packet)
    oracle = linear.lookup(packet)
    # sort keys are unique (the record seq breaks every tie), so matching
    # keys means the very same record object.
    assert compiled is metered, (
        f"compiled/metered divergence on {packet}: {compiled!r} != {metered!r}"
    )
    if oracle is None:
        assert metered is None, f"oracle miss but DAG hit {metered!r} on {packet}"
    else:
        assert metered is oracle, (
            f"DAG/oracle divergence on {packet}: {metered!r} != {oracle!r}"
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "width", [IPV4_WIDTH, IPV6_WIDTH], ids=["ipv4", "ipv6"]
)
def test_compiled_agrees_on_static_tables(seed, width):
    filters = random_filters(48, width=width, seed=seed, host_fraction=0.5)
    dag, linear, records = _build_tables(filters, width)
    rng = random.Random(seed * 1000 + 1)
    for packet in _probe_packets(
        [r.filter for r in records], width, rng
    ):
        _assert_agree(dag, linear, packet)


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_never_stale_under_churn(seed):
    """Interleave install/remove/lookup; the compiled path must track
    every mutation (per-table epoch) and never serve a removed filter or
    miss a newly installed one."""
    width = IPV4_WIDTH
    pool = random_filters(40, width=width, seed=seed, host_fraction=0.5)
    rng = random.Random(seed * 1000 + 2)
    probes = _probe_packets(pool, width, rng, per_filter=1, random_probes=16)
    dag = DagFilterTable(width=width)
    linear = LinearFilterTable(width=width)
    live = {}
    for step in range(300):
        op = rng.random()
        index = rng.randrange(len(pool))
        if op < 0.45:
            if index not in live:
                record = FilterRecord(pool[index], gate="g")
                try:
                    dag.install(record)
                except AmbiguousFilterError:
                    continue
                linear.install(record)
                live[index] = record
        elif op < 0.70:
            record = live.pop(index, None)
            if record is not None:
                assert dag.remove(record)
                assert linear.remove(record)
        else:
            _assert_agree(dag, linear, probes[rng.randrange(len(probes))])
    # Final sweep over every probe after the churn settles.
    for packet in probes:
        _assert_agree(dag, linear, packet)


def test_recompile_is_lazy_and_epoch_driven():
    """Mutations only bump the epoch; flattening happens on the next
    fast lookup, and an unchanged table is never recompiled."""
    dag = DagFilterTable(width=IPV4_WIDTH)
    record = FilterRecord(
        random_filters(1, seed=3, host_fraction=0.0)[0], gate="g"
    )
    dag.install(record)
    assert dag._compiled_epoch != dag.epoch  # not compiled yet
    packet = Packet(
        src=IPAddress(0, IPV4_WIDTH),
        dst=IPAddress(0, IPV4_WIDTH),
        protocol=17,
        src_port=1,
        dst_port=1,
    )
    dag.lookup_fast(packet)
    assert dag._compiled_epoch == dag.epoch
    root_before = dag._compiled_root
    dag.lookup_fast(packet)
    assert dag._compiled_root is root_before  # no recompile when clean
    assert dag.remove(record)
    assert dag._compiled_epoch != dag.epoch  # invalidated again
    assert dag.lookup_fast(packet) is dag.lookup(packet)


# Nested labels so later installs land under (copy-down) or over
# (replication) earlier ones; "*" in both address fields makes a filter
# family-agnostic, installed in the v4 and the v6 table at once.
_NESTED = {
    4: (
        ("*", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.3/32",
         "10.9.0.0/16"),
        ("*", "20.0.0.0/8", "20.1.0.0/16", "20.1.2.3/32"),
    ),
    6: (
        ("*", "2001:db8::/32", "2001:db8:1::/48", "2001:db8:1::3/128"),
        ("*", "2001:db9::/32", "2001:db9::7/128"),
    ),
}
_PORTS = ("*", "*", "0-1023", "1024-65535", "53", "80")


def _nested_filter(rng):
    srcs, dsts = _NESTED[rng.choice((4, 6))]
    return ", ".join((
        rng.choice(srcs),
        rng.choice(dsts),
        rng.choice(("*", "UDP", "TCP")),
        rng.choice(_PORTS),
        rng.choice(_PORTS),
        rng.choice(("*", "*", "atm0")),
    ))


def _nested_probes(rng, count=48):
    hosts = {
        IPV4_WIDTH: (["10.1.2.3", "10.1.2.9", "10.1.7.1", "10.9.3.3",
                      "10.200.0.1", "30.0.0.1"],
                     ["20.1.2.3", "20.1.9.9", "20.7.0.1", "40.0.0.1"]),
        IPV6_WIDTH: (["2001:db8:1::3", "2001:db8:1::4", "2001:db8:2::1",
                      "2001:dc0::1"],
                     ["2001:db9::7", "2001:db9::8", "2001:dba::1"]),
    }
    probes = {}
    for width, (srcs, dsts) in hosts.items():
        probes[width] = [
            Packet(
                src=IPAddress.parse(rng.choice(srcs)),
                dst=IPAddress.parse(rng.choice(dsts)),
                protocol=rng.choice((6, 17)),
                src_port=rng.choice((53, 80, 443, 5000)),
                dst_port=rng.choice((53, 80, 443, 5000)),
                iif=rng.choice(("atm0", "atm1")),
            )
            for _ in range(count)
        ]
    return probes


@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_compile_equals_full_compile(seed):
    """Seeded create/remove churn through the AIU — family-wildcard
    filters shared by both tables, nested labels that copy down, and
    removals whose edges persist.  After every operation each table's
    incrementally compiled root must equal a from-scratch flatten of the
    same DAG, and the compiled lookup must agree with the metered walk;
    over the run the incremental compiles must do less work than full
    recompiles would have."""
    rng = random.Random(seed * 1000 + 3)
    probes = _nested_probes(rng)
    aiu = AIU(gates=("g",))
    live = []
    full_nodes = 0
    shared = 0
    for _step in range(160):
        if live and rng.random() < 0.4:
            assert aiu.remove_filter(live.pop(rng.randrange(len(live))))
        else:
            try:
                record = aiu.create_filter("g", _nested_filter(rng))
            except AmbiguousFilterError:
                continue
            shared += record.filter.family is None
            live.append(record)
        for (_gate, width), table in aiu._tables.items():
            if table._compiled_epoch != table.epoch:
                full_nodes += table.node_count()
            table.ensure_compiled()
            assert table._compiled_root == table._compile_node(
                table._root, 0, reuse=False
            )
            for packet in probes[width]:
                assert table.lookup_fast(packet) is table.lookup(packet)
    assert shared and len(aiu._tables) == 2
    assert 0 < aiu.dag_node_compiles < full_nodes
