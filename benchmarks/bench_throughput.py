"""Wall-clock throughput benchmark for the forwarding data path.

Unlike the ``bench_fig_*`` / ``bench_table*`` experiments, which report
*modelled* cycles on the paper's P6/233, this benchmark measures real
Python packets-per-second on five workloads:

* ``cached_hit`` — a warmed flow cache; every packet takes the paper's
  fast path (one hash, a few indirections).
* ``cache_miss`` — every packet is a brand new flow; each takes the slow
  path (hash, miss, per-gate filter lookup, flow install).
* ``gates3`` — the Table 3 row-2 setup: a warmed cache plus an empty
  plugin bound at all three gates, so every packet makes three indirect
  plugin calls.
* ``miss_churn`` — high flow birth rate against a capped flow table:
  packets round-robin over 4x more flows than the table holds, so every
  packet misses, installs, and recycles an LRU record.
* ``filters256`` — the slow path against a large filter set: 256
  distinct /24 filters installed at one gate, every packet a new flow,
  so each miss classifies through a 256-filter DAG (the paper's claim is
  that this costs the same as a small set).
* ``batch_cached`` / ``batch_miss`` — the ``cached_hit`` / ``cache_miss``
  traffic driven through ``receive_batch`` in fixed 256-packet bursts:
  the DPDK-style arrival pattern the batched run-to-completion pipeline
  is built for, paying the per-batch prologue (plan check, loop lookup,
  context pooling) once per burst instead of once per pass.
* ``batch_steady`` / ``batch_churn`` — the ``batch_cached`` traffic
  twice, measured interleaved: ``batch_churn`` installs one ``/32``
  filter at ``ip_security`` and removes it again before every
  256-packet burst (reservation-style control churn that leaves the
  loop shape alone), ``batch_steady`` takes no control writes.
  ``scripts/bench_check.sh`` floors ``batch_churn`` at 0.5x
  ``batch_steady``: control writes must cost the data path what they
  change (the DAG's dirty spine), not a batch-loop recompile.
* ``topo_chain1`` / ``topo_chain3`` — the ``batch_cached`` traffic
  through a one-router and a three-router ``repro.Topology`` chain
  (an empty plugin at ``ip_options`` on every hop), measured
  interleaved.  ``scripts/bench_check.sh`` floors ``3 x topo_chain3``
  at ``0.5 x topo_chain1``: a transit hop may cost at most twice a
  single-hop router.
* ``telemetry_off`` / ``telemetry_on`` — the ``cached_hit`` workload
  with and without a :class:`repro.telemetry.MetricsRegistry` attached.
  The pair gates the telemetry fast-path overhead: ``scripts/
  bench_check.sh`` fails if ``on`` is more than 5% slower than ``off``.
* ``telemetry_off_miss`` / ``telemetry_on_miss`` — the same pair over
  the ``cache_miss`` workload (the miss path additionally observes the
  packet-size histogram on every flow install).

A separate ``shard`` section measures the sharded data path
(``repro.shard``) on the same cached/miss traffic, three arms each:

* ``single`` — a one-shard inline ``ShardedRouter`` driving
  ``receive_wire`` (decode + batch data path, the honest same-process
  baseline: it pays the same codec cost the mp workers pay);
* ``mp`` — the real end-to-end 4-worker fork backend.  Its
  ``real_ratio`` over ``single`` is the wall-clock parallel speedup,
  which is only meaningful with >= 4 usable cores;
* ``dispatch`` — the parent-side pipeline alone, no IPC: RSS
  bucketing, scatter bookkeeping, batch slicing, request
  serialization, and reply deserialization (everything the parent
  does per packet in the mp backend except the kernel pipe syscalls,
  plus the worker-side reply serialization for good measure — the
  arm overcounts, so the ratio is conservative).  ``dispatch_ratio``
  over ``single`` is core-count independent: it proves the dispatcher
  can feed >= that many single-router equivalents, i.e. the parent is
  not the bottleneck when cores exist.  A null-path mp pool is *not*
  used for this number: on a box with fewer cores than workers the
  echo IPC shares the parent's core and the measurement collapses to
  core contention, not capacity.  ``scripts/bench_check.sh`` always
  gates ``dispatch_ratio`` and gates ``real_ratio`` only when the
  machine has >= 4 usable cores.

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py                 # full run
    PYTHONPATH=src python benchmarks/bench_throughput.py --quick         # CI-sized
    PYTHONPATH=src python benchmarks/bench_throughput.py --save-baseline # record pre-PR pps

``--save-baseline`` writes ``benchmarks/baseline_throughput.json``.  The
committed baseline mixes capture points: ``cached_hit`` / ``cache_miss``
/ ``gates3`` were measured at the seed commit, while ``miss_churn`` and
``filters256`` (which did not exist then) were measured immediately
before the compiled slow path landed (PR 3) — both are "pre-optimisation"
for the speedups they gate.  A normal run measures the current tree,
compares against the stored baseline, and writes
``BENCH_throughput.json`` at the repo root with both series and the
speedup per workload.

The cost model is untouched by wall-clock optimisations — modelled
cycles are asserted bit-identical by ``tests/perf/test_cost_invariance``
(see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.gates import DEFAULT_GATES
from repro.core.plugin import Plugin, PluginInstance, TYPE_IP_SECURITY
from repro.core.router import Router
from repro.net.addresses import IPAddress
from repro.net.headers import PROTO_UDP
from repro.net.packet import Packet
from repro.topo import Topology
from repro.shard import (
    ShardedRouter,
    dispatch_wire,
    encode_packet,
    mp_available,
    usable_cpus,
)

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(HERE, "baseline_throughput.json")
OUTPUT_PATH = os.path.join(HERE, "..", "BENCH_throughput.json")

NSHARDS = 4         # worker count of the sharded-data-path section
FLOWS = 64          # distinct flows in the cached workloads
CHURN_FLOWS = 4096  # distinct flows in the miss_churn workload...
CHURN_CAP = 1024    # ...against a flow table capped this small
FILTERS = 256       # filter-set size of the filters256 workload
CHURN_SOURCES = 16  # distinct /32 sources the batch_churn filters cycle
PAYLOAD = b"\x00" * 64


class _EmptyPlugin(Plugin):
    plugin_type = TYPE_IP_SECURITY
    name = "bench-empty"
    instance_class = PluginInstance


def build_router(with_gate_plugins: bool = False, max_flows=None) -> Router:
    router = Router(name="bench", gates=DEFAULT_GATES, max_flows=max_flows)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    if with_gate_plugins:
        plugin = _EmptyPlugin()
        router.pcu.load(plugin)
        instance = plugin.create_instance()
        for gate in DEFAULT_GATES:
            plugin.register_instance(instance, "*, *, UDP", gate=gate)
    return router


def _flow_addresses(count: int):
    return [
        (
            IPAddress.parse(f"10.0.{i // 200}.{i % 200 + 1}"),
            IPAddress.parse(f"20.0.{i // 200}.{i % 200 + 1}"),
            5000 + i,
        )
        for i in range(count)
    ]


def make_cached_packets(n: int, flows=None):
    """``n`` packets round-robinning over ``FLOWS`` distinct flows."""
    flows = flows or _flow_addresses(FLOWS)
    count = len(flows)
    return [
        Packet(
            src=flows[i % count][0],
            dst=flows[i % count][1],
            protocol=PROTO_UDP,
            src_port=flows[i % count][2],
            dst_port=9000,
            iif="atm0",
            payload=PAYLOAD,
        )
        for i in range(n)
    ]


def make_miss_packets(n: int):
    """``n`` packets, every one a brand-new five-tuple."""
    src = IPAddress.parse("10.0.0.1")
    dst = IPAddress.parse("20.0.0.1")
    return [
        Packet(
            src=src,
            dst=dst,
            protocol=PROTO_UDP,
            src_port=(i % 60000) + 1024,
            dst_port=(i // 60000) + 1024,
            iif="atm0",
            payload=PAYLOAD,
        )
        for i in range(n)
    ]


def make_churn_packets(n: int):
    """``n`` packets round-robinning over ``CHURN_FLOWS`` flows.

    With the flow table capped at ``CHURN_CAP`` records, a flow is always
    evicted before its next packet arrives, so every lookup misses and
    every install recycles an LRU record.
    """
    return make_cached_packets(n, flows=_flow_addresses(CHURN_FLOWS))


def install_bench_filters(router: Router, count: int = FILTERS) -> None:
    """``count`` distinct unbound /24 source filters at one gate.

    Source prefixes are pairwise disjoint (every 10.a.b.0/24 distinct),
    so DAG installation never replicates and the ambiguity pre-flight
    short-circuits; ports/protocol are shaped so the miss traffic below
    matches exactly one filter and walks the full six-level descent.
    """
    if count > 256 * 256:
        raise ValueError("filter workload supports at most 65536 filters")
    for i in range(count):
        router.aiu.create_filter(
            "ip_security", f"10.{i % 16}.{(i // 16) % 256}.0/24, 20.*, UDP"
        )


def make_filter_packets(n: int):
    """``n`` brand-new flows spread across the installed /24 filters."""
    dst = IPAddress.parse("20.0.0.1")
    sources = [
        IPAddress.parse(f"10.{i % 16}.{(i // 16) % 16}.1") for i in range(256)
    ]
    return [
        Packet(
            src=sources[i % 256],
            dst=dst,
            protocol=PROTO_UDP,
            src_port=(i % 60000) + 1024,
            dst_port=(i // 60000) + 1024,
            iif="atm0",
            payload=PAYLOAD,
        )
        for i in range(n)
    ]


BURST = 256         # burst size of the batch_* workloads


def _time_pass(
    router: Router, packets, use_batch: bool, burst: int = 0, control=None
) -> float:
    """Timed pass; with ``burst``, ``control(k)`` (if given) runs before
    the k-th burst, inside the timed region."""
    receive_batch = getattr(router, "receive_batch", None)
    # A collector pass landing inside one timed run but not another is
    # the dominant noise source on the allocation-heavy miss workloads;
    # collect up front and keep the GC out of the timed region.
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        if burst and receive_batch is not None:
            for at in range(0, len(packets), burst):
                if control is not None:
                    control(at // burst)
                receive_batch(packets[at:at + burst])
        elif use_batch and receive_batch is not None:
            receive_batch(packets)
        else:
            receive = router.receive
            for packet in packets:
                receive(packet)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


WORKLOADS = (
    "cached_hit",
    "cache_miss",
    "gates3",
    "miss_churn",
    "filters256",
    "batch_cached",
    "batch_miss",
    "batch_steady",
    "batch_churn",
    "topo_chain1",
    "topo_chain3",
    "telemetry_off",
    "telemetry_on",
    "telemetry_off_miss",
    "telemetry_on_miss",
)


def run_workload(name: str, n: int, reps: int, use_batch: bool) -> float:
    """Best-of-``reps`` packets/second for one workload."""
    best = 0.0
    if name.startswith("telemetry"):
        # The on/off pairs gate a 5% ratio, well inside run-to-run
        # timing noise — more best-of samples keep the gate stable.
        reps *= 2
    for _ in range(reps):
        warmed = 0
        burst = 0
        if name == "cache_miss":
            router = build_router()           # fresh table: every packet misses
            packets = make_miss_packets(n)
        elif name == "batch_cached":
            router = build_router()
            for warm in make_cached_packets(FLOWS):
                router.receive(warm)
            warmed = FLOWS
            packets = make_cached_packets(n)
            burst = BURST
        elif name == "batch_miss":
            router = build_router()
            packets = make_miss_packets(n)
            burst = BURST
        elif name == "miss_churn":
            router = build_router(max_flows=CHURN_CAP)
            packets = make_churn_packets(n)
        elif name == "filters256":
            router = build_router()
            install_bench_filters(router)
            packets = make_filter_packets(n)
        elif name in ("telemetry_off_miss", "telemetry_on_miss"):
            router = build_router()
            packets = make_miss_packets(n)
            if name == "telemetry_on_miss":
                router.attach_telemetry()
        elif name in ("telemetry_off", "telemetry_on"):
            router = build_router()
            for warm in make_cached_packets(FLOWS):
                router.receive(warm)
            warmed = FLOWS
            packets = make_cached_packets(n)
            if name == "telemetry_on":
                router.attach_telemetry()
        else:
            router = build_router(with_gate_plugins=(name == "gates3"))
            for warm in make_cached_packets(FLOWS):
                router.receive(warm)
            warmed = FLOWS
            packets = make_cached_packets(n)
        elapsed = _time_pass(router, packets, use_batch, burst=burst)
        expected = router.counters["forwarded"] - warmed
        if expected != n:
            raise RuntimeError(f"{name}: forwarded {expected} of {n} packets")
        best = max(best, n / elapsed)
    return best


def _churn_control(router: Router):
    """One reservation-style write pair per burst: a ``/32`` filter at
    ``ip_security`` installed and removed again.  The sources
    (10.255.k.1) match none of the cached flows, so no flow is purged
    and the loop shape never changes."""
    aiu = router.aiu

    def control(k: int) -> None:
        record = aiu.create_filter(
            "ip_security", f"10.255.{k % CHURN_SOURCES}.1/32, *, UDP"
        )
        aiu.remove_filter(record)

    return control


def run_churn_pair(n: int, reps: int):
    """Best-of pps for ``batch_steady`` and ``batch_churn``, measured
    interleaved (alternating passes, order swapped every rep) so the
    ratio gated by ``scripts/bench_check.sh`` compares like with like.

    The warm-up goes through ``receive_batch``, so the batch loop is
    compiled before the timed region in both arms: what is left to
    compare is steady forwarding against forwarding plus control writes.

    Returns ``(steady_pps, churn_pps)``.
    """
    best = {"steady": 0.0, "churn": 0.0}
    for rep in range(reps):
        order = ("steady", "churn") if rep % 2 == 0 else ("churn", "steady")
        for arm in order:
            router = build_router()
            router.receive_batch(make_cached_packets(FLOWS))
            control = _churn_control(router) if arm == "churn" else None
            elapsed = _time_pass(
                router, make_cached_packets(n), True, burst=BURST,
                control=control,
            )
            forwarded = router.counters["forwarded"] - FLOWS
            if forwarded != n:
                raise RuntimeError(f"batch_{arm}: forwarded {forwarded} of {n}")
            best[arm] = max(best[arm], n / elapsed)
    return best["steady"], best["churn"]


def build_chain(hops: int) -> Topology:
    """``hops`` routers in a line, ``r1:atm1 -> r2:atm0 -> ...``, each
    with an empty plugin at ``ip_options``; the last hop's ``atm1`` is
    the network's exit."""
    topo = Topology(f"chain{hops}", max_hops=hops)
    for i in range(hops):
        router = build_router()
        router.name = f"r{i + 1}"
        plugin = _EmptyPlugin()
        router.pcu.load(plugin)
        plugin.register_instance(
            plugin.create_instance(), "*, *, UDP", gate="ip_options"
        )
        topo.add_node(router.name, router=router)
    for i in range(1, hops):
        topo.link(f"r{i}", "atm1", f"r{i + 1}", "atm0")
    return topo


def run_chain_pair(n: int, reps: int):
    """Best-of pps for ``topo_chain1`` and ``topo_chain3``, measured
    interleaved (order swapped every rep); both arms warm their flow
    tables and batch loops through ``receive_batch`` first.

    Returns ``(chain1_pps, chain3_pps)``.
    """
    best = {1: 0.0, 3: 0.0}
    for rep in range(reps):
        for hops in ((1, 3) if rep % 2 == 0 else (3, 1)):
            topo = build_chain(hops)
            topo.receive_batch(make_cached_packets(FLOWS))
            elapsed = _time_pass(
                topo, make_cached_packets(n), True, burst=BURST
            )
            forwarded = topo.node(f"r{hops}").counters["forwarded"] - FLOWS
            if forwarded != n:
                raise RuntimeError(
                    f"topo_chain{hops}: forwarded {forwarded} of {n}"
                )
            best[hops] = max(best[hops], n / elapsed)
    return best[1], best[3]


_TELEMETRY_PAIRS = {
    "telemetry_off": ("cached", "off"),
    "telemetry_on": ("cached", "on"),
    "telemetry_off_miss": ("miss", "off"),
    "telemetry_on_miss": ("miss", "on"),
}


def run_telemetry_pair(kind: str, n: int, reps: int, use_batch: bool):
    """Best-of pps for a telemetry off/on pair, measured interleaved.

    The pair gates a 5% ratio, well inside block-to-block timing drift:
    timing all the ``off`` reps and then all the ``on`` reps lets a
    frequency shift between the blocks masquerade as overhead.  Three
    defences keep the ratio about the seams rather than the machine:

    * off and on run in alternating passes (same conditions), with the
      order swapped every rep (cancels any fixed position bias);
    * one packet list is built up front and reused — each pass resets
      the per-packet flow caches (``fix = None``) instead of paying
      packet construction again, so passes are cheap and ``reps`` can be
      high enough for best-of to converge on a busy machine;
    * best-of, not mean: interference only ever makes a pass slower.

    Returns ``(off_pps, on_pps)``.
    """
    packets = make_miss_packets(n) if kind == "miss" else make_cached_packets(n)
    best = {"off": 0.0, "on": 0.0}
    for rep in range(reps):
        order = ("off", "on") if rep % 2 == 0 else ("on", "off")
        for mode in order:
            for packet in packets:
                packet.fix = None   # reset flow caches for reuse...
                packet.length       # ...and re-warm the length (wire
                # packets carry it from the parsed header; Packet.parse
                # warms it the same way)
            router = build_router()
            warmed = 0
            if kind != "miss":
                for warm in make_cached_packets(FLOWS):
                    router.receive(warm)
                warmed = FLOWS
            if mode == "on":
                router.attach_telemetry()
            if use_batch:
                # Compile the batch loop (and the AIU's compiled tables)
                # outside the timed region: the pair gates a 5% ratio,
                # and the one-off exec-compile on a fresh router's first
                # batch is the same order as the seam being measured.
                # The warm flows are disjoint from the measured set.
                warm_burst = [
                    Packet(
                        src=IPAddress.parse("10.255.0.1"),
                        dst=IPAddress.parse(f"20.255.0.{i + 1}"),
                        protocol=PROTO_UDP,
                        src_port=40000 + i,
                        dst_port=40000,
                        iif="atm0",
                        payload=PAYLOAD,
                    )
                    for i in range(32)
                ]
                router.receive_batch(warm_burst)
                warmed += len(warm_burst)
            elapsed = _time_pass(router, packets, use_batch)
            expected = router.counters["forwarded"] - warmed
            if expected != n:
                raise RuntimeError(
                    f"telemetry_{mode}/{kind}: forwarded {expected} of {n}"
                )
            best[mode] = max(best[mode], n / elapsed)
    return best["off"], best["on"]


def _shard_factory(index: int) -> Router:
    """Per-shard router for the shard section (runs inside each forked
    worker for the mp arms, so state never crosses the fork)."""
    return build_router()


def _time_wire(front, descs, now: float = 0.0) -> float:
    """Timed ``receive_wire`` pass with the GC parked (see _time_pass)."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        front.receive_wire(descs, now=now)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def _time_dispatch_capacity(descs, batch_size: int = 256) -> float:
    """Timed pass over the parent's per-packet mp pipeline work, no IPC.

    Mirrors ``ShardWorkerPool.process_wire``: RSS bucket, slice
    ``batch_size`` chunks, serialize each ("batch", now, chunk) request,
    and deserialize a dispositions reply per chunk.  The reply blob is
    *produced* in the loop too (worker-side work in reality), so the
    measured rate understates true parent capacity — conservative.
    """
    import pickle
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        dumps, loads = pickle.dumps, pickle.loads
        start = time.perf_counter()
        buckets, indices = dispatch_wire(descs, NSHARDS)
        for s in range(NSHARDS):
            bucket, idx = buckets[s], indices[s]
            for at in range(0, len(bucket), batch_size):
                chunk = bucket[at:at + batch_size]
                dumps(("batch", 0.0, chunk), protocol=-1)
                scatter = idx[at:at + batch_size]
                reply = loads(dumps(["forwarded"] * len(chunk), protocol=-1))
                for i, d in zip(scatter, reply):
                    pass
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def run_shard_workload(kind: str, n: int, reps: int) -> dict:
    """Best-of pps for the three shard arms on one traffic kind.

    Every arm consumes the identical descriptor stream (fold
    precomputed by ``encode_packet``), so the only variable is the
    execution backend behind the RSS front end.
    """
    make = make_cached_packets if kind == "cached" else make_miss_packets
    warm_descs = (
        [encode_packet(p) for p in make_cached_packets(FLOWS)]
        if kind == "cached" else []
    )
    best = {"single": 0.0, "mp": 0.0, "dispatch": 0.0}
    for _ in range(reps):
        descs = [encode_packet(p) for p in make(n)]

        single = ShardedRouter(nshards=1, factory=_shard_factory,
                               backend="inline")
        if warm_descs:
            single.receive_wire(warm_descs)
        elapsed = _time_wire(single, descs)
        forwarded = single.counters["forwarded"] - len(warm_descs)
        if forwarded != n:
            raise RuntimeError(
                f"shard_{kind}/single: forwarded {forwarded} of {n}"
            )
        best["single"] = max(best["single"], n / elapsed)

        best["dispatch"] = max(
            best["dispatch"], n / _time_dispatch_capacity(descs)
        )

        if mp_available():
            with ShardedRouter(nshards=NSHARDS, factory=_shard_factory,
                               backend="mp") as front:
                if warm_descs:
                    front.receive_wire(warm_descs)
                elapsed = _time_wire(front, descs)
                counters = front.health()["counters"]
            forwarded = counters.get("forwarded", 0) - len(warm_descs)
            if forwarded != n:
                raise RuntimeError(
                    f"shard_{kind}/mp: forwarded {forwarded} of {n}"
                )
            best["mp"] = max(best["mp"], n / elapsed)

    row = {
        "single_pps": round(best["single"], 1),
        "mp_pps": round(best["mp"], 1) or None,
        "dispatch_pps": round(best["dispatch"], 1) or None,
    }
    if best["mp"]:
        row["real_ratio"] = round(best["mp"] / best["single"], 2)
    if best["dispatch"]:
        row["dispatch_ratio"] = round(best["dispatch"] / best["single"], 2)
    return row


def measure_shard(quick: bool) -> dict:
    """The shard section of the report (self-relative ratios, so it has
    no entry in the stored pre-PR baseline)."""
    n = 5_000 if quick else 20_000
    reps = 2 if quick else 3
    return {
        "nshards": NSHARDS,
        "usable_cpus": usable_cpus(),
        "mp_available": mp_available(),
        "shard_cached": run_shard_workload("cached", n, reps),
        "shard_miss": run_shard_workload("miss", n, reps),
    }


def measure(quick: bool, use_batch: bool) -> dict:
    n = 5_000 if quick else 30_000
    reps = 2 if quick else 4
    results = {}
    paired_done = set()
    for name in WORKLOADS:
        if name in ("batch_steady", "topo_chain3"):
            continue   # measured with their pair arm, interleaved
        if name == "topo_chain1":
            chain1, chain3 = run_chain_pair(n, max(4, reps * 2))
            results["topo_chain1"] = round(chain1, 1)
            results["topo_chain3"] = round(chain3, 1)
            continue
        if name == "batch_churn":
            # Cheap passes: as many best-of samples as the telemetry
            # pairs, so a co-tenant burst cannot sink one arm alone.
            steady, churn = run_churn_pair(n, max(16, reps * 4))
            results["batch_steady"] = round(steady, 1)
            results["batch_churn"] = round(churn, 1)
        elif name in _TELEMETRY_PAIRS:
            kind, _ = _TELEMETRY_PAIRS[name]
            if kind in paired_done:
                continue
            paired_done.add(kind)
            # The 5%/8% ratio gate needs a converged best-of: at 8 reps
            # the ratio of two best-of estimates still wobbles by a few
            # percent on a loaded machine; 16 reps of these cheap passes
            # is where it settles (the pair workloads are the smallest
            # in the suite, so this costs well under a second).
            off, on = run_telemetry_pair(kind, n, max(16, reps * 4), use_batch)
            suffix = "" if kind == "cached" else "_miss"
            results[f"telemetry_off{suffix}"] = round(off, 1)
            results[f"telemetry_on{suffix}"] = round(on, 1)
        else:
            results[name] = round(run_workload(name, n, reps, use_batch), 1)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--save-baseline",
        action="store_true",
        help="record the current tree's pps as the pre-PR baseline",
    )
    parser.add_argument(
        "--no-batch",
        action="store_true",
        help="measure per-packet receive() even when receive_batch exists",
    )
    args = parser.parse_args(argv)

    results = measure(args.quick, use_batch=not args.no_batch)
    if args.save_baseline:
        # Merge: committed pre-optimisation captures are preserved; only
        # workloads that have no baseline yet get one (so adding a new
        # workload records its pre-PR number without clobbering seed-era
        # entries).
        merged = {}
        if os.path.exists(BASELINE_PATH):
            with open(BASELINE_PATH) as fh:
                merged = json.load(fh).get("pps", {})
        merged.update({k: v for k, v in results.items() if k not in merged})
        with open(BASELINE_PATH, "w") as fh:
            json.dump({"pps": merged, "quick": args.quick}, fh, indent=2)
        print(f"baseline saved to {BASELINE_PATH}: {merged}")
        return 0

    baseline = None
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as fh:
            baseline = json.load(fh)["pps"]
    report = {
        "workloads": list(WORKLOADS),
        "packets_per_second": results,
        "baseline_packets_per_second": baseline,
        "shard": measure_shard(args.quick),
    }
    if baseline:
        report["speedup"] = {
            name: round(results[name] / baseline[name], 2)
            for name in results
            if baseline.get(name)
        }
    with open(OUTPUT_PATH, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
