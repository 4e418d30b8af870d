"""Per-plan compiled batch loops for ``Router.receive_batch``.

The classifier is compiled per filter-set (:mod:`repro.aiu.dag`); this
module extends the same technique to the dispatch loop itself.  ``loop_for`` returns a
batch-loop function generated with ``exec`` and specialized to the
router's current configuration:

* the active-gate plan (which gates actually have filters),
* telemetry on/off (the per-gate dispatch cells are compiled in or out),
* the flow table's eviction policy and its cap,
* whether any local addresses exist,
* whether every interface is a plain :class:`NetworkInterface` (the
  transmit bookkeeping can then be inlined),
* whether any instance has a batch-start hook,
* whether the loop is *stamped*.

That list is the cache key (:func:`loop_key`): a *shape*, not a filter
set.  A control-plane write that leaves the shape alone — the common
case, e.g. a reservation's ``/32`` filter at an already active gate —
reuses the compiled loop.

Every loop has the same shape: one run-to-completion pass per packet,
in scalar order — the flow-table probe (hit, or install plus filter
walk on a miss), each active pre-routing gate's plugin call, then the
demux, route, and emit tail, with the route memo and transmit inlined.

A loop runs every packet at one batch clock (``now``) unless it is
*stamped*: ``receive_batch(packets, now=None)`` runs each packet at its
own ``packet.arrival_time``, which is how topology transit hands a run
of deliveries, each with its own arrival time, to one loop call.  The
stamped source differs from the unstamped one by the clock lines only —
``now = packet.arrival_time`` per packet and ``ctx_N.now = now`` per
plugin call instead of once per batch (audited by RP506) — and the
unstamped source is the one every ``receive_batch(packets, now)`` call
has always run.

Every loop is *behaviorally identical* to calling ``receive`` in a
loop — dispositions, counters, flow-table and telemetry state, plugin
call order, and fault records are packet-for-packet equal (asserted by
tests/perf/test_batch_pipeline.py) and modelled cycles are untouched
because the batch path only ever runs unmetered.  The win is
wall-clock only: per-batch prologues hoist every invariant load, and
the per-packet interpreter overhead of the scalar walk (10-20 method
calls) collapses into straight-line code.

Every plugin call checks the live quarantine map first and maps a
fault inline through ``on_fault``, exactly as the scalar gate macro
does.  ``router._quarantined`` is mutated in place, so a quarantine
tripped by one packet intercepts the later packets of the same batch.

Documented divergence (see docs/PERFORMANCE.md): filter-set changes
made *by a plugin mid-batch* take effect at the next batch boundary
(the plan is checked once per batch).
"""

from __future__ import annotations

import textwrap
from typing import Callable, Optional

from ..aiu.filters import FlowKey, flow_key_of
from ..aiu.records import GateSlot
from ..net.icmp import destination_unreachable, time_exceeded
from ..net.interfaces import NetworkInterface
from ..net.packet import PARSE_STATS
from ..sim.cost import NULL_METER
from .faults import DEGRADE_BYPASS
from .gates import GATE_PACKET_SCHEDULING, GATE_ROUTING
from .plugin import PluginContext, Verdict
from .router import Disposition

#: Optional plugin hook: ``on_batch_start(now, batch_size)`` is called
#: once per batch for every instance bound through the current filter
#: set (or registered as a scheduler) at compile time.  The contract is
#: that the hook must not change observable per-packet behavior — it
#: exists so a plugin can hoist its own per-packet invariants (see
#: docs/PLUGIN_AUTHORING.md and the RP208 lint).
BATCH_START_HOOK = "on_batch_start"

_MAX_CACHED_LOOPS = 32


# ----------------------------------------------------------------------
# Compilation entry point
# ----------------------------------------------------------------------
def loop_key(router, stamped: bool = False) -> Optional[tuple]:
    """The shape key of the loop :func:`loop_for` would return for the
    router's current plan, or ``None`` when it would return ``None``
    (scalar fallback: flow cache disabled, IPv6 flow-label hashing, no
    pre-routing gate to anchor classification at, or a degraded
    overload tier).

    The key holds everything the emitter bakes into the source or the
    namespace that can change over a router's life (gate geometry is
    fixed at construction): the active gates, telemetry on/off, whether
    local addresses exist, the eviction policy, the flow-table cap
    (``MAXR``), whether every interface is plain, whether any batch
    hook exists, and whether the loop is stamped.  It does *not* hold
    ``plan_epoch``: a filter create/remove that leaves the shape alone
    reuses the compiled loop.
    """
    aiu = router.aiu
    table = aiu.flow_table
    if (
        not aiu.use_flow_cache
        or table.use_flow_label
        or router._first_pre_gate is None
    ):
        return None
    gov = router._overload
    if gov is not None and gov.degraded:
        # Degraded overload tiers run the scalar walk — the admission /
        # cache-bypass seam lives in Router.receive().  receive_batch
        # already routes around the loops; this guards direct callers.
        return None
    refresh_plan_scan(router)
    return (
        router._plan_pre_active,
        router._plan_routing_active,
        router._plan_sched_active,
        router._tm_gate_cells is not None,
        bool(router.local_addresses),
        table._clock,
        table.max_records,
        _all_plain(router),
        bool(router._batch_hooks),
        stamped,
    )


def loop_for(router, stamped: bool = False) -> Optional[Callable]:
    """The compiled batch loop for the router's *current* plan, or
    ``None`` when the configuration is not specialized (see
    :func:`loop_key`).

    Loops are cached on the router by shape, so they survive
    control-plane churn: epoch-varying data (the batch hooks) is read
    from the router at call time, and only a change of shape compiles
    a new loop.  Every compile bumps ``router.loop_compiles``.
    """
    key = loop_key(router, stamped)
    if key is None:
        return None
    loops = router._batch_loops
    loop = loops.get(key)
    if loop is None:
        if len(loops) >= _MAX_CACHED_LOOPS:
            loops.clear()
        loop = _compile(router, stamped)
        loops[key] = loop
        router.loop_compiles += 1
    return loop


def _all_plain(router) -> bool:
    return all(
        type(iface) is NetworkInterface for iface in router.interfaces.values()
    )


def refresh_plan_scan(router) -> None:
    """Bring the per-epoch instance scan up to the router's plan epoch:
    ``router._batch_hooks`` and ``router._reinjects`` (see
    :func:`_scan_instances`).  One epoch compare when nothing changed."""
    if router._hooks_epoch != router._plan_epoch:
        router._batch_hooks, router._reinjects = _scan_instances(router)
        router._hooks_epoch = router._plan_epoch


def _scan_instances(router) -> tuple:
    """Scan every instance reachable through the current filter set or
    scheduler bindings: their ``on_batch_start`` hooks, and whether any
    of them re-injects packets (``PluginInstance.reinjects``).

    :func:`refresh_plan_scan` redoes the scan on every ``plan_epoch``
    change and the loop prologue reads the hook tuple at call time, so
    an instance bound by a filter create joins at the next batch and an
    unbound one leaves — without a recompile unless the set goes from
    empty to non-empty or back.  Instances that appear without an epoch
    bump (e.g. a scheduler bound mid-batch) join on the next epoch."""
    hooks = []
    reinjects = False
    seen = set()
    instances = [rec.instance for rec in router.aiu.filters()]
    instances.extend(router._schedulers.values())
    for instance in instances:
        if instance is None or id(instance) in seen:
            continue
        seen.add(id(instance))
        hook = getattr(instance, BATCH_START_HOOK, None)
        if hook is not None:
            hooks.append(hook)
        reinjects = reinjects or getattr(instance, "reinjects", False)
    return tuple(hooks), bool(reinjects)


def _compile(router, stamped: bool = False) -> Callable:
    aiu = router.aiu
    table = aiu.flow_table
    plan = {
        "pre": router._plan_pre_active,
        "tm": router._tm_gate_cells is not None,
        "local": bool(router.local_addresses),
        "clock": table._clock,
        "bounded": table.max_records is not None,
        "plain": _all_plain(router),
        "first_gi": router._gate_indices[router._first_pre_gate],
        "gate_count": len(router.gates),
        "has_routing": router._has_routing_gate,
        "routing_active": router._plan_routing_active,
        "routing_gi": router._gate_indices.get(GATE_ROUTING),
        "has_sched": router._has_sched_gate,
        "sched_active": router._plan_sched_active,
        "sched_gi": router._gate_indices.get(GATE_PACKET_SCHEDULING),
        "hooks": bool(router._batch_hooks),
        "stamped": stamped,
    }
    source = _emit(plan)
    namespace = {
        "PluginContext": PluginContext,
        "GateSlot": GateSlot,
        "NULL": NULL_METER,
        "flow_key_of": flow_key_of,
        "FlowKey": FlowKey,
        "FK_NEW": FlowKey.__new__,
        "PSTATS": PARSE_STATS,
        "TEXC": time_exceeded,
        "DUNR": destination_unreachable,
        "BYPASS": DEGRADE_BYPASS,
        "DROPV": Verdict.DROP,
        "CONSV": Verdict.CONSUMED,
        "FWDD": Disposition.FORWARDED,
        "DBP": Disposition.DROPPED_BY_PLUGIN,
        "DNR": Disposition.DROPPED_NO_ROUTE,
        "DTTL": Disposition.DROPPED_TTL,
        "QUED": Disposition.QUEUED,
        "CONSD": Disposition.CONSUMED,
        "RGATE": GATE_ROUTING,
        "MAXR": table.max_records,
    }
    code = compile(source, "<repro.core.batch>", "exec")
    exec(code, namespace)
    fn = namespace["_batch_loop"]
    fn._source = source          # introspection for tests/debugging
    fn._plan = dict(plan)
    return fn


# ----------------------------------------------------------------------
# Source emission
# ----------------------------------------------------------------------
def _emit(plan) -> str:
    lines = []

    def blk(depth, text):
        for raw in textwrap.dedent(text).strip("\n").splitlines():
            lines.append("    " * depth + raw if raw.strip() else "")

    _emit_prologue(blk, plan)
    _emit_pass(blk, plan)
    blk(1, """
        finally:
            if fwd:
                # Guarded: a Counter materializes the key even on += 0,
                # which would diverge from a scalar run that never
                # forwarded anything.
                counters[FWDD] += fwd
            table.hits += hits
        return out
    """)
    return "\n".join(lines) + "\n"


def _emit_prologue(blk, plan):
    blk(0, """
        def _batch_loop(router, packets, now):
            aiu = router.aiu
            table = aiu.flow_table
            classify = aiu.classify
            buckets = table._buckets
            mask = table._mask
            free = table._free
            counters = router.counters
            pool = router._ctx_pool
            rtable = router.routing_table
            rlookup = rtable.lookup_fast
            ifget = router.interfaces.get
            schedulers = router._schedulers
            wp4 = aiu._width_plans.get(32, ())
            wp6 = aiu._width_plans.get(128, ())
            n = len(packets)
            counters["rx"] += n
            out = [FWDD] * n
            fwd = 0
            hits = 0
    """)
    if plan["tm"]:
        blk(1, """
            cells = router._tm_gate_cells
            tm_counts = aiu._tm_size_counts
            tm_len = len(tm_counts)
            tm_hist = aiu._tm_size_hist
        """)
    if plan["local"]:
        blk(1, "local_addrs = router.local_addresses")
    blk(1, """
        qmap = router._quarantined
        qget = qmap.get
        on_fault = router.faults.on_fault
        probe_ok = router.faults.probe_succeeded
    """)
    if plan["hooks"]:
        if plan["stamped"]:
            blk(1, "now = packets[0].arrival_time")
        # Read at call time: the tuple is refreshed per plan epoch, the
        # loop only per shape.
        blk(1, """
            for hook in router._batch_hooks:
                hook(now, n)
        """)
    # Pooled contexts, initialized once per batch (the scalar gate macro
    # re-assigns now/cycles/out_interface per call; the values are batch
    # invariants for everything but the sched gate's out_interface, and
    # ``now`` in a stamped loop, which sets it per plugin call).
    gates = list(plan["pre"])
    if plan["has_routing"] and plan["routing_active"]:
        gates.append((GATE_ROUTING, plan["routing_gi"]))
    if plan["has_sched"]:
        gates.append((GATE_PACKET_SCHEDULING, plan["sched_gi"]))
    for gate, gi in gates:
        blk(1, f"""
            ctx_{gi} = pool.get({gate!r})
            if ctx_{gi} is None:
                ctx_{gi} = PluginContext(router=router, gate={gate!r})
                pool[{gate!r}] = ctx_{gi}
        """)
        if not plan["stamped"]:
            blk(1, f"ctx_{gi}.now = now")
        blk(1, f"""
            ctx_{gi}.cycles = NULL
            ctx_{gi}.out_interface = None
        """)
    blk(1, "try:")


def _emit_classify(blk, plan, depth):
    """The classify stage for one packet: an inlined ``FlowTable.lookup``
    (hit) or install + filter-table walk (miss), state-identical to
    ``AIU.classify`` anchored at the first pre-routing gate."""
    blk(depth, """
        record = packet._fix
        if record is None:
            src_a = packet.src
            dst_a = packet.dst
            sv = src_a.value
            dv = dst_a.value
            sw = src_a.width
            proto = packet.protocol
            sp = packet.src_port
            dp = packet.dst_port
            fold = packet._flow_fold
            if fold is None:
                fold = sv ^ dv
                while fold >> 32:
                    fold = (fold & 0xFFFFFFFF) ^ (fold >> 32)
                fold ^= (proto << 24) ^ (sp << 12) ^ dp
                fold ^= fold >> 16
                packet._flow_fold = fold
                PSTATS.tuple_derivations += 1
            iifv = packet.iif
            record = buckets[fold & mask]
            while record is not None:
                rkey = record.key
                if (rkey.src == sv and rkey.src_width == sw
                        and rkey.dst == dv and rkey.protocol == proto
                        and rkey.sport == sp and rkey.dport == dp
                        and rkey.iif == iifv):
                    break
                record = record.hash_next
            if record is not None:
                record.last_used = now
                record.packets += 1
                size = packet._length
                if size < 0:
                    size = packet.length
                record.bytes += size
    """)
    if plan["clock"]:
        blk(depth + 2, "record.ref = True")
    else:
        blk(depth + 2, """
            if table._lru_head is not record:
                prevr = record.lru_prev
                nxtr = record.lru_next
                prevr.lru_next = nxtr
                if nxtr is not None:
                    nxtr.lru_prev = prevr
                else:
                    table._lru_tail = prevr
                headr = table._lru_head
                record.lru_prev = None
                record.lru_next = headr
                headr.lru_prev = record
                table._lru_head = record
        """)
    blk(depth + 2, "hits += 1")
    blk(depth + 1, """
        else:
            table.misses += 1
            fkey = packet._flow_key
            if fkey is None:
                # Inline flow_key_of: the header fields are already in
                # locals, so build the key with straight stores instead
                # of re-reading seven packet attributes through a call.
                fkey = FK_NEW(FlowKey)
                fkey.src = sv
                fkey.src_width = sw
                fkey.dst = dv
                fkey.protocol = proto
                fkey.sport = sp
                fkey.dport = dp
                fkey.iif = iifv
                packet._flow_key = fkey
    """)
    _emit_allocate(blk, plan, depth + 2)
    blk(depth + 2, f"""
        vslots = record.slots
        if len(vslots) == {plan['gate_count']}:
            for vslot in vslots:
                if vslot is not None:
                    vslot.instance = None
                    vslot.private = None
                    vslot.filter_record = None
        else:
            record.slots = [None] * {plan['gate_count']}
        record.key = fkey
        record.created = now
        record.last_used = now
        record.packets = 0
        record.bytes = 0
        record.route = None
        record.route_version = -1
        record.ref = False
        bidx = fold & mask
        record.bucket = bidx
        record.hash_next = None
        headh = buckets[bidx]
        if headh is None:
            record.hash_prev = None
            buckets[bidx] = record
        else:
            while headh.hash_next is not None:
                headh = headh.hash_next
            headh.hash_next = record
            record.hash_prev = headh
        record.lru_prev = None
        headr = table._lru_head
        record.lru_next = headr
        if headr is not None:
            headr.lru_prev = record
        table._lru_head = record
        if table._lru_tail is None:
            table._lru_tail = record
        table.active += 1
        table.births += 1
    """)
    if plan["tm"]:
        blk(depth + 2, """
            size = packet._length
            if size < 0:
                size = packet.length
            if size < tm_len:
                tm_counts[size] += 1
            else:
                tm_hist.observe(size)
        """)
    blk(depth + 2, """
        for _gname, _gi, _gstats, _gtable in (wp4 if sw == 32 else wp6):
            aiu.filter_lookups += 1
            _gstats[0] += 1
            _gstats[1] += 1
            frec = _gtable.lookup_fast(packet)
            if frec is None:
                continue
            _gstats[2] += 1
            fslot = record.slots[_gi]
            if fslot is None:
                fslot = record.slots[_gi] = GateSlot()
            finst = frec.instance
            fslot.instance = finst
            fslot.filter_record = frec
            frec.flows.add(record)
            binder = getattr(finst, "on_flow_created", None)
            if binder is not None:
                binder(record, fslot)
    """)
    blk(depth + 1, f"""
        packet._fix = record
        if record.slots[{plan['first_gi']}] is None:
            record.slots[{plan['first_gi']}] = GateSlot()
    """)


def _emit_allocate(blk, plan, depth):
    """Inline ``FlowTable._allocate`` minus ``reinit`` (emitted by the
    caller): pool pop, growing or reclaiming exactly as the scalar table
    would."""
    if not plan["bounded"]:
        blk(depth, """
            if not free:
                table._grow_pool()
            record = free.pop()
        """)
        return
    blk(depth, """
        if not free and table._allocated < MAXR:
            table._grow_pool()
        if free:
            record = free.pop()
        else:
            victim = table._lru_tail
            if victim is None:
                table._reclaim()    # raises: cap below one flow
    """)
    if plan["clock"]:
        blk(depth + 1, """
            while victim.ref:
                victim.ref = False
                table._lru_touch(victim)
                victim = table._lru_tail
        """)
    blk(depth + 1, """
        on_remove = table.on_remove
        if on_remove is not None:
            on_remove(victim)
        for vslot in victim.slots:
            if vslot is not None and vslot.filter_record is not None:
                vslot.filter_record.flows.discard(victim)
        prevv = victim.hash_prev
        nxtv = victim.hash_next
        if prevv is not None:
            prevv.hash_next = nxtv
        else:
            buckets[victim.bucket] = nxtv
        if nxtv is not None:
            nxtv.hash_prev = prevv
        victim.hash_prev = victim.hash_next = None
        prevv = victim.lru_prev
        if prevv is not None:
            prevv.lru_next = None
        else:
            table._lru_head = None
        table._lru_tail = prevv
        victim.lru_prev = None
        table.active -= 1
        table.evictions += 1
        # Recycle in place: the scalar path appends the victim to the
        # free list and immediately pops it back (LIFO), so handing the
        # victim straight to the installer is state-identical and skips
        # the list round trip.
        table.recycled += 1
        record = victim
    """)


def _emit_gate_call(blk, plan, depth, gate, gi):
    """One gate's plugin invocation for one packet: the scalar gate
    macro (``_gate_fast``) inlined — live quarantine interception, the
    plugin call, and inline fault mapping through ``on_fault``.  Returns
    the depth at which the caller must emit its verdict handling (it is
    skipped when no call happened)."""
    blk(depth, f"""
        record = packet._fix
        if record is None:
            ginst, record = classify(packet, {gate!r}, now=now)
            gslot = record.slots[{gi}]
        else:
            gslot = record.slots[{gi}]
            ginst = gslot.instance if gslot is not None else None
        if ginst is not None:
            probe = False
            call = True
            if qmap:
                dom = qget(ginst)
                if dom is not None:
                    action = dom.intercept(now)
                    if action is None:
                        probe = True
                    elif action == BYPASS:
                        call = False
                        ginst = None
                    else:
                        call = False
                        gdrop = True
            if call:
    """)
    d = depth + 2
    ctx_lines = [f"ctx_{gi}.slot = gslot", f"ctx_{gi}.flow = record"]
    if plan["stamped"]:
        ctx_lines.append(f"ctx_{gi}.now = now")
    if gate == GATE_PACKET_SCHEDULING:
        ctx_lines.append(f"ctx_{gi}.out_interface = oif")
    blk(d, "\n".join(ctx_lines))
    blk(d, f"""
        try:
            verdict = ginst.process(packet, ctx_{gi})
        except Exception as exc:
            verdict = on_fault(ginst, {gate!r}, exc, packet, now)
        else:
            if probe:
                probe_ok(ginst, now)
    """)
    return d


def _emit_tail(blk, plan, depth):
    """The per-packet tail: multicast/local/TTL demux, route, output."""
    # -- demux ---------------------------------------------------------
    blk(depth, """
        dst_a = packet.dst
        if ((dst_a.value >> 28) == 14 if dst_a.width == 32
                else (dst_a.value >> 120) == 255):
            out[i] = router._multicast_forward(packet, now, NULL)
            continue
    """)
    if plan["local"]:
        blk(depth, """
            if dst_a in local_addrs:
                out[i] = router._deliver_local(packet, now)
                continue
        """)
    blk(depth, """
        if packet.ttl <= 1:
            counters[DTTL] += 1
            router._send_icmp(TEXC(packet, router._icmp_source(packet)), now)
            out[i] = DTTL
            continue
    """)
    # -- route ---------------------------------------------------------
    memo = """
        rv = rtable.version
        if record.route_version == rv and record.route is not None:
            route = record.route
        else:
            route = rlookup(packet.dst)
            if route is not None:
                record.route = route
                record.route_version = rv
    """
    if plan["has_routing"] and plan["routing_active"]:
        rgi = plan["routing_gi"]
        if plan["tm"]:
            blk(depth, f"cells[{rgi}] += 1")
        blk(depth, "gdrop = False")
        d = _emit_gate_call(blk, plan, depth, GATE_ROUTING, rgi)
        blk(d, """
            if verdict == DROPV:
                gdrop = True
        """)
        blk(depth, """
            if gdrop:
                route = None
            else:
                route = packet.annotations.get("route")
                if route is None:
                    record = packet._fix
                    if record is not None:
        """)
        blk(depth + 3, memo)
        blk(depth + 2, """
            else:
                route = rlookup(packet.dst)
        """)
    elif plan["has_routing"]:
        blk(depth, """
            record = packet._fix
            if record is None:
                classify(packet, RGATE, now=now)
                record = packet._fix
        """)
        blk(depth, memo)
    else:
        blk(depth, """
            record = packet._fix
            if record is not None:
        """)
        blk(depth + 1, memo)
        blk(depth, """
            else:
                route = rlookup(packet.dst)
        """)
    blk(depth, """
        if route is None:
            counters[DNR] += 1
            router._send_icmp(DUNR(packet, router._icmp_source(packet)), now)
            out[i] = DNR
            continue
        packet.ttl -= 1
        oif = route.interface
        iface = ifget(oif)
        if iface is None:
            counters[DNR] += 1
            out[i] = DNR
            continue
        size = packet._length
        if size < 0:
            size = packet.length
        if size > iface.mtu:
            out[i] = router._output(packet, oif, now, NULL)
            continue
    """)
    # -- scheduling gate / bound scheduler -----------------------------
    blk(depth, "ginst = None")
    if plan["has_sched"]:
        sgi = plan["sched_gi"]
        d = depth
        if not plan["sched_active"]:
            # Plan-inactive sched gate still runs for packets whose FIX
            # was cleared mid-walk (a transform), as the scalar path does.
            blk(depth, "if packet._fix is None:")
            d = depth + 1
        blk(d, "gdrop = False")
        if plan["tm"]:
            blk(d, f"cells[{sgi}] += 1")
        dd = _emit_gate_call(blk, plan, d, GATE_PACKET_SCHEDULING, sgi)
        blk(dd, """
            if verdict == DROPV:
                gdrop = True
            elif verdict == CONSV:
                schedulers.setdefault(oif, ginst)
                router._kick(oif, now)
                counters[QUED] += 1
                out[i] = QUED
                continue
        """)
        blk(d, """
            if gdrop:
                counters[DBP] += 1
                out[i] = DBP
                continue
        """)
    blk(depth, """
        if ginst is None and schedulers:
            sched = schedulers.get(oif)
            if sched is not None:
                verdict = router._scheduler_process(sched, packet, oif, now, NULL)
                if verdict == CONSV:
                    router._kick(oif, now)
                    counters[QUED] += 1
                    out[i] = QUED
                    continue
                if verdict == DROPV:
                    counters[DBP] += 1
                    out[i] = DBP
                    continue
    """)
    # -- emit ----------------------------------------------------------
    if plan["plain"]:
        blk(depth, """
            nf = iface._next_free
            if nf < now:
                nf = now
            done = nf + size * 8 / iface.rate_bps
            iface._next_free = done
            iface.tx_packets += 1
            iface.tx_bytes += size
            packet.departure_time = done
            link = iface.link
            if link is not None:
                link.carry(iface, packet, done)
        """)
    else:
        blk(depth, "iface.output(packet, now)")
    blk(depth, "fwd += 1")


def _emit_pass(blk, plan):
    """The one loop shape: classify, each active pre gate, then the
    tail — one scalar-ordered pass per packet."""
    blk(2, "for i, packet in enumerate(packets):")
    if plan["stamped"]:
        blk(3, "now = packet.arrival_time")
    _emit_classify(blk, plan, 3)
    for gate, gi in plan["pre"]:
        if plan["tm"]:
            blk(3, f"cells[{gi}] += 1")
        blk(3, "gdrop = False")
        d = _emit_gate_call(blk, plan, 3, gate, gi)
        blk(d, """
            if verdict == DROPV:
                gdrop = True
            elif verdict == CONSV:
                counters[CONSD] += 1
                out[i] = CONSD
                continue
        """)
        blk(3, """
            if gdrop:
                counters[DBP] += 1
                out[i] = DBP
                continue
        """)
    _emit_tail(blk, plan, 3)
