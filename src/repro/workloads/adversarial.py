"""Adversarial traffic scenarios (docs/ROBUSTNESS.md "Overload protection").

Seeded, registry-based attack generators in the pluginizable-scenario
style: each scenario builds a deterministic three-phase timeline —

* **warmup** — background flows only, establishing their FlowRecords;
* **attack** — the hostile (or merely overwhelming) mix;
* **recovery** — background only again, long enough for an attached
  :class:`~repro.core.overload.OverloadGovernor` to walk back to NORMAL

— plus an *invariance check* over the report :func:`run_scenario`
produces.  The checks return violation strings (empty list = the router
held), so soak tests read as ``assert not sc.check(report)``.

Built-in scenarios (:func:`scenario_names`):

``syn_flood``
    Randomized five-tuple TCP SYNs against one victim service; none
    ever completes, so every packet births (and on a bounded table,
    evicts) a FlowRecord.
``cache_thrash``
    Uniform-random UDP five-tuples — no victim, no structure, just the
    flow cache's worst case.
``flash_crowd``
    *Legitimate* overload: Zipf destination popularity with
    heavy-tailed flow sizes (``zipf_flows`` +
    ``heavy_tailed_train_lengths``).  The invariance check demands the
    crowd is served, not shed.
``filter_churn``
    Background traffic under control-plane churn: filters and routes
    added/removed live, bumping the plan epoch and purging flows
    mid-traffic.  Batched runs must compile one loop per loop shape,
    never one per control op.

All randomness comes from ``random.Random(seed)`` — same seed, same
attack, bit for bit.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.batch import loop_key
from ..net.packet import Packet, make_tcp, make_udp
from .flows import FlowSpec, heavy_tailed_train_lengths, zipf_flows

#: Scenario registry: name -> builder(seed=..., **params) -> AttackScenario.
ATTACKS: Dict[str, Callable] = {}


def attack(name: str) -> Callable:
    """Register a scenario builder under ``name``."""

    def register(builder: Callable) -> Callable:
        ATTACKS[name] = builder
        return builder

    return register


def scenario(name: str, seed: int = 1, **params) -> "AttackScenario":
    """Build a registered scenario by name (seeded, deterministic)."""
    try:
        builder = ATTACKS[name]
    except KeyError:
        raise KeyError(
            f"unknown attack scenario {name!r}; known: {scenario_names()}"
        ) from None
    return builder(seed=seed, **params)


def scenario_names() -> List[str]:
    return sorted(ATTACKS)


#: One timed control-plane operation: (time, fn(router)).
ControlOp = Tuple[float, Callable]


@dataclass
class AttackScenario:
    """A three-phase adversarial timeline plus its invariance check."""

    name: str
    #: (time, packet, is_attack) per phase, time-ordered.
    warmup: List[Tuple[float, Packet, bool]]
    attack: List[Tuple[float, Packet, bool]]
    recovery: List[Tuple[float, Packet, bool]]
    #: The established flows the attack must not starve.
    background: List[FlowSpec]
    #: Control-plane churn interleaved with the attack phase by time.
    control_ops: List[ControlOp] = field(default_factory=list)
    #: (report) -> violation strings; empty means the invariants held.
    check: Optional[Callable[[dict], List[str]]] = None

    def phases(self) -> List[Tuple[str, List[Tuple[float, Packet, bool]]]]:
        return [
            ("warmup", self.warmup),
            ("attack", self.attack),
            ("recovery", self.recovery),
        ]


def _background_stream(
    flows: Sequence[FlowSpec],
    packets: int,
    start: float,
    gap: float,
    rng: random.Random,
) -> List[Tuple[float, Packet, bool]]:
    """``packets`` arrivals drawn uniformly over ``flows``, one per
    ``gap`` seconds — every flow stays warm."""
    out = []
    now = start
    for _ in range(packets):
        out.append((now, rng.choice(flows).packet(), False))
        now += gap
    return out


def _mix(
    flows: Sequence[FlowSpec],
    hostile: Callable[[random.Random], Packet],
    packets: int,
    mix: float,
    start: float,
    gap: float,
    rng: random.Random,
) -> List[Tuple[float, Packet, bool]]:
    """``packets`` arrivals, each hostile with probability ``mix``."""
    out = []
    now = start
    for _ in range(packets):
        if rng.random() < mix:
            out.append((now, hostile(rng), True))
        else:
            out.append((now, rng.choice(flows).packet(), False))
        now += gap
    return out


def _retention_check(
    name: str,
    min_retention: float = 0.9,
    min_delivery: float = 1.0,
    require_recovery: bool = True,
) -> Callable[[dict], List[str]]:
    """The standard invariance check: bounded memory, established-flow
    delivery (``min_delivery``) and fast-path retention
    (``min_retention``) during the attack, and full recovery after.
    ``min_delivery`` < 1 allows for the few packets a shedding governor
    costs an evicted flow before persistence re-admits it."""

    def check(report: dict) -> List[str]:
        violations = []
        capacity = report["capacity"]
        if capacity is not None and report["max_active"] > capacity:
            violations.append(
                f"{name}: occupancy {report['max_active']} exceeded "
                f"capacity {capacity}"
            )
        att = report["phases"]["attack"]
        if att["background_sent"]:
            delivered = att["background_forwarded"] / att["background_sent"]
            if delivered < min_delivery:
                violations.append(
                    f"{name}: only {delivered:.3f} of established-flow "
                    f"packets delivered during the attack "
                    f"(need >= {min_delivery})"
                )
            retention = att["background_hit_ratio"]
            if retention is not None and retention < min_retention:
                violations.append(
                    f"{name}: established flows kept only "
                    f"{retention:.3f} of their cached fast path "
                    f"(need >= {min_retention})"
                )
        rec = report["phases"]["recovery"]
        if rec["background_sent"]:
            delivered = rec["background_forwarded"] / rec["background_sent"]
            if delivered < min_delivery:
                violations.append(
                    f"{name}: only {delivered:.3f} of background packets "
                    f"delivered after the attack (need >= {min_delivery})"
                )
        if (
            require_recovery
            and report["tier_after_recovery"] is not None
            and report["tier_after_recovery"] != "normal"
        ):
            violations.append(
                f"{name}: governor still {report['tier_after_recovery']!r} "
                "after the recovery window"
            )
        return violations

    return check


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------
@attack("syn_flood")
def syn_flood(
    seed: int = 1,
    background_flows: int = 32,
    warmup_packets: int = 1000,
    attack_packets: int = 6000,
    recovery_packets: int = 3000,
    mix: float = 0.7,
    rate_pps: float = 20_000.0,
    victim: str = "20.0.0.80",
    iif: str = "atm0",
    min_retention: float = 0.9,
) -> AttackScenario:
    """TCP SYNs from random sources/ports against one victim service:
    every packet is a fresh five-tuple that never completes."""
    rng = random.Random(seed)
    flows = [
        FlowSpec(
            src=f"10.0.{i // 250}.{i % 250 + 1}",
            dst=f"20.0.0.{i % 40 + 1}",
            src_port=5000 + i,
            dst_port=9000,
            iif=iif,
        )
        for i in range(background_flows)
    ]

    def syn(r: random.Random) -> Packet:
        return make_tcp(
            f"66.{r.randrange(256)}.{r.randrange(256)}.{r.randrange(1, 255)}",
            victim,
            r.randrange(1024, 65536),
            80,
            iif=iif,
        )

    gap = 1.0 / rate_pps
    warm = _background_stream(flows, warmup_packets, 0.0, gap, rng)
    t = warm[-1][0] + gap
    storm = _mix(flows, syn, attack_packets, mix, t, gap, rng)
    t = storm[-1][0] + gap
    calm = _background_stream(flows, recovery_packets, t, gap, rng)
    return AttackScenario(
        name="syn_flood",
        warmup=warm,
        attack=storm,
        recovery=calm,
        background=flows,
        check=_retention_check(
            "syn_flood",
            min_retention=min_retention,
            min_delivery=min_retention,
        ),
    )


@attack("cache_thrash")
def cache_thrash(
    seed: int = 1,
    background_flows: int = 32,
    warmup_packets: int = 1000,
    attack_packets: int = 6000,
    recovery_packets: int = 3000,
    mix: float = 0.7,
    rate_pps: float = 20_000.0,
    iif: str = "atm0",
    min_retention: float = 0.9,
) -> AttackScenario:
    """Uniform-random UDP five-tuples — maximally cache-hostile traffic
    with no single victim."""
    rng = random.Random(seed)
    flows = [
        FlowSpec(
            src=f"10.1.{i // 250}.{i % 250 + 1}",
            dst=f"20.0.1.{i % 40 + 1}",
            src_port=5000 + i,
            dst_port=9000,
            iif=iif,
        )
        for i in range(background_flows)
    ]

    def thrash(r: random.Random) -> Packet:
        return make_udp(
            f"77.{r.randrange(256)}.{r.randrange(256)}.{r.randrange(1, 255)}",
            f"20.{r.randrange(1, 256)}.{r.randrange(256)}.{r.randrange(1, 255)}",
            r.randrange(1024, 65536),
            r.randrange(1, 65536),
            iif=iif,
        )

    gap = 1.0 / rate_pps
    warm = _background_stream(flows, warmup_packets, 0.0, gap, rng)
    t = warm[-1][0] + gap
    storm = _mix(flows, thrash, attack_packets, mix, t, gap, rng)
    t = storm[-1][0] + gap
    calm = _background_stream(flows, recovery_packets, t, gap, rng)
    return AttackScenario(
        name="cache_thrash",
        warmup=warm,
        attack=storm,
        recovery=calm,
        background=flows,
        check=_retention_check(
            "cache_thrash",
            min_retention=min_retention,
            min_delivery=min_retention,
        ),
    )


@attack("flash_crowd")
def flash_crowd(
    seed: int = 1,
    background_flows: int = 16,
    warmup_packets: int = 800,
    crowd_flows: int = 400,
    destinations: int = 16,
    alpha: float = 1.1,
    shape: float = 1.2,
    recovery_packets: int = 2000,
    rate_pps: float = 20_000.0,
    iif: str = "atm0",
) -> AttackScenario:
    """A legitimate flash crowd: many new flows with Zipf destination
    popularity and heavy-tailed (Pareto) flow sizes.  Unlike the floods,
    these flows repeat — the cache can still help — and the invariance
    check requires the crowd to be *served* (nothing shed), not just
    survived."""
    rng = random.Random(seed)
    flows = [
        FlowSpec(
            src=f"10.2.{i // 250}.{i % 250 + 1}",
            dst=f"20.0.2.{i % 40 + 1}",
            src_port=5000 + i,
            dst_port=9000,
            iif=iif,
        )
        for i in range(background_flows)
    ]
    crowd = zipf_flows(
        crowd_flows, destinations=destinations, alpha=alpha,
        seed=seed + 1, dst_net="20.3", iif=iif,
    )
    lengths = heavy_tailed_train_lengths(
        crowd_flows, shape=shape, minimum=1, cap=64, seed=seed + 2
    )
    # The crowd's packets, flow trains shuffled together arrival-style.
    crowd_packets: List[FlowSpec] = [
        spec for spec, n in zip(crowd, lengths) for _ in range(n)
    ]
    rng.shuffle(crowd_packets)

    gap = 1.0 / rate_pps
    warm = _background_stream(flows, warmup_packets, 0.0, gap, rng)
    t = warm[-1][0] + gap
    storm = []
    for spec in crowd_packets:
        # One background packet rides along every 4th arrival so the
        # established flows stay observable through the crowd.
        if rng.random() < 0.25:
            storm.append((t, rng.choice(flows).packet(), False))
            t += gap
        storm.append((t, spec.packet(), True))
        t += gap
    calm = _background_stream(flows, recovery_packets, t + gap, gap, rng)

    def check(report: dict) -> List[str]:
        violations = _retention_check(
            "flash_crowd", min_retention=0.0, min_delivery=0.99
        )(report)
        att = report["phases"]["attack"]
        if att["attack_sent"]:
            served = att["attack_forwarded"] / att["attack_sent"]
            if served < 0.99:
                violations.append(
                    f"flash_crowd: only {served:.3f} of the crowd was "
                    "served (legitimate overload must not be shed)"
                )
        return violations

    return AttackScenario(
        name="flash_crowd",
        warmup=warm,
        attack=storm,
        recovery=calm,
        background=flows,
        check=check,
    )


@attack("filter_churn")
def filter_churn(
    seed: int = 1,
    background_flows: int = 24,
    warmup_packets: int = 800,
    attack_packets: int = 4000,
    recovery_packets: int = 1500,
    churn_every: int = 200,
    rate_pps: float = 20_000.0,
    iif: str = "atm0",
    gate: str = "ip_options",
) -> AttackScenario:
    """Filter/route churn under live traffic: every ``churn_every``
    packets a filter is installed or removed at ``gate`` and a route
    flaps — each op bumps the plan epoch and dirties the filter DAG,
    and filter removal purges derived flows mid-traffic.  Batch loops
    are keyed by shape, so the check demands exactly one compile per
    new loop shape (the gate turning active or idle), not one per op."""
    rng = random.Random(seed)
    flows = [
        FlowSpec(
            src=f"10.3.{i // 250}.{i % 250 + 1}",
            dst=f"20.0.3.{i % 40 + 1}",
            src_port=5000 + i,
            dst_port=9000,
            iif=iif,
        )
        for i in range(background_flows)
    ]
    gap = 1.0 / rate_pps
    warm = _background_stream(flows, warmup_packets, 0.0, gap, rng)
    t0 = warm[-1][0] + gap
    storm = _background_stream(flows, attack_packets, t0, gap, rng)
    # Tag the churn-phase packets as "attack" so phase accounting still
    # separates them, even though the traffic itself is benign.
    storm = [(t, p, False) for (t, p, _a) in storm]
    calm = _background_stream(
        flows, recovery_packets, storm[-1][0] + gap, gap, rng
    )

    ops: List[ControlOp] = []
    live: List[object] = []

    def churn(router) -> None:
        aiu = router.aiu
        if live and rng.random() < 0.5:
            record = live.pop(rng.randrange(len(live)))
            aiu.remove_filter(record)
        else:
            src = f"10.3.0.{rng.randrange(1, 255)}"
            live.append(aiu.create_filter(gate, f"{src}, *, UDP"))
        prefix = f"30.{rng.randrange(1, 200)}.0.0/16"
        if rng.random() < 0.5:
            router.routing_table.add(prefix, iif)
        else:
            router.routing_table.remove(prefix)

    for k in range(churn_every, attack_packets, churn_every):
        ops.append((t0 + k * gap, churn))

    def check(report: dict) -> List[str]:
        violations = _retention_check(
            "filter_churn", min_retention=0.0, require_recovery=True
        )(report)
        # Flow purges on filter removal may re-install background flows;
        # the invariant is delivery, not cache residency.
        compiles = report.get("loop_compiles")
        if compiles is not None and compiles != report["loop_shapes"]:
            violations.append(
                f"filter_churn: {compiles} batch-loop compiles for "
                f"{report['loop_shapes']} new loop shapes (a same-shape "
                "control op recompiled)"
            )
        return violations

    return AttackScenario(
        name="filter_churn",
        warmup=warm,
        attack=storm,
        recovery=calm,
        background=flows,
        control_ops=ops,
        check=check,
    )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_scenario(
    router,
    sc: AttackScenario,
    batch_size: int = 0,
    sample_every: int = 64,
) -> dict:
    """Drive a scenario through ``router`` and report what happened.

    ``batch_size`` > 0 feeds the attack through ``receive_batch`` in
    chunks (each chunk stamped with its first arrival time); 0 uses the
    scalar ``receive``.  Flow-table occupancy is sampled every
    ``sample_every`` packets; ``max_active`` is the high-water mark.
    The report is what the scenario's :attr:`AttackScenario.check`
    consumes.  On a single :class:`~repro.core.router.Router` it also
    carries ``loop_compiles`` (batch loops compiled during the run) and
    ``loop_shapes`` (distinct loop shapes the run's batches used that
    were not compiled before it); both are ``None`` on fanout routers.

    Routers mutate the packets they process (flow index, TTL,
    annotations), so every delivered packet is a per-run clone — the
    scenario's timeline stays pristine and can be replayed against any
    number of routers (with/without a governor, scalar/batched) for
    like-for-like comparison.
    """
    table = router.aiu.flow_table
    gov = router._overload
    ok = ("forwarded", "queued", "local")
    report: dict = {
        "scenario": sc.name,
        "capacity": (
            gov.capacity() if gov is not None else table.max_records
        ),
        "max_active": 0,
        "phases": {},
        "tier_after_attack": None,
        "tier_after_recovery": None,
        "loop_compiles": None,
        "loop_shapes": None,
    }
    loops = getattr(router, "_batch_loops", None)   # fanout routers: None
    shapes: set = set()
    cached = set(loops) if loops is not None else set()
    compiles_before = getattr(router, "loop_compiles", 0)
    for phase_name, timeline in sc.phases():
        ops = (
            sorted(sc.control_ops, key=lambda op: op[0])
            if phase_name == "attack"
            else []
        )
        op_index = 0
        stats = {
            "background_sent": 0,
            "background_forwarded": 0,
            "attack_sent": 0,
            "attack_forwarded": 0,
            "shed": 0,
            "misses": 0,
            "background_hit_ratio": None,
        }
        misses_before = table.misses
        pending: List[Tuple[float, Packet, bool]] = []

        def flush() -> None:
            if not pending:
                return
            dispositions = router.receive_batch(
                [p for (_t, p, _a) in pending], now=pending[0][0]
            )
            if loops is not None:
                # The plan the batch just ran is still current: no
                # control op lands inside a flush.
                shape = loop_key(router)
                if shape is not None:
                    shapes.add(shape)
            for (_t, _p, is_attack), disposition in zip(pending, dispositions):
                _account(stats, is_attack, disposition, ok)
            pending.clear()

        for i, (t, packet, is_attack) in enumerate(timeline):
            while op_index < len(ops) and ops[op_index][0] <= t:
                flush()
                ops[op_index][1](router)
                op_index += 1
            packet = _fresh(packet)
            if batch_size > 0:
                pending.append((t, packet, is_attack))
                if len(pending) >= batch_size:
                    flush()
            else:
                disposition = router.receive(packet, now=t)
                _account(stats, is_attack, disposition, ok)
            if i % sample_every == 0:
                report["max_active"] = max(report["max_active"], table.active)
        flush()
        report["max_active"] = max(report["max_active"], table.active)

        stats["misses"] = table.misses - misses_before
        if stats["background_sent"]:
            # Attack tuples are (near-)unique, so attack misses ~=
            # attack packets admitted to lookup; what is left of the
            # phase's miss delta is established flows losing their
            # cached records and re-installing.
            background_misses = max(0, stats["misses"] - stats["attack_sent"])
            stats["background_hit_ratio"] = max(
                0.0,
                1.0 - background_misses / stats["background_sent"],
            )
        report["phases"][phase_name] = stats
        if gov is not None:
            if phase_name == "attack":
                report["tier_after_attack"] = gov.tier
            elif phase_name == "recovery":
                report["tier_after_recovery"] = gov.tier
    if loops is not None:
        report["loop_compiles"] = router.loop_compiles - compiles_before
        report["loop_shapes"] = len(shapes - cached)
    return report


def _fresh(packet: Packet) -> Packet:
    """A pristine per-run clone: shallow-copied with its own annotation
    dict and no cached classification state."""
    clone = copy.copy(packet)
    clone.annotations = dict(packet.annotations)
    clone.fix = None
    return clone


def _account(stats: dict, is_attack: bool, disposition: str, ok) -> None:
    if is_attack:
        stats["attack_sent"] += 1
        if disposition in ok:
            stats["attack_forwarded"] += 1
    else:
        stats["background_sent"] += 1
        if disposition in ok:
            stats["background_forwarded"] += 1
    if disposition == "dropped_overload":
        stats["shed"] += 1
