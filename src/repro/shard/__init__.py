"""Sharded multi-worker data path (RSS-style flow-hash dispatch).

See :mod:`repro.shard.sharded` for the front end,
:mod:`repro.shard.dispatch` for the deterministic dispatch rule and the
pickle-light handoff codec, and :mod:`repro.shard.mp` for the forked
worker pool.  The control-plane fanout over shards is
:class:`repro.mgr.fanout.FanoutLibrary`.
"""

from .dispatch import decode_packet, dispatch_packets, dispatch_wire, encode_packet, shard_of
from .mp import ShardWorkerPool, mp_available, usable_cpus
from .sharded import ShardedRouter

__all__ = [
    "ShardedRouter",
    "ShardWorkerPool",
    "decode_packet",
    "dispatch_packets",
    "dispatch_wire",
    "encode_packet",
    "mp_available",
    "shard_of",
    "usable_cpus",
]
