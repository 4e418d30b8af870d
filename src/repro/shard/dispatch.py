"""RSS-style deterministic flow-hash dispatch and the shard handoff codec.

Shard selection reuses the data path's deterministic five-tuple fold
(:func:`repro.net.packet.fold_five_tuple`, cached per packet lifetime as
``Packet.flow_fold32``) — **never** builtin ``hash()``, which is
process-seeded (``PYTHONHASHSEED``) and would send the same flow to
different shards in different processes.  Because the fold is a pure
function of the five-tuple, every packet of a flow lands on the same
shard in arrival order, which is what gives the sharded router per-flow
disposition and ordering equivalence with a single router (RP209 lints
this module against ``hash()`` regressions).

The handoff codec is pickle-light by construction: a packet encodes to a
flat tuple of ints / interned strings / ``bytes`` (no ``IPAddress`` or
``memoryview`` objects, both of which are either slow or impossible to
pickle), so a batch of descriptors crosses a ``multiprocessing`` pipe as
one cheap C-pickle.  The fold is computed on the encode side and carried
in the descriptor — exactly like a NIC writing the RSS hash into the RX
descriptor — so the dispatcher's per-packet work is one modulo and one
list append, and the decode side never re-derives the tuple
(``PARSE_STATS.tuple_derivations`` stays one-per-lifetime).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..net.addresses import IPAddress
from ..net.packet import Packet

#: Descriptor layout (all picklable primitives):
#: (src_value, dst_value, width, protocol, src_port, dst_port, iif,
#:  payload_bytes, ttl, tos, flow_label, fold, packet_id, arrival_time)
WireDescriptor = Tuple

_P_NEW = Packet.__new__
_A_NEW = IPAddress.__new__


def shard_of(fold: int, nshards: int) -> int:
    """Shard index for a 32-bit five-tuple fold."""
    return fold % nshards


def encode_packet(packet: Packet) -> WireDescriptor:
    """Packet -> primitive descriptor tuple (the RX-ring view).

    Computes the five-tuple fold if the packet has not folded yet (one
    derivation per lifetime, same contract as the data path) and carries
    it in the descriptor so dispatchers and decoders never re-derive.
    """
    payload = packet.payload
    return (
        packet.src.value,
        packet.dst.value,
        packet.src.width,
        packet.protocol,
        packet.src_port,
        packet.dst_port,
        packet.iif,
        payload if type(payload) is bytes else bytes(payload),
        packet.ttl,
        packet.tos,
        packet.flow_label,
        packet.flow_fold32(),
        packet.packet_id,
        packet.arrival_time,
    )


def decode_packet(desc: WireDescriptor) -> Packet:
    """Descriptor tuple -> Packet, bypassing the dataclass constructor.

    ``Packet`` is a slots dataclass; building it through ``__init__``
    costs default-factory calls and ``__post_init__`` validation the
    descriptor already guarantees.  Direct slot stores decode in ~0.6us
    — small enough that per-shard decode parallelizes away.  The carried
    fold is installed into the packet's hash cache, mirroring a NIC-
    computed RSS hash: the five-tuple is never folded twice.
    """
    (
        sv, dv, width, proto, sport, dport, iif,
        payload, ttl, tos, label, fold, pid, at,
    ) = desc
    src = _A_NEW(IPAddress)
    src.value = sv
    src.width = width
    dst = _A_NEW(IPAddress)
    dst.value = dv
    dst.width = width
    pkt = _P_NEW(Packet)
    pkt.src = src
    pkt.dst = dst
    pkt.protocol = proto
    pkt.src_port = sport
    pkt.dst_port = dport
    pkt.iif = iif
    pkt.payload = payload
    pkt.ttl = ttl
    pkt.tos = tos
    pkt.flow_label = label
    pkt.hop_options = []
    pkt.arrival_time = at
    pkt.departure_time = None
    pkt.packet_id = pid
    pkt.annotations = {}
    pkt._fix = None
    pkt._flow_key = None
    pkt._flow_fold = fold
    pkt._label_fold = None
    pkt._length = -1
    pkt._length_payload = -1
    pkt.hops = 0
    return pkt


def dispatch_wire(
    descs: Sequence[WireDescriptor], nshards: int
) -> Tuple[List[list], List[List[int]]]:
    """Bucket descriptors per shard, preserving arrival order.

    Returns ``(buckets, indices)`` where ``indices[s][k]`` is the
    position of ``buckets[s][k]`` in the input, so dispositions scatter
    back to input order.  The fold rides at descriptor slot 11; the
    per-packet cost is one modulo and two appends.
    """
    buckets: List[list] = [[] for _ in range(nshards)]
    indices: List[List[int]] = [[] for _ in range(nshards)]
    appends = [b.append for b in buckets]
    iappends = [ix.append for ix in indices]
    for i, desc in enumerate(descs):
        s = desc[11] % nshards
        appends[s](desc)
        iappends[s](i)
    return buckets, indices


def dispatch_packets(
    packets: Sequence[Packet], nshards: int
) -> Tuple[List[list], List[List[int]]]:
    """In-process twin of :func:`dispatch_wire` over live Packet objects."""
    buckets: List[list] = [[] for _ in range(nshards)]
    indices: List[List[int]] = [[] for _ in range(nshards)]
    appends = [b.append for b in buckets]
    iappends = [ix.append for ix in indices]
    for i, packet in enumerate(packets):
        s = packet.flow_fold32() % nshards
        appends[s](packet)
        iappends[s](i)
    return buckets, indices
