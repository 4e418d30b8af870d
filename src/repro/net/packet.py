"""The packet object — our analogue of the BSD ``mbuf``.

A :class:`Packet` carries the parsed header fields the data path needs
(addresses, protocol, ports, input interface) plus the mbuf-style metadata
the paper relies on: the **flow index** (``fix``) written by the AIU at the
first gate and consumed by later gates, arrival timestamps, and scratch
space for plugins.

Packets can also round-trip to real wire bytes (``serialize``/``parse``)
so plugins that authenticate or transform byte ranges (IPsec) and option
walkers see genuine encodings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .addresses import IPAddress, IPV4_WIDTH, IPV6_WIDTH
from .headers import (
    HeaderError,
    IPv4Header,
    IPv6Header,
    OptionsHeader,
    OptionTLV,
    PROTO_HOPOPTS,
    PROTO_TCP,
    PROTO_UDP,
    TCPHeader,
    UDPHeader,
)

_packet_ids = itertools.count(1)

# Header sizes as module globals: the cold path of ``Packet.length``
# loads these once each instead of two attribute lookups per constant.
_V4_HDR = IPv4Header.HEADER_LEN
_V6_HDR = IPv6Header.HEADER_LEN
_TCP_HDR = TCPHeader.HEADER_LEN
_UDP_HDR = UDPHeader.HEADER_LEN


class ParseStats:
    """Module-wide counter of five-tuple fold derivations.

    Every place that folds a five-tuple from header fields — here, or
    the inline fold in the compiled batch loops — bumps
    ``tuple_derivations``, so tests can assert the cache contract: one
    derivation per packet lifetime, zero when :meth:`Packet.parse`
    already warmed the caches.
    """

    __slots__ = ("tuple_derivations",)

    def __init__(self):
        self.tuple_derivations = 0


PARSE_STATS = ParseStats()


def fold_five_tuple(src: int, dst: int, protocol: int, sport: int, dport: int) -> int:
    """The paper's 17-cycle fold of the five-tuple into 32 bits.

    Shared by :meth:`repro.aiu.filters.FlowKey.hash_index` and the
    per-packet hash cache so both always agree bit-for-bit; callers mask
    the result down to the bucket-array size.
    """
    PARSE_STATS.tuple_derivations += 1
    folded = src ^ dst
    # Fold 128-bit addresses down to 32 bits.
    while folded >> 32:
        folded = (folded & 0xFFFFFFFF) ^ (folded >> 32)
    folded ^= (protocol << 24) ^ (sport << 12) ^ dport
    folded ^= folded >> 16
    return folded


def fold_flow_label(src: int, flow_label: int) -> int:
    """The cheaper (src, IPv6 flow label) fold (``FLOW_LABEL_HASH``)."""
    folded = src ^ flow_label
    while folded >> 32:
        folded = (folded & 0xFFFFFFFF) ^ (folded >> 32)
    folded ^= folded >> 16
    return folded


@dataclass(slots=True)
class Packet:
    """A routed datagram plus its mbuf metadata.

    Transport ports are 0 for protocols without ports; the classifier
    treats them as exact values, matching the paper's six-tuple model.

    The flow index (``fix``) and the derived classification caches
    (flow key, five-tuple hash, total length) share one lifecycle:
    assigning ``packet.fix = None`` — the established "this is now a
    different flow" signal used by the IPsec plugins after
    en/decapsulation — also drops every cache.  Crossing a wire
    (``NetworkInterface.arrive``) drops only the iif-dependent state
    (the flow index and the flow key), so a forwarded packet folds its
    five-tuple and sizes itself once per lifetime, not once per hop.
    """

    src: IPAddress
    dst: IPAddress
    protocol: int
    src_port: int = 0
    dst_port: int = 0
    iif: Optional[str] = None
    payload: bytes = b""
    ttl: int = 64
    tos: int = 0
    flow_label: int = 0
    hop_options: List[OptionTLV] = field(default_factory=list)

    # mbuf metadata — not part of the wire format.
    arrival_time: float = 0.0
    departure_time: Optional[float] = None
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    annotations: Dict[str, Any] = field(default_factory=dict)

    # Fast-path caches (see class docstring).  ``_flow_key`` is written
    # by the AIU layer (a cached repro.aiu.filters.FlowKey); the folds
    # and length are computed here.
    _fix: Optional[Any] = field(default=None, init=False, repr=False, compare=False)
    _flow_key: Optional[Any] = field(default=None, init=False, repr=False, compare=False)
    _flow_fold: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    _label_fold: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    _length: int = field(default=-1, init=False, repr=False, compare=False)
    _length_payload: int = field(default=-1, init=False, repr=False, compare=False)
    #: Nodes visited on the current topology journey (repro.topo):
    #: set to 1 at the entry node, bumped per transit delivery, checked
    #: against ``Topology.max_hops``.  0 means "never entered", which is
    #: how a packet a hop re-injected (tunnel decapsulation) is told
    #: apart from one already in flight.
    hops: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.src.width != self.dst.width:
            raise ValueError("src/dst address family mismatch")

    # ------------------------------------------------------------------
    # Flow index + cache lifecycle
    # ------------------------------------------------------------------
    @property
    def fix(self) -> Optional[Any]:
        """Flow index: the AIU flow-table row handle (mbuf metadata)."""
        return self._fix

    @fix.setter
    def fix(self, value: Optional[Any]) -> None:
        self._fix = value
        if value is None:
            # The packet is (potentially) a different flow now: drop the
            # derived caches so the next classification recomputes them.
            self._flow_key = None
            self._flow_fold = None
            self._label_fold = None
            self._length = -1

    def invalidate_flow_cache(self) -> None:
        """Drop cached classification state after mutating the five-tuple,
        incoming interface, or headers.  Equivalent to ``fix = None``."""
        self.fix = None

    # ------------------------------------------------------------------
    # Classification views
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        return 6 if self.src.width == IPV6_WIDTH else 4

    @property
    def is_ipv6(self) -> bool:
        return self.src.width == IPV6_WIDTH

    def five_tuple(self) -> Tuple[int, int, int, int, int]:
        """⟨src, dst, proto, sport, dport⟩ as plain ints (flow-table key)."""
        return (
            self.src.value,
            self.dst.value,
            self.protocol,
            self.src_port,
            self.dst_port,
        )

    def six_tuple(self) -> Tuple[int, int, int, int, int, Optional[str]]:
        """The paper's filter six-tuple, with the incoming interface."""
        return self.five_tuple() + (self.iif,)

    def flow_fold32(self) -> int:
        """The 32-bit five-tuple fold, computed once per packet lifetime."""
        fold = self._flow_fold
        if fold is None:
            fold = fold_five_tuple(
                self.src.value,
                self.dst.value,
                self.protocol,
                self.src_port,
                self.dst_port,
            )
            self._flow_fold = fold
        return fold

    def flow_label_fold32(self) -> int:
        """The 32-bit (src, flow label) fold, cached like the five-tuple."""
        fold = self._label_fold
        if fold is None:
            fold = fold_flow_label(self.src.value, self.flow_label)
            self._label_fold = fold
        return fold

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def header_length(self) -> int:
        if "frag" in self.annotations:
            # A fragment's payload is the raw byte slice (the transport
            # header, if any, is inside the first slice already).
            return IPv4Header.HEADER_LEN
        base = IPv6Header.HEADER_LEN if self.is_ipv6 else IPv4Header.HEADER_LEN
        if self.hop_options:
            base += len(OptionsHeader(0, list(self.hop_options)).serialize())
        if self.protocol == PROTO_TCP:
            base += TCPHeader.HEADER_LEN
        elif self.protocol == PROTO_UDP:
            base += UDPHeader.HEADER_LEN
        return base

    @property
    def length(self) -> int:
        """Total datagram length in bytes.

        Cached: the data path reads this several times per packet (MTU
        check, serialization delay, byte counters).  The cache revalidates
        against the payload length and is dropped with ``fix = None``, so
        transforms that change headers (IPsec) recompute it.

        The cold path inlines ``header_length`` for the plain UDP/TCP
        shapes (no fragments, no options): the first length read happens
        on hot code — the telemetry miss seam, byte counters — where the
        two extra property frames are measurable.
        """
        payload_len = len(self.payload)
        if self._length >= 0 and payload_len == self._length_payload:
            return self._length
        if self.annotations or self.hop_options:
            base = self.header_length
        else:
            base = _V6_HDR if self.src.width == IPV6_WIDTH else _V4_HDR
            protocol = self.protocol
            if protocol == PROTO_TCP:
                base += _TCP_HDR
            elif protocol == PROTO_UDP:
                base += _UDP_HDR
        value = base + payload_len
        self._length = value
        self._length_payload = payload_len
        return value

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def serialize(self) -> bytes:
        """Encode the packet as a real IPv4/IPv6 datagram."""
        payload = self.payload
        if type(payload) is not bytes:
            payload = bytes(payload)    # zero-copy parse stores a memoryview
        transport = b""
        if self.protocol == PROTO_UDP:
            transport = UDPHeader(
                self.src_port, self.dst_port, UDPHeader.HEADER_LEN + len(payload)
            ).serialize()
        elif self.protocol == PROTO_TCP:
            transport = TCPHeader(self.src_port, self.dst_port).serialize()
        body = transport + payload

        if self.is_ipv6:
            next_header = self.protocol
            ext = b""
            if self.hop_options:
                ext = OptionsHeader(self.protocol, list(self.hop_options)).serialize()
                next_header = PROTO_HOPOPTS
            header = IPv6Header(
                src=self.src,
                dst=self.dst,
                next_header=next_header,
                payload_length=len(ext) + len(body),
                hop_limit=self.ttl,
                traffic_class=self.tos,
                flow_label=self.flow_label,
            )
            return header.serialize() + ext + body
        if self.hop_options:
            raise HeaderError("hop-by-hop options only exist in IPv6")
        header = IPv4Header(
            src=self.src,
            dst=self.dst,
            protocol=self.protocol,
            total_length=IPv4Header.HEADER_LEN + len(body),
            ttl=self.ttl,
            tos=self.tos,
        )
        return header.serialize() + body

    @classmethod
    def parse(cls, data: bytes, iif: Optional[str] = None) -> "Packet":
        """Decode a wire datagram into a Packet.

        Zero-copy: the payload is a :class:`memoryview` slice into the
        caller's buffer, never a copied ``bytes`` (a ~64 B payload copy
        per packet was measurable at batch rates).  Consumers that need
        real bytes — serialization, ICV computation — convert at the
        edge with ``bytes(packet.payload)``; everything the data path
        does with a payload (``len``, slicing, equality, hashing into an
        HMAC) accepts a buffer view directly.

        Parse also warms every derived cache the classify stage would
        otherwise compute per packet: total length, the five-tuple fold
        (counted by :data:`PARSE_STATS`, asserted once-per-packet by
        tests), and the packet's flow-key view.
        """
        if not data:
            raise HeaderError("empty datagram")
        view = memoryview(data)
        version = data[0] >> 4
        if version == 4:
            header = IPv4Header.parse(data)
            offset = IPv4Header.HEADER_LEN
            protocol = header.protocol
            src, dst = header.src, header.dst
            ttl, tos, flow_label = header.ttl, header.tos, 0
            hop_options: List[OptionTLV] = []
            body = view[offset : header.total_length]
        elif version == 6:
            header6 = IPv6Header.parse(data)
            offset = IPv6Header.HEADER_LEN
            end = offset + header6.payload_length
            protocol = header6.next_header
            hop_options = []
            if protocol == PROTO_HOPOPTS:
                opts, consumed = OptionsHeader.parse(view[offset:end])
                hop_options = opts.options
                protocol = opts.next_header
                offset += consumed
            src, dst = header6.src, header6.dst
            ttl, tos = header6.hop_limit, header6.traffic_class
            flow_label = header6.flow_label
            body = view[offset:end]
        else:
            raise HeaderError(f"unknown IP version {version}")

        src_port = dst_port = 0
        payload = body
        annotations = None
        if protocol == PROTO_UDP and len(body) >= UDPHeader.HEADER_LEN:
            udp = UDPHeader.parse(body)
            src_port, dst_port = udp.src_port, udp.dst_port
            payload = body[UDPHeader.HEADER_LEN :]
        elif protocol == PROTO_TCP and len(body) >= TCPHeader.HEADER_LEN:
            tcp = TCPHeader.parse(body)
            src_port, dst_port = tcp.src_port, tcp.dst_port
            payload = body[TCPHeader.HEADER_LEN :]
            annotations = {"tcp_seq": tcp.seq, "tcp_flags": tcp.flags}

        packet = cls(
            src=src,
            dst=dst,
            protocol=protocol,
            src_port=src_port,
            dst_port=dst_port,
            iif=iif,
            payload=payload,
            ttl=ttl,
            tos=tos,
            flow_label=flow_label,
            hop_options=hop_options,
        )
        if annotations:
            packet.annotations.update(annotations)
        packet.length       # wire packets know their length; warm the cache
        packet.flow_fold32()  # ...and the five-tuple fold the AIU hashes on
        return packet

    def copy(self) -> "Packet":
        """A shallow copy with fresh mbuf metadata (new packet id, no FIX)."""
        return Packet(
            src=self.src,
            dst=self.dst,
            protocol=self.protocol,
            src_port=self.src_port,
            dst_port=self.dst_port,
            iif=self.iif,
            payload=self.payload,
            ttl=self.ttl,
            tos=self.tos,
            flow_label=self.flow_label,
            hop_options=list(self.hop_options),
        )

    def __repr__(self) -> str:
        return (
            f"Packet(#{self.packet_id} {self.src}:{self.src_port} -> "
            f"{self.dst}:{self.dst_port} proto={self.protocol} "
            f"len={self.length} iif={self.iif})"
        )


def make_udp(
    src: str,
    dst: str,
    src_port: int,
    dst_port: int,
    payload_size: int = 0,
    iif: Optional[str] = None,
    **kwargs,
) -> Packet:
    """Convenience constructor for a UDP packet from string addresses."""
    return Packet(
        src=IPAddress.parse(src),
        dst=IPAddress.parse(dst),
        protocol=PROTO_UDP,
        src_port=src_port,
        dst_port=dst_port,
        payload=b"\x00" * payload_size,
        iif=iif,
        **kwargs,
    )


def make_tcp(
    src: str,
    dst: str,
    src_port: int,
    dst_port: int,
    payload_size: int = 0,
    iif: Optional[str] = None,
    seq: Optional[int] = None,
    **kwargs,
) -> Packet:
    """Convenience constructor for a TCP packet from string addresses.

    ``seq`` (if given) rides in ``annotations['tcp_seq']`` — the field
    the TCP-monitor plugin reads.
    """
    packet = Packet(
        src=IPAddress.parse(src),
        dst=IPAddress.parse(dst),
        protocol=PROTO_TCP,
        src_port=src_port,
        dst_port=dst_port,
        payload=b"\x00" * payload_size,
        iif=iif,
        **kwargs,
    )
    if seq is not None:
        packet.annotations["tcp_seq"] = seq
    return packet
