"""Protocol-independent decoding of raw Ethernet frames.

Only headers below the application layer are decoded: Ethernet II (with
optional 802.1Q tag), ARP, IPv4 and the TCP/UDP port block. Payload
content is never inspected; only its length and where it starts are
recorded, so two frames that differ only in payload bytes produce equal
metadata. A UDP payload length comes from the length field and may run
past the end of the frame; a consumer that slices the payload out
checks that bound itself. Checksums are not validated: this is
capture-time metadata extraction, not stack correctness.

Decoding is total over arbitrary byte input: every frame yields either
a :class:`PacketMeta` or one of the typed :class:`ParseError`
subclasses, never an unrelated exception. Frames whose ethertype or IP
protocol is not understood come back with only the layers that were
recognised, which keeps MAC-level rules applicable to them.
"""

import struct
from dataclasses import dataclass
from enum import Enum

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_VLAN = 0x8100

PROTO_TCP = 6
PROTO_UDP = 17

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10

_ETH_MIN = 14
_ARP_BODY = 28

_ARP_FIXED = struct.Struct(">HHBBH")
_UDP_HDR = struct.Struct(">HHHH")


class ParseError(ValueError):
    """Base class for frame decoding failures."""


class TruncatedFrame(ParseError):
    """Frame is shorter than the headers its own type fields promise."""


class MalformedArp(ParseError):
    """ARP opcode is neither request (1) nor reply (2)."""


class Direction(Enum):
    RX = "rx"
    TX = "tx"


class ArpOp(Enum):
    REQUEST = 1
    REPLY = 2


def format_mac(raw: bytes) -> str:
    return raw.hex(":")


def format_ip(raw: bytes) -> str:
    return "%d.%d.%d.%d" % (raw[0], raw[1], raw[2], raw[3])


@dataclass(frozen=True)
class TransportMeta:
    src_port: int
    dst_port: int
    payload_len: int
    payload_offset: int  # frame offset of the first L4 payload octet
    tcp_flags: int | None = None  # raw flag octet; None for UDP


@dataclass(frozen=True)
class Ipv4Meta:
    src_ip: str
    dst_ip: str
    protocol: int
    l4: TransportMeta | None = None


@dataclass(frozen=True)
class ArpMeta:
    op: ArpOp
    sender_mac: str
    sender_ip: str
    target_mac: str
    target_ip: str


@dataclass(frozen=True)
class PacketMeta:
    timestamp_us: int
    direction: Direction
    src_mac: str
    dst_mac: str
    ethertype: int
    frame_len: int
    l3: Ipv4Meta | None = None
    arp: ArpMeta | None = None


def parse_frame(data: bytes, timestamp_us: int, direction: Direction) -> PacketMeta:
    """Decode one captured Ethernet II frame into metadata.

    Raises TruncatedFrame when the bytes run out before a promised
    header ends, and MalformedArp for ARP opcodes other than 1 or 2.
    Frames carrying headers we do not understand (IPv6, non-Ethernet
    ARP, unknown IP protocols) are returned with the unknown layer
    left undecoded rather than rejected.
    """
    if len(data) < _ETH_MIN:
        raise TruncatedFrame(
            "frame of %d bytes is below the 14-byte Ethernet header" % len(data)
        )
    dst_mac = format_mac(data[0:6])
    src_mac = format_mac(data[6:12])
    ethertype = (data[12] << 8) | data[13]
    offset = _ETH_MIN
    while ethertype == ETHERTYPE_VLAN:
        if len(data) < offset + 4:
            raise TruncatedFrame("802.1Q tag promised but frame ends")
        ethertype = (data[offset + 2] << 8) | data[offset + 3]
        offset += 4

    l3 = None
    arp = None
    if ethertype == ETHERTYPE_ARP:
        arp = _parse_arp(data, offset)
    elif ethertype == ETHERTYPE_IPV4:
        l3 = _parse_ipv4(data, offset)

    return PacketMeta(
        timestamp_us=timestamp_us,
        direction=direction,
        src_mac=src_mac,
        dst_mac=dst_mac,
        ethertype=ethertype,
        frame_len=len(data),
        l3=l3,
        arp=arp,
    )


def _parse_arp(data: bytes, offset: int) -> ArpMeta | None:
    if len(data) < offset + _ARP_FIXED.size:
        raise TruncatedFrame("ARP header promised but frame ends")
    htype, ptype, hlen, plen, op = _ARP_FIXED.unpack_from(data, offset)
    if htype != 1 or ptype != ETHERTYPE_IPV4 or hlen != 6 or plen != 4:
        return None  # not Ethernet/IPv4 ARP; keep the frame at MAC level
    if op not in (1, 2):
        raise MalformedArp("ARP opcode %d" % op)
    if len(data) < offset + _ARP_BODY:
        raise TruncatedFrame("ARP body promised but frame ends")
    body = offset + _ARP_FIXED.size
    return ArpMeta(
        op=ArpOp(op),
        sender_mac=format_mac(data[body : body + 6]),
        sender_ip=format_ip(data[body + 6 : body + 10]),
        target_mac=format_mac(data[body + 10 : body + 16]),
        target_ip=format_ip(data[body + 16 : body + 20]),
    )


def _parse_ipv4(data: bytes, offset: int) -> Ipv4Meta | None:
    if len(data) < offset + 20:
        raise TruncatedFrame("IPv4 header promised but frame ends")
    vihl = data[offset]
    if vihl >> 4 != 4:
        return None  # version field disagrees with the ethertype
    ihl = (vihl & 0x0F) * 4
    if ihl < 20:
        return None  # nonsensical header length; keep MAC level only
    if len(data) < offset + ihl:
        raise TruncatedFrame("IPv4 options promised but frame ends")
    total_len = (data[offset + 2] << 8) | data[offset + 3]
    protocol = data[offset + 9]
    src_ip = format_ip(data[offset + 12 : offset + 16])
    dst_ip = format_ip(data[offset + 16 : offset + 20])

    l4 = None
    l4_off = offset + ihl
    if protocol == PROTO_TCP:
        l4 = _parse_tcp(data, l4_off, total_len - ihl)
    elif protocol == PROTO_UDP:
        l4 = _parse_udp(data, l4_off)
    return Ipv4Meta(src_ip=src_ip, dst_ip=dst_ip, protocol=protocol, l4=l4)


def _parse_tcp(data: bytes, offset: int, ip_payload_len: int) -> TransportMeta | None:
    if len(data) < offset + 14:
        raise TruncatedFrame("TCP header promised but frame ends")
    src_port = (data[offset] << 8) | data[offset + 1]
    dst_port = (data[offset + 2] << 8) | data[offset + 3]
    doff = (data[offset + 12] >> 4) * 4
    if doff < 20:
        return None  # header length field below the fixed header
    if len(data) < offset + doff:
        raise TruncatedFrame("TCP options promised but frame ends")
    payload_len = ip_payload_len - doff
    if payload_len < 0:
        raise TruncatedFrame("IP total length ends inside the TCP header")
    return TransportMeta(
        src_port=src_port,
        dst_port=dst_port,
        payload_len=payload_len,
        payload_offset=offset + doff,
        tcp_flags=data[offset + 13],
    )


def _parse_udp(data: bytes, offset: int) -> TransportMeta:
    if len(data) < offset + _UDP_HDR.size:
        raise TruncatedFrame("UDP header promised but frame ends")
    src_port, dst_port, udp_len, _ = _UDP_HDR.unpack_from(data, offset)
    if udp_len < 8:
        raise TruncatedFrame("UDP length field below the 8-byte header")
    return TransportMeta(
        src_port=src_port,
        dst_port=dst_port,
        payload_len=udp_len - 8,
        payload_offset=offset + _UDP_HDR.size,
    )
