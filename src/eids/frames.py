"""Raw frame construction, the inverse of the metadata parser.

Used by the traffic simulator and by tests: parse_frame(build(...))
round-trips every decoded field. IP and TCP checksums are computed so
emitted captures look sane in external tools; UDP checksums use the
legal all-zero form.
"""

import struct

from .packet import ETHERTYPE_ARP, ETHERTYPE_IPV4, PROTO_TCP, PROTO_UDP, ArpOp

BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"
ZERO_MAC = "00:00:00:00:00:00"
BROADCAST_IP = "255.255.255.255"

_ETH = struct.Struct(">6s6sH")
_ARP = struct.Struct(">HHBBH6s4s6s4s")
_IPV4 = struct.Struct(">BBHHHBBH4s4s")
_TCP = struct.Struct(">HHIIBBHHH")
_UDP = struct.Struct(">HHHH")


def mac_bytes(mac: str) -> bytes:
    return bytes(int(part, 16) for part in mac.split(":"))


def ip_bytes(ip: str) -> bytes:
    return bytes(int(part) for part in ip.split("."))


def _checksum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(">%dH" % (len(data) // 2), data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def ethernet(dst_mac: str, src_mac: str, ethertype: int, payload: bytes) -> bytes:
    return _ETH.pack(mac_bytes(dst_mac), mac_bytes(src_mac), ethertype) + payload


def arp_frame(
    op: ArpOp,
    sender_mac: str,
    sender_ip: str,
    target_mac: str,
    target_ip: str,
    dst_mac: str | None = None,
) -> bytes:
    """ARP request or reply. Requests default to a broadcast frame,
    replies to a unicast frame addressed at the target."""
    if dst_mac is None:
        dst_mac = BROADCAST_MAC if op is ArpOp.REQUEST else target_mac
    body = _ARP.pack(
        1,
        ETHERTYPE_IPV4,
        6,
        4,
        op.value,
        mac_bytes(sender_mac),
        ip_bytes(sender_ip),
        mac_bytes(target_mac),
        ip_bytes(target_ip),
    )
    return ethernet(dst_mac, sender_mac, ETHERTYPE_ARP, body)


def _ipv4_header(src_ip: str, dst_ip: str, protocol: int, payload_len: int) -> bytes:
    total = 20 + payload_len
    head = _IPV4.pack(
        0x45, 0, total, 0, 0x4000, 64, protocol, 0, ip_bytes(src_ip), ip_bytes(dst_ip)
    )
    csum = _checksum(head)
    return head[:10] + struct.pack(">H", csum) + head[12:]


def tcp_frame(
    src_mac: str,
    dst_mac: str,
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    flags: int,
    payload: bytes = b"",
    seq: int = 0,
    ack: int = 0,
) -> bytes:
    head = _TCP.pack(
        src_port, dst_port, seq & 0xFFFFFFFF, ack & 0xFFFFFFFF, 5 << 4, flags, 8192, 0, 0
    )
    pseudo = ip_bytes(src_ip) + ip_bytes(dst_ip) + struct.pack(
        ">BBH", 0, PROTO_TCP, len(head) + len(payload)
    )
    csum = _checksum(pseudo + head + payload)
    segment = head[:16] + struct.pack(">H", csum) + head[18:] + payload
    ip = _ipv4_header(src_ip, dst_ip, PROTO_TCP, len(segment)) + segment
    return ethernet(dst_mac, src_mac, ETHERTYPE_IPV4, ip)


def udp_frame(
    src_mac: str,
    dst_mac: str,
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    payload: bytes,
) -> bytes:
    datagram = _UDP.pack(src_port, dst_port, 8 + len(payload), 0) + payload
    ip = _ipv4_header(src_ip, dst_ip, PROTO_UDP, len(datagram)) + datagram
    return ethernet(dst_mac, src_mac, ETHERTYPE_IPV4, ip)


# Minimal Modbus/TCP payloads: syntactically valid ADUs with fixed
# function codes. The detection path treats them as opaque bytes; they
# exist so simulated frames have honest lengths.

def modbus_read_request(txid: int, unit: int) -> bytes:
    return struct.pack(">HHHBBHH", txid & 0xFFFF, 0, 6, unit & 0xFF, 0x02, 0, 8)


def modbus_read_response(txid: int, unit: int, value: int) -> bytes:
    return struct.pack(">HHHBBBB", txid & 0xFFFF, 0, 4, unit & 0xFF, 0x02, 1, value & 0xFF)


def modbus_write_request(txid: int, unit: int, address: int, value: int) -> bytes:
    return struct.pack(
        ">HHHBBHH", txid & 0xFFFF, 0, 6, unit & 0xFF, 0x05, address & 0xFFFF, value & 0xFFFF
    )
