"""Raw frame construction, the inverse of the metadata parser.

Used by the traffic simulator and by tests: parse_frame(build(...))
round-trips every decoded field. IP and TCP checksums are computed so
emitted captures look sane in external tools; UDP checksums use the
legal all-zero form.

A simulated plant reuses a handful of addresses on every frame, so the
string-to-bytes address conversions and the IPv4 header (a pure
function of its addresses, protocol and payload length, because the
identification field is always 0) are computed once per distinct
argument tuple.

Only _checksum turns bytes into a checksum. A Modbus read poll on
one relation, the bulk of a simulated plant, is one pack:
modbus_read_poll returns request and response builders, each holding
one struct.Struct that spans the whole frame, from the Ethernet header
to the end of the Modbus ADU. Each builder is read off one frame that
tcp_frame builds with sequence and acknowledgement numbers,
transaction id and register value all zero: its head, its control
octets, and its checksum, whose negation mod 0xFFFF is the residue of
every checksummed word the relation fixes. A poll frame adds what
varies to that residue and packs seq, ack, checksum, transaction id
and, for the response, the register value.

Each cache is a bounded LRU: a caller with more distinct addresses than
it holds only recomputes evicted entries, and the cached values are
immutable bytes.
"""

import struct
from functools import lru_cache

from .packet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCP_PSH,
    ArpOp,
)

BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"
ZERO_MAC = "00:00:00:00:00:00"
BROADCAST_IP = "255.255.255.255"

_ETH = struct.Struct(">6s6sH")
_ARP = struct.Struct(">HHBBH6s4s6s4s")
_IPV4 = struct.Struct(">BBHHHBBH4s4s")
_TCP = struct.Struct(">HHIIBBHHH")
_UDP = struct.Struct(">HHHH")


@lru_cache(maxsize=1024)
def mac_bytes(mac: str) -> bytes:
    return bytes(int(part, 16) for part in mac.split(":"))


@lru_cache(maxsize=1024)
def ip_bytes(ip: str) -> bytes:
    return bytes(int(part) for part in ip.split("."))


def _checksum(data: bytes) -> int:
    """Internet checksum: the complement of the one's-complement sum of
    the big-endian 16-bit words, an odd tail padded with a zero byte.
    Since 2**16 = 1 (mod 0xFFFF), the number the bytes spell leaves the
    same residue as that sum; the end-around-carry fold differs from the
    residue only on a nonzero multiple of 0xFFFF, which folds to 0xFFFF."""
    value = int.from_bytes(data, "big") << (8 * (len(data) % 2))
    folded = value % 0xFFFF or (0xFFFF if value else 0)
    return ~folded & 0xFFFF


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


@lru_cache(maxsize=4096)
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


def _poll_template(src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port,
                   adu: bytes) -> tuple[bytes, bytes, int]:
    """(Ethernet+IPv4 header and the ports; data offset, flags and window;
    residue mod 0xFFFF of every checksummed word fixed) for a PSH+ACK
    segment that carries adu, read off that segment with seq and ack 0.
    The pseudo header's protocol word makes the word sum nonzero, so a
    zero residue is a fold to 0xFFFF, whose complement is 0, and the
    complement of any other residue r is 0xFFFF - r: the checksum is the
    negated residue mod 0xFFFF, and the residue the negated checksum."""
    frame = tcp_frame(src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port,
                      TCP_PSH | TCP_ACK, adu)
    return frame[:38], frame[46:50], -int.from_bytes(frame[50:52], "big") % 0xFFFF


def modbus_read_poll(
    client_mac: str,
    server_mac: str,
    client_ip: str,
    server_ip: str,
    client_port: int,
    server_port: int,
    unit: int,
):
    """Frame builders for Modbus read polls on one TCP connection:
    request(seq, ack, txid) equals tcp_frame(client -> server, PSH+ACK,
    modbus_read_request(txid, unit), seq, ack), and response(seq, ack,
    txid, value) equals tcp_frame(server -> client, PSH+ACK,
    modbus_read_response(txid, unit, value), seq, ack). Each frame is one
    pack: the urgent pointer is pad octets, the rest of the relation's
    fixed octets are byte runs."""
    request_adu = modbus_read_request(0, unit)
    response_adu = modbus_read_response(0, unit, 0)
    # as in _checksum, a 32-bit number leaves the residue of its 16-bit
    # word sum, so seq and ack add themselves to the residue; both ADUs
    # are of even length, so the transaction id (the first word) does
    # too, and so does the register value (the low octet of the last word)
    request_head, request_control, request_fixed = _poll_template(
        client_mac, server_mac, client_ip, server_ip, client_port, server_port, request_adu
    )
    response_head, response_control, response_fixed = _poll_template(
        server_mac, client_mac, server_ip, client_ip, server_port, client_port, response_adu
    )
    # head, seq, ack, control, checksum, urgent pointer, txid, the ADU's
    # fixed octets after it and, in the response, the register value
    request_rest = request_adu[2:]
    response_rest = response_adu[2:-1]
    pack_request = struct.Struct(
        ">%dsII4sH2xH%ds" % (len(request_head), len(request_rest))).pack
    pack_response = struct.Struct(
        ">%dsII4sH2xH%dsB" % (len(response_head), len(response_rest))).pack

    def request(seq: int, ack: int, txid: int) -> bytes:
        seq &= 0xFFFFFFFF
        ack &= 0xFFFFFFFF
        txid &= 0xFFFF
        return pack_request(request_head, seq, ack, request_control,
                            -(request_fixed + seq + ack + txid) % 0xFFFF, txid, request_rest)

    def response(seq: int, ack: int, txid: int, value: int) -> bytes:
        seq &= 0xFFFFFFFF
        ack &= 0xFFFFFFFF
        txid &= 0xFFFF
        value &= 0xFF
        return pack_response(response_head, seq, ack, response_control,
                             -(response_fixed + seq + ack + txid + value) % 0xFFFF, txid,
                             response_rest, value)

    return request, response
