"""Frame decoding: examples, error paths, round trips, fuzz totality."""

import random
import struct

import pytest

from eids import frames
from eids.announce import StatusMessage, encode
from eids.packet import (
    TCP_SYN,
    ArpOp,
    Direction,
    MalformedArp,
    PacketMeta,
    ParseError,
    TruncatedFrame,
    parse_frame,
)

PLC_MAC = "02:00:ac:10:01:32"
S1_MAC = "02:00:ac:10:01:65"


def test_arp_request_frame():
    frame = frames.arp_frame(
        ArpOp.REQUEST, PLC_MAC, "192.168.1.50", frames.ZERO_MAC, "192.168.1.101"
    )
    assert len(frame) == 42
    meta = parse_frame(frame, 5, Direction.RX)
    assert meta.ethertype == 0x0806
    assert meta.arp is not None and meta.l3 is None
    assert meta.arp.op is ArpOp.REQUEST
    assert meta.arp.sender_ip == "192.168.1.50"
    assert meta.arp.target_ip == "192.168.1.101"
    assert meta.arp.sender_mac == PLC_MAC
    assert meta.dst_mac == frames.BROADCAST_MAC
    assert meta.timestamp_us == 5
    assert meta.frame_len == 42


def test_arp_reply_is_unicast():
    frame = frames.arp_frame(
        ArpOp.REPLY, S1_MAC, "192.168.1.101", PLC_MAC, "192.168.1.50"
    )
    meta = parse_frame(frame, 0, Direction.TX)
    assert meta.dst_mac == PLC_MAC
    assert meta.arp.op is ArpOp.REPLY


def test_below_minimum_ethernet():
    with pytest.raises(TruncatedFrame):
        parse_frame(b"\x00" * 13, 0, Direction.RX)


def test_tcp_syn_to_modbus_port():
    frame = frames.tcp_frame(
        PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101", 49152, 502, 0x02
    )
    meta = parse_frame(frame, 0, Direction.RX)
    l4 = meta.l3.l4
    assert l4.dst_port == 502 and l4.src_port == 49152
    assert l4.tcp_flags == TCP_SYN
    assert l4.payload_len == 0


def test_udp_ports_and_payload_len():
    frame = frames.udp_frame(
        S1_MAC, frames.BROADCAST_MAC, "192.168.1.101", "255.255.255.255",
        47808, 47808, b"x" * 48,
    )
    meta = parse_frame(frame, 0, Direction.TX)
    l4 = meta.l3.l4
    assert (l4.src_port, l4.dst_port, l4.payload_len) == (47808, 47808, 48)
    assert l4.tcp_flags is None


def test_udp_payload_offset_behind_vlan_tag_and_ip_options():
    datagram = encode(StatusMessage(2, 1_000, False, True, 0), b"psk")
    plain = frames.udp_frame(
        S1_MAC, frames.BROADCAST_MAC, "192.168.1.101", "255.255.255.255",
        47808, 47808, datagram,
    )
    ip = bytearray(plain[14:34])
    ip[0] = 0x46  # IHL 6: one word of options
    ip[2:4] = struct.pack(">H", len(plain) - 14 + 4)
    frame = (plain[:12] + b"\x81\x00\x00\x05" + plain[12:14] + bytes(ip)
             + b"\x01\x01\x01\x00" + plain[34:])
    l4 = parse_frame(frame, 0, Direction.TX).l3.l4
    assert l4.payload_offset == 14 + 4 + 24 + 8
    assert frame[l4.payload_offset : l4.payload_offset + l4.payload_len] == datagram
    assert len(datagram) == 48


def test_tcp_payload_offset_with_options():
    payload = frames.modbus_read_response(7, 1, 0x5A)
    plain = frames.tcp_frame(
        PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101", 502, 49152, 0x18, payload
    )
    options = b"\x02\x04\x05\xb4\x01\x01\x01\x00"  # MSS, NOPs, end
    ip = bytearray(plain[14:34])
    ip[2:4] = struct.pack(">H", len(plain) - 14 + len(options))
    tcp = bytearray(plain[34:54])
    tcp[12] = 7 << 4  # data offset 7 words
    frame = plain[:14] + bytes(ip) + bytes(tcp) + options + plain[54:]
    l4 = parse_frame(frame, 0, Direction.RX).l3.l4
    assert l4.payload_offset == 14 + 20 + 28
    assert frame[l4.payload_offset : l4.payload_offset + l4.payload_len] == payload


def test_vlan_tag_is_skipped():
    plain = frames.arp_frame(
        ArpOp.REQUEST, PLC_MAC, "192.168.1.50", frames.ZERO_MAC, "192.168.1.101"
    )
    tagged = plain[:12] + b"\x81\x00\x00\x05" + plain[12:]
    meta = parse_frame(tagged, 0, Direction.RX)
    assert meta.ethertype == 0x0806
    assert meta.arp is not None
    assert meta.arp.sender_ip == "192.168.1.50"


def test_ipv6_is_opaque():
    frame = frames.ethernet(S1_MAC, PLC_MAC, 0x86DD, b"\x60" + b"\x00" * 39)
    meta = parse_frame(frame, 0, Direction.RX)
    assert meta.ethertype == 0x86DD
    assert meta.l3 is None and meta.arp is None


def test_unknown_ip_protocol_keeps_l3():
    icmp = frames._ipv4_header("192.168.1.50", "192.168.1.101", 1, 8) + b"\x08" + b"\x00" * 7
    frame = frames.ethernet(S1_MAC, PLC_MAC, 0x0800, icmp)
    meta = parse_frame(frame, 0, Direction.RX)
    assert meta.l3 is not None
    assert meta.l3.protocol == 1
    assert meta.l3.l4 is None


def test_malformed_arp_opcode():
    body = struct.pack(
        ">HHBBH6s4s6s4s",
        1, 0x0800, 6, 4, 3,
        frames.mac_bytes(PLC_MAC), frames.ip_bytes("192.168.1.50"),
        frames.mac_bytes(frames.ZERO_MAC), frames.ip_bytes("192.168.1.101"),
    )
    frame = frames.ethernet(frames.BROADCAST_MAC, PLC_MAC, 0x0806, body)
    with pytest.raises(MalformedArp):
        parse_frame(frame, 0, Direction.RX)


def test_non_ethernet_arp_is_opaque():
    body = struct.pack(">HHBBH", 6, 0x0800, 8, 4, 1) + b"\x00" * 24
    frame = frames.ethernet(frames.BROADCAST_MAC, PLC_MAC, 0x0806, body)
    meta = parse_frame(frame, 0, Direction.RX)
    assert meta.arp is None


def test_truncation_errors():
    arp = frames.arp_frame(
        ArpOp.REQUEST, PLC_MAC, "192.168.1.50", frames.ZERO_MAC, "192.168.1.101"
    )
    with pytest.raises(TruncatedFrame):
        parse_frame(arp[:20], 0, Direction.RX)  # mid ARP fixed header
    with pytest.raises(TruncatedFrame):
        parse_frame(arp[:30], 0, Direction.RX)  # mid ARP addresses

    tcp = frames.tcp_frame(
        PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101", 49152, 502, 0x18, b"data"
    )
    with pytest.raises(TruncatedFrame):
        parse_frame(tcp[:20], 0, Direction.RX)  # mid IPv4 header
    with pytest.raises(TruncatedFrame):
        parse_frame(tcp[:40], 0, Direction.RX)  # mid TCP header

    udp = frames.udp_frame(
        S1_MAC, PLC_MAC, "192.168.1.101", "192.168.1.50", 1000, 2000, b"hi"
    )
    broken = bytearray(udp)
    broken[14 + 20 + 4 : 14 + 20 + 6] = b"\x00\x03"  # UDP length below 8
    with pytest.raises(TruncatedFrame):
        parse_frame(bytes(broken), 0, Direction.RX)


def test_payload_content_is_invisible():
    make = lambda payload: frames.tcp_frame(
        PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101", 49152, 502, 0x18, payload
    )
    meta_a = parse_frame(make(b"AAAA"), 9, Direction.RX)
    meta_b = parse_frame(make(b"BBBB"), 9, Direction.RX)
    assert meta_a == meta_b
    meta_c = parse_frame(make(b"AAAAAA"), 9, Direction.RX)
    assert meta_c.l3.l4.payload_len == 6
    assert meta_c != meta_a


def test_padding_tolerated():
    # NICs pad short frames to 60 bytes; length fields still rule
    frame = frames.tcp_frame(
        PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101", 49152, 502, 0x10
    )
    padded = frame + b"\x00" * (60 - len(frame))
    meta = parse_frame(padded, 0, Direction.RX)
    assert meta.l3.l4.payload_len == 0
    assert meta.frame_len == 60


def test_fuzz_totality():
    rng = random.Random(1234)
    templates = [
        frames.arp_frame(ArpOp.REQUEST, PLC_MAC, "192.168.1.50",
                         frames.ZERO_MAC, "192.168.1.101"),
        frames.tcp_frame(PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101",
                         49152, 502, 0x18, b"\x01\x02\x03"),
        frames.udp_frame(S1_MAC, frames.BROADCAST_MAC, "192.168.1.101",
                         "255.255.255.255", 47808, 47808, b"y" * 48),
    ]
    for _ in range(2000):
        if rng.random() < 0.5:
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
        else:
            mutated = bytearray(rng.choice(templates))
            for _ in range(rng.randrange(1, 6)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            data = bytes(mutated[: rng.randrange(1, len(mutated) + 1)])
        try:
            meta = parse_frame(data, 0, Direction.RX)
            assert isinstance(meta, PacketMeta)
        except ParseError:
            pass


def test_round_trip_all_builders():
    cases = [
        frames.arp_frame(ArpOp.REQUEST, PLC_MAC, "192.168.1.50",
                         frames.ZERO_MAC, "192.168.1.101"),
        frames.arp_frame(ArpOp.REPLY, S1_MAC, "192.168.1.101", PLC_MAC, "192.168.1.50"),
        frames.tcp_frame(PLC_MAC, S1_MAC, "10.0.0.1", "10.0.0.2", 1, 65535,
                         0x3F, b"z" * 11, seq=12345, ack=999),
        frames.udp_frame(S1_MAC, PLC_MAC, "172.16.0.9", "172.16.0.10", 0, 1, b""),
    ]
    for frame in cases:
        meta = parse_frame(frame, 77, Direction.RX)
        assert meta.src_mac in (PLC_MAC, S1_MAC)
        if meta.arp:
            rebuilt = frames.arp_frame(
                meta.arp.op, meta.arp.sender_mac, meta.arp.sender_ip,
                meta.arp.target_mac, meta.arp.target_ip, dst_mac=meta.dst_mac,
            )
            assert rebuilt == frame
        elif meta.l3 and meta.l3.protocol == 6:
            l4 = meta.l3.l4
            assert (l4.src_port, l4.dst_port, l4.tcp_flags, l4.payload_len) == (
                1, 65535, 0x3F, 11,
            )
        elif meta.l3:
            assert meta.l3.l4.payload_len == 0
