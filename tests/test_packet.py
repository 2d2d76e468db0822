"""Frame decoding: examples, error paths, round trips, fuzz totality."""

import random
import socket
import struct

import pytest

from eids import bench, frames, sim
from eids.announce import StatusMessage, encode
from eids.packet import (
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    ArpOp,
    MalformedArp,
    PacketMeta,
    ParseError,
    TruncatedFrame,
    format_mac,
    header_signature,
    parse_frame,
)

PLC_MAC = "02:00:ac:10:01:32"
S1_MAC = "02:00:ac:10:01:65"
# the TCP flags a header signature keeps
SIGNATURE_FLAGS = TCP_SYN | TCP_ACK | TCP_FIN | TCP_RST


def test_arp_request_frame():
    frame = frames.arp_frame(
        ArpOp.REQUEST, PLC_MAC, "192.168.1.50", frames.ZERO_MAC, "192.168.1.101"
    )
    assert len(frame) == 42
    meta = parse_frame(frame)
    assert meta.arp is not None and meta.l3 is None
    assert meta.arp.op is ArpOp.REQUEST
    assert meta.arp.sender_ip == "192.168.1.50"
    assert meta.arp.target_ip == "192.168.1.101"
    assert meta.arp.sender_mac == PLC_MAC
    assert meta.dst_mac == frames.BROADCAST_MAC


def test_arp_reply_is_unicast():
    frame = frames.arp_frame(
        ArpOp.REPLY, S1_MAC, "192.168.1.101", PLC_MAC, "192.168.1.50"
    )
    meta = parse_frame(frame)
    assert meta.dst_mac == PLC_MAC
    assert meta.arp.op is ArpOp.REPLY


def test_below_minimum_ethernet():
    with pytest.raises(TruncatedFrame):
        parse_frame(b"\x00" * 13)


def test_tcp_syn_to_modbus_port():
    frame = frames.tcp_frame(
        PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101", 49152, 502, 0x02
    )
    meta = parse_frame(frame)
    l4 = meta.l3.l4
    assert l4.dst_port == 502 and l4.src_port == 49152
    assert l4.tcp_flags == TCP_SYN
    assert l4.payload_len == 0


def test_udp_ports_and_payload_len():
    frame = frames.udp_frame(
        S1_MAC, frames.BROADCAST_MAC, "192.168.1.101", "255.255.255.255",
        47808, 47808, b"x" * 48,
    )
    meta = parse_frame(frame)
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
    l4 = parse_frame(frame).l3.l4
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
    l4 = parse_frame(frame).l3.l4
    assert l4.payload_offset == 14 + 20 + 28
    assert frame[l4.payload_offset : l4.payload_offset + l4.payload_len] == payload


def test_vlan_tag_is_skipped():
    plain = frames.arp_frame(
        ArpOp.REQUEST, PLC_MAC, "192.168.1.50", frames.ZERO_MAC, "192.168.1.101"
    )
    tagged = plain[:12] + b"\x81\x00\x00\x05" + plain[12:]
    meta = parse_frame(tagged)
    assert meta.arp is not None and meta.l3 is None
    assert meta.arp.sender_ip == "192.168.1.50"


def test_ipv6_is_opaque():
    frame = frames.ethernet(S1_MAC, PLC_MAC, 0x86DD, b"\x60" + b"\x00" * 39)
    meta = parse_frame(frame)
    assert meta.l3 is None and meta.arp is None
    assert (meta.src_mac, meta.dst_mac) == (PLC_MAC, S1_MAC)


def test_unknown_ip_protocol_keeps_l3():
    icmp = frames._ipv4_header("192.168.1.50", "192.168.1.101", 1, 8) + b"\x08" + b"\x00" * 7
    frame = frames.ethernet(S1_MAC, PLC_MAC, 0x0800, icmp)
    meta = parse_frame(frame)
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
        parse_frame(frame)


def test_non_ethernet_arp_is_opaque():
    body = struct.pack(">HHBBH", 6, 0x0800, 8, 4, 1) + b"\x00" * 24
    frame = frames.ethernet(frames.BROADCAST_MAC, PLC_MAC, 0x0806, body)
    meta = parse_frame(frame)
    assert meta.arp is None


def test_truncation_errors():
    arp = frames.arp_frame(
        ArpOp.REQUEST, PLC_MAC, "192.168.1.50", frames.ZERO_MAC, "192.168.1.101"
    )
    with pytest.raises(TruncatedFrame):
        parse_frame(arp[:20])  # mid ARP fixed header
    with pytest.raises(TruncatedFrame):
        parse_frame(arp[:30])  # mid ARP addresses

    tcp = frames.tcp_frame(
        PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101", 49152, 502, 0x18, b"data"
    )
    with pytest.raises(TruncatedFrame):
        parse_frame(tcp[:20])  # mid IPv4 header
    with pytest.raises(TruncatedFrame):
        parse_frame(tcp[:40])  # mid TCP header

    udp = frames.udp_frame(
        S1_MAC, PLC_MAC, "192.168.1.101", "192.168.1.50", 1000, 2000, b"hi"
    )
    broken = bytearray(udp)
    broken[14 + 20 + 4 : 14 + 20 + 6] = b"\x00\x03"  # UDP length below 8
    with pytest.raises(TruncatedFrame):
        parse_frame(bytes(broken))


def test_payload_content_is_invisible():
    make = lambda payload: frames.tcp_frame(
        PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101", 49152, 502, 0x18, payload
    )
    meta_a = parse_frame(make(b"AAAA"))
    meta_b = parse_frame(make(b"BBBB"))
    assert meta_a == meta_b
    meta_c = parse_frame(make(b"AAAAAA"))
    assert meta_c.l3.l4.payload_len == 6
    assert meta_c != meta_a


def test_padding_tolerated():
    # NICs pad short frames to 60 bytes; length fields still rule
    frame = frames.tcp_frame(
        PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101", 49152, 502, 0x10
    )
    padded = frame + b"\x00" * (60 - len(frame))
    meta = parse_frame(padded)
    assert meta.l3.l4.payload_len == 0


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
            meta = parse_frame(data)
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
        meta = parse_frame(frame)
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


def _with_ip_bytes(frame: bytes, **fields) -> bytes:
    """FRAME with IPv4 header fields overwritten: ihl (words), total_len."""
    out = bytearray(frame)
    if "ihl" in fields:
        out[14] = 0x40 | fields["ihl"]
    if "total_len" in fields:
        out[16:18] = struct.pack(">H", fields["total_len"])
    return bytes(out)


def _parse_error_cases():
    arp = frames.arp_frame(
        ArpOp.REQUEST, PLC_MAC, "192.168.1.50", frames.ZERO_MAC, "192.168.1.101"
    )
    tcp = frames.tcp_frame(
        PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101", 49152, 502, 0x18, b"data"
    )
    udp = frames.udp_frame(
        S1_MAC, PLC_MAC, "192.168.1.101", "192.168.1.50", 1000, 2000, b"hi"
    )
    tagged = arp[:12] + b"\x81\x00\x00\x05" + arp[12:]
    tcp_options = bytearray(tcp)
    tcp_options[14 + 20 + 12] = 7 << 4  # data offset 28: 8 option bytes
    udp_short = bytearray(udp)
    udp_short[14 + 20 + 4 : 14 + 20 + 6] = b"\x00\x07"
    bad_op = bytearray(arp)
    bad_op[14 + 6 : 14 + 8] = b"\x00\x03"
    cases = {
        "ethernet": (arp[:13], "frame of 13 bytes is below the 14-byte Ethernet header"),
        "empty": (b"", "frame of 0 bytes is below the 14-byte Ethernet header"),
        "vlan-tag": (tagged[:17], "802.1Q tag promised but frame ends"),
        "arp-fixed": (arp[:14 + 7], "ARP header promised but frame ends"),
        "arp-body": (arp[:14 + 8], "ARP body promised but frame ends"),
        "arp-body-last-byte": (arp[:41], "ARP body promised but frame ends"),
        "ipv4-header": (tcp[:14 + 19], "IPv4 header promised but frame ends"),
        "ipv4-options": (_with_ip_bytes(tcp, ihl=15)[:14 + 59],
                         "IPv4 options promised but frame ends"),
        "tcp-header": (tcp[:34 + 13], "TCP header promised but frame ends"),
        "tcp-fixed-tail": (tcp[:34 + 19], "TCP options promised but frame ends"),
        "tcp-options": (bytes(tcp_options[:34 + 27]), "TCP options promised but frame ends"),
        "ip-total-length-in-tcp-header": (_with_ip_bytes(tcp, total_len=20 + 19),
                                          "IP total length ends inside the TCP header"),
        "udp-header": (udp[:34 + 7], "UDP header promised but frame ends"),
        "udp-length-below-8": (bytes(udp_short), "UDP length field below the 8-byte header"),
    }
    return [pytest.param(frame, TruncatedFrame, text, id=name)
            for name, (frame, text) in cases.items()] + [
        pytest.param(bytes(bad_op), MalformedArp, "ARP opcode 3", id="arp-opcode-3")]


@pytest.mark.parametrize("frame, error, text", _parse_error_cases())
def test_parse_error_texts(frame, error, text):
    # the text reaches `eids detect` output as the detail of an Unparseable line
    with pytest.raises(error) as raised:
        parse_frame(frame)
    assert type(raised.value) is error
    assert str(raised.value) == text


def test_frames_one_byte_past_each_boundary_parse():
    arp = frames.arp_frame(
        ArpOp.REQUEST, PLC_MAC, "192.168.1.50", frames.ZERO_MAC, "192.168.1.101"
    )
    tcp = frames.tcp_frame(
        PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101", 49152, 502, 0x18, b"data"
    )
    udp = frames.udp_frame(
        S1_MAC, PLC_MAC, "192.168.1.101", "192.168.1.50", 1000, 2000, b"hi"
    )
    opaque = frames.ethernet(S1_MAC, PLC_MAC, 0x86DD, b"")
    assert parse_frame(opaque) == PacketMeta(PLC_MAC, S1_MAC)
    assert parse_frame(opaque[:12] + b"\x81\x00\x00\x05" + opaque[12:]) == PacketMeta(
        PLC_MAC, S1_MAC)
    assert parse_frame(arp).arp.target_ip == "192.168.1.101"
    # the IP total length, not the frame length, sizes the TCP payload
    assert parse_frame(tcp[:34 + 20]).l3.l4.payload_len == 4
    assert parse_frame(_with_ip_bytes(tcp, total_len=40)).l3.l4.payload_len == 0
    assert parse_frame(udp[:34 + 8]).l3.l4.payload_len == 2


def test_tcp_data_offset_below_20_keeps_only_l3():
    frame = bytearray(frames.tcp_frame(
        PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101", 49152, 502, 0x18, b"data"
    ))
    frame[14 + 20 + 12] = 4 << 4  # 16 bytes
    meta = parse_frame(bytes(frame))
    assert meta.l3.protocol == 6 and meta.l3.src_ip == "192.168.1.50"
    assert meta.l3.l4 is None


def _signature_corpus():
    """Every truncation and single-bit flip of TCP and UDP frames, with
    and without a VLAN tag, IPv4 options or TCP options, plus the fuzz
    corpus of random and mutated frames."""
    tcp = frames.tcp_frame(PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101",
                           49152, 502, 0x12, b"data")
    udp = frames.udp_frame(S1_MAC, frames.BROADCAST_MAC, "192.168.1.101",
                           "255.255.255.255", 47808, 47808, b"y" * 12)
    tcp_options = bytearray(tcp + b"\x00" * 8)
    tcp_options[14 + 20 + 12] = 7 << 4
    ip_options = _with_ip_bytes(tcp[:34] + b"\x00" * 8 + tcp[34:], ihl=7)
    templates = [tcp, udp, bytes(tcp_options), ip_options,
                 tcp[:12] + b"\x81\x00\x00\x05" + tcp[12:]]
    corpus = []
    for template in templates:
        corpus += [template[:n] for n in range(len(template) + 1)]
        for bit in range(8 * len(template)):
            flipped = bytearray(template)
            flipped[bit // 8] ^= 1 << (bit % 8)
            corpus.append(bytes(flipped))
    rng = random.Random(99)
    for _ in range(5000):
        mutated = bytearray(rng.choice(templates))
        for _ in range(rng.randrange(1, 4)):
            mutated[rng.randrange(12, 50)] = rng.randrange(256)
        corpus.append(bytes(mutated[: rng.randrange(30, len(mutated) + 1)]))
    return corpus


def test_header_signature_admits_only_frames_it_spells():
    admitted = {PROTO_TCP: 0, 17: 0}
    for data in _signature_corpus():
        signature = header_signature(data)
        if signature is None:
            continue
        macs, protocol, addresses, flags = signature
        meta = parse_frame(data)
        l3 = meta.l3
        assert l3 is not None and l3.l4 is not None, data.hex()
        assert (meta.dst_mac, meta.src_mac) == (format_mac(macs[:6]), format_mac(macs[6:]))
        assert protocol == l3.protocol
        assert (l3.src_ip, l3.dst_ip) == (socket.inet_ntoa(addresses[:4]),
                                          socket.inet_ntoa(addresses[4:8]))
        assert (l3.l4.src_port, l3.l4.dst_port) == struct.unpack(">HH", addresses[8:])
        if protocol == PROTO_TCP:
            assert flags == l3.l4.tcp_flags & SIGNATURE_FLAGS
        else:
            assert flags is None and l3.l4.tcp_flags is None
        admitted[protocol] += 1
    assert min(admitted.values()) > 100


def _reference_signature(data):
    """header_signature as it read the header before its one struct
    read: every field sliced or indexed out on its own."""
    if len(data) < 42 or data[12:15] != b"\x08\x00\x45":
        return None
    protocol = data[23]
    if protocol == PROTO_TCP:
        if len(data) < 48:
            return None
        doff = (data[46] >> 4) * 4
        if doff < 20 or len(data) < 34 + doff or ((data[16] << 8) | data[17]) - 20 - doff < 0:
            return None
        return data[0:12], protocol, data[26:38], data[47] & SIGNATURE_FLAGS
    if protocol == PROTO_UDP and ((data[38] << 8) | data[39]) >= 8:
        return data[0:12], protocol, data[26:38], None
    return None


def _lengths_30_to_66():
    """TCP and UDP frames of every length from 30 to 66 octets: a
    Modbus poll and a datagram cut short, datagrams whose length fields
    fit, and a SYN padded with zeros as a NIC pads it."""
    poll = frames.tcp_frame(PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101", 49152, 502,
                            0x18, frames.modbus_read_request(7, 1))
    datagram = frames.udp_frame(S1_MAC, frames.BROADCAST_MAC, "192.168.1.101",
                                "255.255.255.255", 47808, 47808, b"y" * 24)
    syn = frames.tcp_frame(PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101", 49152, 502,
                           TCP_SYN)
    assert len(poll) == len(datagram) == 66
    for n in range(30, 67):
        yield poll[:n]
        yield datagram[:n]
        yield syn[:n] + b"\x00" * (n - len(syn))
        if n >= 42:
            yield frames.udp_frame(S1_MAC, PLC_MAC, "192.168.1.101", "192.168.1.50",
                                   1000, 2000, b"z" * (n - 42))


def _optioned_and_tagged():
    """TCP and UDP frames with IHL 6, one word of IPv4 options, or
    behind an 802.1Q tag, whole and cut short."""
    for plain in (frames.tcp_frame(PLC_MAC, S1_MAC, "192.168.1.50", "192.168.1.101",
                                   49152, 502, 0x18, b"data"),
                  frames.udp_frame(S1_MAC, PLC_MAC, "192.168.1.101", "192.168.1.50",
                                   1000, 2000, b"hi")):
        ip = bytearray(plain[14:34])
        ip[0] = 0x46
        ip[2:4] = struct.pack(">H", len(plain) - 14 + 4)
        optioned = plain[:14] + bytes(ip) + b"\x01\x01\x01\x00" + plain[34:]
        tagged = plain[:12] + b"\x81\x00\x00\x05" + plain[12:]
        for data in (optioned, tagged):
            yield from (data[:n] for n in range(len(data) + 1))


def _matrix_row_frames():
    """Every frame on the wire of the benchmark matrix's flood row."""
    [flood] = [scenario for scenario, _variant, _expected in bench._scenario_matrix()
               if scenario.kind is sim.ScenarioKind.DOS_FLOOD]
    trace = sim.run(duration_us=bench.DURATION_US, seed=4, scenarios=[flood])
    return [data for _at_us, data in trace.records()]


@pytest.mark.parametrize("corpus, admits", [
    (_signature_corpus, True), (_lengths_30_to_66, True),
    (_optioned_and_tagged, False), (_matrix_row_frames, True)])
def test_header_signature_reads_what_the_slices_read(corpus, admits):
    signatures = {PROTO_TCP: 0, PROTO_UDP: 0, None: 0}
    for data in corpus():
        signature = header_signature(data)
        assert signature == _reference_signature(data), data.hex()
        signatures[signature and signature[1]] += 1
    assert signatures[None] > 0
    admitted = signatures[PROTO_TCP], signatures[PROTO_UDP]
    if admits:
        assert min(admitted) > 0
    else:
        # only the untagged layout with a 20-octet IPv4 header has a signature
        assert admitted == (0, 0)
