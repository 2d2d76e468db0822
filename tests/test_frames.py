"""Frame builders: the Internet checksum, header checksums on built
frames, TCP frames from cached templates and Modbus poll frames from
per-relation templates against a reference built here, and the cached
address and IPv4 header conversions."""

import random
import socket
import struct

import pytest

from eids import frames
from eids.packet import PROTO_TCP, PROTO_UDP, ArpOp, parse_frame

PLC_MAC = "02:00:ac:10:01:32"
S1_MAC = "02:00:ac:10:01:65"
PLC_IP = "192.168.1.50"
S1_IP = "192.168.1.101"


def _ones_complement_sum(data: bytes) -> int:
    """Reference: sum the big-endian 16-bit words, zero-padding an odd
    tail, and fold the carries back in."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(">%dH" % (len(data) // 2), data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def _reference_checksum(data: bytes) -> int:
    return ~_ones_complement_sum(data) & 0xFFFF


def _word_sum_multiples():
    """Even-length data whose word sum is a nonzero multiple of 0xFFFF:
    the fold gives 0xFFFF there, not the residue 0."""
    rng = random.Random(7)
    cases = []
    for k in range(1, 6):
        words = [0xFFFF] * k
        for _ in range(3):
            a = rng.randrange(1, 0xFFFF)
            words += [a, 0xFFFF - a]
        rng.shuffle(words)
        cases.append(struct.pack(">%dH" % len(words), *words))
    return cases


def _checksum_inputs():
    rng = random.Random(5)
    cases = [b"", b"\x00", b"\x00" * 20, b"\x00" * 21, b"\xff", b"\xff\xff",
             b"\x12\x34\xed\xcb", b"\x80\x00\x7f\xff", b"\xff\xff\x00"]
    for length in list(range(1, 70)) + [1499, 1500]:
        cases.append(bytes(rng.randrange(256) for _ in range(length)))
    return cases + _word_sum_multiples()


@pytest.mark.parametrize("data", _checksum_inputs(), ids=lambda d: "%dB" % len(d))
def test_checksum_matches_reference_fold(data):
    assert frames._checksum(data) == _reference_checksum(data)


@pytest.mark.parametrize("data", _word_sum_multiples(), ids=lambda d: "%dB" % len(d))
def test_word_sum_multiple_of_0xffff_checksums_to_zero(data):
    assert sum(struct.unpack(">%dH" % (len(data) // 2), data)) % 0xFFFF == 0
    assert frames._checksum(data) == 0


def _built_frames():
    payload = frames.modbus_read_request(7, 1)
    return {
        "tcp": frames.tcp_frame(PLC_MAC, S1_MAC, PLC_IP, S1_IP, 49152, 502, 0x18,
                                payload, seq=0xFFFFFFFF + 3, ack=12),
        "tcp-odd-payload": frames.tcp_frame(PLC_MAC, S1_MAC, PLC_IP, S1_IP, 49152, 502,
                                            0x18, payload + b"\x01", seq=1, ack=2),
        "tcp-empty": frames.tcp_frame(S1_MAC, PLC_MAC, S1_IP, PLC_IP, 502, 49152, 0x12),
        "udp": frames.udp_frame(S1_MAC, frames.BROADCAST_MAC, S1_IP, frames.BROADCAST_IP,
                                9999, 9999, b"status"),
        "arp": frames.arp_frame(ArpOp.REQUEST, PLC_MAC, PLC_IP, frames.ZERO_MAC, S1_IP),
    }


@pytest.mark.parametrize("name", sorted(_built_frames()))
def test_built_frame_checksums_verify(name):
    frame = _built_frames()[name]
    meta = parse_frame(frame)
    if meta.l3 is None:
        assert meta.arp is not None  # ARP carries no checksum
        return
    header = frame[14:34]
    assert _ones_complement_sum(header) == 0xFFFF
    if meta.l3.protocol == PROTO_TCP:
        segment = frame[34:]
        pseudo = header[12:20] + struct.pack(">BBH", 0, PROTO_TCP, len(segment))
        assert _ones_complement_sum(pseudo + segment) == 0xFFFF
    else:
        assert meta.l3.protocol == PROTO_UDP


def test_cached_conversions_equal_fresh_ones():
    args = (PLC_IP, S1_IP, PROTO_TCP, 32)
    first = frames._ipv4_header(*args)
    assert frames._ipv4_header(*args) == first
    assert frames._ipv4_header.__wrapped__(*args) == first
    assert _ones_complement_sum(first) == 0xFFFF
    for convert, text, expected in (
        (frames.mac_bytes, PLC_MAC, bytes([2, 0, 0xAC, 0x10, 1, 0x32])),
        (frames.ip_bytes, PLC_IP, bytes([192, 168, 1, 50])),
    ):
        assert convert(text) == expected
        assert convert(text) == expected  # served from the cache
        assert convert.__wrapped__(text) == expected
    assert frames.ip_bytes.cache_info().hits >= 1
    assert frames._ipv4_header.cache_info().hits >= 1


def _reference_tcp_frame(src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, flags,
                         payload, seq, ack):
    """A TCP frame built field by field, both checksums by the reference fold."""
    def mac(text):
        return bytes(int(part, 16) for part in text.split(":"))

    addresses = socket.inet_aton(src_ip) + socket.inet_aton(dst_ip)
    header = struct.pack(">HHIIBBHHH", src_port, dst_port, seq % (1 << 32), ack % (1 << 32),
                         5 << 4, flags, 8192, 0, 0)
    pseudo = addresses + struct.pack(">BBH", 0, PROTO_TCP, len(header) + len(payload))
    csum = _reference_checksum(pseudo + header + payload)
    segment = header[:16] + struct.pack(">H", csum) + header[18:] + payload
    ip = struct.pack(">BBHHHBBH", 0x45, 0, 20 + len(segment), 0, 0x4000, 64, PROTO_TCP, 0)
    ip += addresses
    ip = ip[:10] + struct.pack(">H", _reference_checksum(ip)) + ip[12:]
    return mac(dst_mac) + mac(src_mac) + b"\x08\x00" + ip + segment


def _random_tcp_args(rng):
    def mac():
        return ":".join("%02x" % rng.randrange(256) for _ in range(6))

    def ip():
        return ".".join(str(rng.randrange(256)) for _ in range(4))

    def seq_number():
        return rng.choice([rng.randrange(1 << 32), rng.randrange(-(1 << 40), 0),
                           rng.randrange(1 << 32, 1 << 64), -1, 1 << 32])

    payload = bytes(rng.randrange(256) for _ in range(rng.randrange(65)))
    return (mac(), mac(), ip(), ip(), rng.randrange(1 << 16), rng.randrange(1 << 16),
            rng.randrange(256), payload, seq_number(), seq_number())


def _zero_residue(args):
    """ARGS with the payload word before any odd tail set so that the words
    the TCP checksum covers sum to a nonzero multiple of 0xFFFF. With that
    word zero, the reference checksum is 0xFFFF less the sum's residue, so
    taking it as the word cancels the residue."""
    payload = args[7]
    at = len(payload) - 2 - len(payload) % 2
    zeroed = payload[:at] + b"\x00\x00" + payload[at + 2:]
    csum = _reference_tcp_frame(*args[:7], zeroed, *args[8:])[50:52]
    return args[:7] + (payload[:at] + csum + payload[at + 2:],) + args[8:]


def test_tcp_frame_matches_reference_on_random_segments():
    rng = random.Random(23)
    for _ in range(2_000):
        args = _random_tcp_args(rng)
        assert frames.tcp_frame(*args[:8], seq=args[8], ack=args[9]) == \
            _reference_tcp_frame(*args), args


def test_tcp_frame_matches_reference_on_one_connection():
    # one connection: only seq, ack and the payload's octets vary
    rng = random.Random(29)
    connection = (PLC_MAC, S1_MAC, PLC_IP, S1_IP, 49152, 502, 0x18)
    for _ in range(2_000):
        payload = bytes(rng.randrange(256) for _ in range(rng.choice([0, 1, 7, 8, 12, 13])))
        seq, ack = rng.randrange(-(1 << 33), 1 << 33), rng.randrange(-(1 << 33), 1 << 33)
        assert frames.tcp_frame(*connection, payload, seq, ack) == \
            _reference_tcp_frame(*connection, payload, seq, ack)


@pytest.mark.parametrize("odd", [False, True], ids=["even-payload", "odd-payload"])
def test_tcp_word_sum_multiple_of_0xffff_checksums_to_zero(odd):
    rng = random.Random(31 + odd)
    for _ in range(200):
        args = _random_tcp_args(rng)
        length = 2 * rng.randrange(1, 32) + odd
        args = _zero_residue(args[:7] + (bytes(rng.randrange(256) for _ in range(length)),)
                             + args[8:])
        reference = _reference_tcp_frame(*args)
        assert reference[50:52] == b"\x00\x00"  # the fold gave 0xFFFF, not the residue 0
        assert frames.tcp_frame(*args) == reference


PSH_ACK = 0x18


def _random_relation(rng):
    """(client MAC, server MAC, client IP, server IP, client port, server
    port, unit) of a poll relation."""
    args = _random_tcp_args(rng)
    return args[:6] + (rng.randrange(1 << 9),)


def _reference_poll(relation, seq, ack, k):
    """The request with seq and ack, and the response with ack as its seq
    and seq as its ack, of poll k on a relation, built by the reference."""
    cmac, smac, cip, sip, cport, sport, unit = relation
    return (
        _reference_tcp_frame(cmac, smac, cip, sip, cport, sport, PSH_ACK,
                             frames.modbus_read_request(k, unit), seq, ack),
        _reference_tcp_frame(smac, cmac, sip, cip, sport, cport, PSH_ACK,
                             frames.modbus_read_response(k, unit, k & 0xFF), ack, seq),
    )


def _poll(relation, seq, ack, k):
    request, response = frames.modbus_read_poll(*relation)
    return request(seq, ack, k), response(ack, seq, k, k)


def test_poll_frames_match_reference_on_random_relations():
    rng = random.Random(37)
    for _ in range(300):
        relation = _random_relation(rng)
        for _ in range(5):
            seq, ack = rng.randrange(-(1 << 33), 1 << 33), rng.randrange(-(1 << 33), 1 << 33)
            k = rng.randrange(1 << 18)
            assert _poll(relation, seq, ack, k) == _reference_poll(relation, seq, ack, k), \
                (relation, seq, ack, k)


def test_poll_transaction_id_wraps():
    relation = (PLC_MAC, S1_MAC, PLC_IP, S1_IP, 49152, 502, 1)
    for k, txid in ((0xFFFE, b"\xff\xfe"), (0xFFFF, b"\xff\xff"), (0x10000, b"\x00\x00"),
                    (0x10001, b"\x00\x01")):
        built = _poll(relation, 1001 + 12 * k, 2001 + 10 * k, k)
        assert built == _reference_poll(relation, 1001 + 12 * k, 2001 + 10 * k, k)
        assert [frame[54:56] for frame in built] == [txid, txid]  # the ADU's first word


def test_poll_sequence_numbers_wrap_at_2_to_the_32():
    rng = random.Random(41)
    relation = _random_relation(rng)
    for d_seq in range(-64, 65):
        for d_ack in (-64, -12, -1, 0, 1, 10, 64):
            seq, ack = (1 << 32) + d_seq, (1 << 32) + d_ack
            k = rng.randrange(1 << 16)
            assert _poll(relation, seq, ack, k) == _reference_poll(relation, seq, ack, k)


def test_poll_word_sum_multiple_of_0xffff_checksums_to_zero():
    """For each frame of a poll, an ack chosen as the reference checksum
    of the frame with ack 0 makes the checksummed words sum to a nonzero
    multiple of 0xFFFF: the fold gives 0xFFFF, so the checksum is 0."""
    rng = random.Random(43)
    for _ in range(200):
        relation = _random_relation(rng)
        request, response = frames.modbus_read_poll(*relation)
        seq, k = rng.randrange(1 << 32), rng.randrange(1 << 16)
        ack = int.from_bytes(_reference_poll(relation, seq, 0, k)[0][50:52], "big")
        reference = _reference_poll(relation, seq, ack, k)[0]
        assert reference[50:52] == b"\x00\x00"
        assert request(seq, ack, k) == reference
        ack = int.from_bytes(_reference_poll(relation, 0, seq, k)[1][50:52], "big")
        reference = _reference_poll(relation, ack, seq, k)[1]
        assert reference[50:52] == b"\x00\x00"
        assert response(seq, ack, k, k) == reference
