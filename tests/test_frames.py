"""Frame builders: the Internet checksum, header checksums on built
frames, and the cached address and IPv4 header conversions."""

import random
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
