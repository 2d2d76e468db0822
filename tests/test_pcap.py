"""pcap container: round trips, byte orders, malformed files."""

import io
import struct
import tracemalloc

import pytest

from eids.pcap import (
    WRITE_BLOCK,
    BadMagic,
    PcapError,
    TruncatedRecord,
    UnsupportedLinkType,
    read_pcap,
    write_pcap,
)
from eids import sim


def test_single_record_round_trip():
    frame = bytes(range(60))
    buffer = io.BytesIO()
    assert write_pcap(buffer, [(1_500_000, frame)]) == 1
    buffer.seek(0)
    records = list(read_pcap(buffer))
    assert records == [(1_500_000, frame)]


def test_empty_file_is_bad_magic():
    with pytest.raises(BadMagic):
        list(read_pcap(io.BytesIO(b"")))


def test_wrong_magic():
    with pytest.raises(BadMagic):
        list(read_pcap(io.BytesIO(b"\x00\x01\x02\x03" + b"\x00" * 40)))


def test_big_endian_file_is_readable():
    frame = b"\xaa" * 20
    buffer = io.BytesIO()
    buffer.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
    buffer.write(struct.pack(">IIII", 3, 250, len(frame), len(frame)))
    buffer.write(frame)
    buffer.seek(0)
    assert list(read_pcap(buffer)) == [(3_000_250, frame)]


def test_non_ethernet_linktype_rejected():
    def capture(linktype):
        frame = b"\x45" + b"\x00" * 19  # a raw IPv4 header
        return io.BytesIO(
            struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, linktype)
            + struct.pack("<IIII", 0, 0, len(frame), len(frame)) + frame
        )

    with pytest.raises(UnsupportedLinkType):
        list(read_pcap(capture(101)))  # LINKTYPE_RAW
    # the upper 16 bits carry FCS information, not the link layer
    assert len(list(read_pcap(capture(0x10000000 | 1)))) == 1


def test_truncated_global_header():
    with pytest.raises(TruncatedRecord):
        list(read_pcap(io.BytesIO(struct.pack("<I", 0xA1B2C3D4) + b"\x00" * 10)))


def test_truncated_record_header_and_body():
    buffer = io.BytesIO()
    write_pcap(buffer, [(0, b"abcd")])
    good = buffer.getvalue()
    with pytest.raises(TruncatedRecord):
        list(read_pcap(io.BytesIO(good[:-10])))  # body cut
    with pytest.raises(TruncatedRecord):
        list(read_pcap(io.BytesIO(good[: 24 + 7])))  # record header cut


def test_sim_trace_round_trip():
    trace = sim.run(duration_us=5_000_000, seed=3)
    buffer = io.BytesIO()
    trace.write_pcap(buffer)
    buffer.seek(0)
    records = list(read_pcap(buffer))
    assert len(records) == len(trace.frames)
    for (ts, data), (time_us, _src, _dst, frame) in zip(records, trace.frames):
        assert ts == time_us
        assert data == frame


def test_oversized_record_rejected_before_its_body_is_read():
    header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    huge = header + struct.pack("<IIII", 0, 0, 64 << 20, 64 << 20)
    huge += b"\x00" * (100 - len(huge))
    tracemalloc.start()
    try:
        with pytest.raises(PcapError, match="exceeds"):
            list(read_pcap(io.BytesIO(huge)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_record_at_largest_snaplen_is_read():
    frame = b"\xaa" * 262_144  # libpcap's largest snaplen
    buffer = io.BytesIO()
    write_pcap(buffer, [(0, frame)])
    buffer.seek(0)
    assert list(read_pcap(buffer)) == [(0, frame)]


def _frames(count):
    """Fresh frames of 1-120 octets at times that cross second boundaries."""
    for i in range(count):
        yield i * 333_337, bytes([i & 0xFF]) * (1 + i % 120)


def _per_record(frames):
    out = [struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)]
    for ts_us, data in frames:
        out.append(struct.pack("<IIII", ts_us // 1_000_000, ts_us % 1_000_000,
                               len(data), len(data)) + data)
    return b"".join(out)


@pytest.mark.parametrize("count", [0, 1, WRITE_BLOCK - 1, WRITE_BLOCK, WRITE_BLOCK + 1, 5_000])
def test_block_writes_equal_per_record_bytes(count):
    buffer = io.BytesIO()
    assert write_pcap(buffer, _frames(count)) == count
    assert buffer.getvalue() == _per_record(_frames(count))


class _Sink:
    """A stream that keeps nothing of what is written to it."""

    def __init__(self):
        self.size = 0

    def write(self, data):
        self.size += len(data)


def _peak_write(count):
    sink = _Sink()
    tracemalloc.start()
    try:
        assert write_pcap(sink, _frames(count)) == count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sink.size


def test_write_consumes_a_generator_without_holding_it():
    small, _ = _peak_write(1_000)
    large, written = _peak_write(100_000)
    # holding the 100k frames would take more than the whole file
    assert written > 7_000_000
    assert large < small + (1 << 20)
