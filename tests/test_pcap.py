"""pcap container: round trips, byte orders, malformed files."""

import io
import struct

import pytest

from eids.pcap import (
    BadMagic,
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
    for (ts, data), fr in zip(records, trace.frames):
        assert ts == fr.time_us
        assert data == fr.data
