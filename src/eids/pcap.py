"""Classic pcap container, read and write.

Layout: 24-byte global header (magic 0xa1b2c3d4 native or byte-swapped,
version 2.4, linktype 1 = Ethernet) followed by 16-byte record headers
(ts_sec, ts_usec, incl_len, orig_len). Both byte orders are accepted on
read; files are written little-endian. Only Ethernet captures are
read: the frame decoder understands no other link layer. Timestamps
are integer microseconds throughout.
"""

import struct
from itertools import islice
from typing import BinaryIO, Iterable, Iterator

MAGIC = 0xA1B2C3D4
MAGIC_SWAPPED = 0xD4C3B2A1
LINKTYPE_ETHERNET = 1
SNAPLEN = 65535
MAX_RECORD_LEN = 262_144  # libpcap's largest snaplen
WRITE_BLOCK = 2048  # records joined into one write

_GLOBAL = "IHHiIII"
_RECORD = "IIII"


class PcapError(ValueError):
    pass


class BadMagic(PcapError):
    """First four bytes are not a classic pcap magic number."""


class TruncatedRecord(PcapError):
    """File ends inside a header or a record body."""


class UnsupportedLinkType(PcapError):
    """Global header names a link layer other than Ethernet."""


def read_pcap(stream: BinaryIO) -> Iterator[tuple[int, bytes]]:
    """Yield (timestamp_us, frame bytes) for each record, in file order.

    Stops cleanly at end of file; raises BadMagic or TruncatedRecord
    for malformed input, PcapError for a record longer than
    MAX_RECORD_LEN (checked before its body is read) and
    UnsupportedLinkType for non-Ethernet captures.
    """
    lead = stream.read(4)
    if len(lead) < 4:
        raise BadMagic("file shorter than a pcap magic number")
    magic = struct.unpack("<I", lead)[0]
    if magic == MAGIC:
        order = "<"
    elif magic == MAGIC_SWAPPED:
        order = ">"
    else:
        raise BadMagic("0x%08x is not a pcap magic number" % magic)

    rest = stream.read(20)
    if len(rest) < 20:
        raise TruncatedRecord("global header cut short")
    # the upper 16 bits of the link type carry FCS information
    linktype = struct.unpack(order + _GLOBAL[1:], rest)[-1] & 0xFFFF
    if linktype != LINKTYPE_ETHERNET:
        raise UnsupportedLinkType(
            "link type %d is not Ethernet (%d)" % (linktype, LINKTYPE_ETHERNET)
        )
    record = struct.Struct(order + _RECORD)
    while True:
        head = stream.read(record.size)
        if not head:
            return
        if len(head) < record.size:
            raise TruncatedRecord("record header cut short")
        ts_sec, ts_usec, incl_len, _orig = record.unpack(head)
        if incl_len > MAX_RECORD_LEN:
            raise PcapError("record of %d octets exceeds %d" % (incl_len, MAX_RECORD_LEN))
        body = stream.read(incl_len)
        if len(body) < incl_len:
            raise TruncatedRecord("record body cut short")
        yield ts_sec * 1_000_000 + ts_usec, body


def write_pcap(stream: BinaryIO, frames: Iterable[tuple[int, bytes]]) -> int:
    """Write frames as a little-endian classic pcap; returns the count.

    Records are joined in blocks of WRITE_BLOCK and written one block a
    call, so a generator is consumed with at most one block held."""
    stream.write(
        struct.pack("<" + _GLOBAL, MAGIC, 2, 4, 0, 0, SNAPLEN, LINKTYPE_ETHERNET)
    )
    pack = struct.Struct("<" + _RECORD).pack
    records = iter(frames)
    count = 0
    while True:
        block = [
            pack(ts_us // 1_000_000, ts_us % 1_000_000, len(data), len(data)) + data
            for ts_us, data in islice(records, WRITE_BLOCK)
        ]
        if not block:
            return count
        stream.write(b"".join(block))
        count += len(block)
