"""Authenticated node-status datagrams and their verification.

Wire format, exactly 48 octets, all integers big-endian:

    offset  size  field
    0       4     magic "EIDS"
    4       1     version, 0x01
    5       2     node id
    7       6     message time, milliseconds since epoch
    13      1     flags: bit0 intrusion-since-last, bit1 active mode
    14      2     events since last message
    16      32    HMAC-SHA-256 over octets 0..15 under the shared PSK

The message time is the replay-protection variable: a receiver accepts
a node's message only if its time is strictly greater than the last
accepted one. There is no encryption; the status bits are not secret,
only their authenticity matters.

A message is a StatusMessage, a named tuple of the header's fields with
the flags octet split into its two bits; its flags property joins them
again for the wire.

The HMAC key schedule (RFC 2104) is computed once per PSK, at the
key's first use: the SHA-256 states after the inner and the outer
padded key are cached for a bounded number of keys, and each tag copies
them in place of hashing the padded key again. SHA-256 comes from the
interpreter's built-in module (`_sha2`, or `_sha256` before 3.12), and
the constant-time compare from `_operator`, the one hmac itself falls
back to: signing and verifying never load hashlib, hmac or OpenSSL,
which would add about 3.7 MB of resident memory for two compressions
per datagram. Only a build without the built-in module falls back to
hashlib; the import happens at the key's first use, so even there a
process that never signs or verifies a datagram, such as `eids learn`
or `eids detect` on a capture, never loads it. The empty key, under
which anyone can sign, is refused there, for both directions.
"""

import functools
import struct
from _operator import _compare_digest as compare_digest
from typing import NamedTuple

MAGIC = b"EIDS"
VERSION = 1
WIRE_LEN = 48
HEADER_LEN = 16
DEFAULT_PORT = 47808
MAX_FUTURE_SKEW_MS = 120_000

FLAG_INTRUSION = 0x01
FLAG_ACTIVE = 0x02

# the 48-bit message time is read and written as a 16-bit high part and
# a 32-bit low part
_HEAD = struct.Struct(">4sBHHIBH")
_TIME_MAX = (1 << 48) - 1

_BLOCK = 64  # SHA-256 block size, octets
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


def _sha256():
    """The SHA-256 constructor: the interpreter's built-in module, and
    hashlib only when the build has none."""
    try:
        from _sha2 import sha256  # 3.12+
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


@functools.lru_cache(maxsize=16)
def _key(psk: bytes):
    """What a datagram under psk needs: SHA-256 after the inner and after
    the outer padded key (the key, hashed first when it is longer than a
    block, zero-filled to one block and XORed with each pad)."""
    if not psk:
        raise ValueError("empty PSK")
    sha256 = _sha256()
    key = (sha256(psk).digest() if len(psk) > _BLOCK else psk).ljust(_BLOCK, b"\0")
    return sha256(key.translate(_IPAD)), sha256(key.translate(_OPAD))


def _tag(inner, outer, header: bytes) -> bytes:
    """HMAC-SHA-256 of header from a key's cached pad states."""
    inner = inner.copy()
    inner.update(header)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


class AnnounceError(ValueError):
    pass


class BadLength(AnnounceError):
    pass


class BadMagic(AnnounceError):
    pass


class BadVersion(AnnounceError):
    pass


class BadHmac(AnnounceError):
    pass


class ReplayRejected(AnnounceError):
    pass


class SkewRejected(AnnounceError):
    """Message time implausibly far in the receiver's future."""


class StatusMessage(NamedTuple):
    """One node's status, as encode signs it and decode_verify returns it."""

    node_id: int
    msg_time_ms: int
    intrusion: bool
    active: bool
    event_count: int

    @property
    def flags(self) -> int:
        return (FLAG_INTRUSION if self.intrusion else 0) | (
            FLAG_ACTIVE if self.active else 0
        )


class ReplayState:
    """Last accepted message time per node, strictly increasing."""

    def __init__(self) -> None:
        self._last: dict[int, int] = {}

    def accept(self, node_id: int, msg_time_ms: int) -> None:
        last = self._last.get(node_id)
        if last is not None and msg_time_ms <= last:
            raise ReplayRejected(
                "node %d time %d not after %d" % (node_id, msg_time_ms, last)
            )
        self._last[node_id] = msg_time_ms


def encode(msg: StatusMessage, psk: bytes) -> bytes:
    """Serialize and sign a status message; deterministic bytes."""
    inner, outer = _key(psk)
    if not 0 <= msg.node_id <= 0xFFFF:
        raise ValueError("node id out of range")
    if not 0 <= msg.msg_time_ms <= _TIME_MAX:
        raise ValueError("message time out of range")
    if not 0 <= msg.event_count <= 0xFFFF:
        raise ValueError("event count out of range")
    header = _HEAD.pack(
        MAGIC,
        VERSION,
        msg.node_id,
        msg.msg_time_ms >> 32,
        msg.msg_time_ms & 0xFFFFFFFF,
        msg.flags,
        msg.event_count,
    )
    return header + _tag(inner, outer, header)


def decode_verify(
    data: bytes,
    psk: bytes,
    replay: ReplayState,
    now_ms: int | None = None,
) -> StatusMessage:
    """Verify and decode one datagram, updating the replay state.

    Checks run in order: length, magic, version, HMAC, future skew
    past MAX_FUTURE_SKEW_MS (only when the caller supplies its clock),
    replay. Only a fully accepted message advances the per-node replay
    floor. The empty psk raises ValueError before any check.
    """
    inner, outer = _key(psk)
    if len(data) != WIRE_LEN:
        raise BadLength("%d octets, want %d" % (len(data), WIRE_LEN))
    header = data[:HEADER_LEN]
    magic, version, node_id, time_hi, time_lo, flags, event_count = _HEAD.unpack(header)
    if magic != MAGIC:
        raise BadMagic(repr(magic))
    if version != VERSION:
        raise BadVersion("version %d" % version)
    if not compare_digest(_tag(inner, outer, header), data[HEADER_LEN:]):
        raise BadHmac("signature mismatch")
    msg_time_ms = time_hi << 32 | time_lo
    if now_ms is not None and msg_time_ms > now_ms + MAX_FUTURE_SKEW_MS:
        raise SkewRejected("message time %d vs clock %d" % (msg_time_ms, now_ms))
    replay.accept(node_id, msg_time_ms)
    return StatusMessage(
        node_id, msg_time_ms, bool(flags & FLAG_INTRUSION), bool(flags & FLAG_ACTIVE),
        event_count,
    )

