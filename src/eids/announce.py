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

The HMAC key schedule (RFC 2104) is computed once per PSK: the SHA-256
states after the inner and the outer padded key are cached for a
bounded number of keys, and each tag copies them in place of hashing
the padded key again.
"""

import functools
import hmac
import struct
from hashlib import sha256
from typing import NamedTuple

MAGIC = b"EIDS"
VERSION = 1
WIRE_LEN = 48
HEADER_LEN = 16
DEFAULT_PORT = 47808
MAX_FUTURE_SKEW_MS = 120_000

FLAG_INTRUSION = 0x01
FLAG_ACTIVE = 0x02

_HEAD = struct.Struct(">4sBH6sBH")
_TIME_MAX = (1 << 48) - 1

_BLOCK = 64  # SHA-256 block size, octets
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


@functools.lru_cache(maxsize=16)
def _pads(psk: bytes):
    """SHA-256 after the inner and after the outer padded key: the key,
    hashed first when it is longer than a block, zero-filled to one
    block and XORed with each pad."""
    key = (sha256(psk).digest() if len(psk) > _BLOCK else psk).ljust(_BLOCK, b"\0")
    return sha256(key.translate(_IPAD)), sha256(key.translate(_OPAD))


def _tag(psk: bytes, header: bytes) -> bytes:
    """HMAC-SHA-256 of header under psk, from the cached pads."""
    inner, outer = _pads(psk)
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
    if not psk:
        raise ValueError("empty PSK")
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
        msg.msg_time_ms.to_bytes(6, "big"),
        msg.flags,
        msg.event_count,
    )
    return header + _tag(psk, header)


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
    floor.
    """
    if len(data) != WIRE_LEN:
        raise BadLength("%d octets, want %d" % (len(data), WIRE_LEN))
    header = data[:HEADER_LEN]
    magic, version, node_id, time_raw, flags, event_count = _HEAD.unpack(header)
    if magic != MAGIC:
        raise BadMagic(repr(magic))
    if version != VERSION:
        raise BadVersion("version %d" % version)
    if not hmac.compare_digest(_tag(psk, header), data[HEADER_LEN:]):
        raise BadHmac("signature mismatch")
    msg_time_ms = int.from_bytes(time_raw, "big")
    if now_ms is not None and msg_time_ms > now_ms + MAX_FUTURE_SKEW_MS:
        raise SkewRejected("message time %d vs clock %d" % (msg_time_ms, now_ms))
    replay.accept(node_id, msg_time_ms)
    return StatusMessage(
        node_id, msg_time_ms, bool(flags & FLAG_INTRUSION), bool(flags & FLAG_ACTIVE),
        event_count,
    )

