"""Central logger: receives status broadcasts and tracks node liveness.

Nodes are discovered from their first valid message; a node that has
never sent one is not listed. Each node's intrusion state is the
intrusion bit of its last accepted message, as the node set it. A node
that stays silent past the contamination timeout (default 20 s) is
marked down and its intrusion state becomes unknown, rendered as
"???". Invalid datagrams are counted but never touch node records, so
a flood of garbage cannot evict good state.
"""

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .announce import AnnounceError, ReplayState, StatusMessage, decode_verify

DEFAULT_TIMEOUT_US = 20_000_000


class Liveness(Enum):
    UP = "up"
    DOWN = "down"


class IntrusionView(Enum):
    NO = "no"
    YES = "yes"
    UNKNOWN = "???"


@dataclass
class NodeRecord:
    node_id: int
    liveness: Liveness
    intrusion_view: IntrusionView
    last_msg_us: int


class CentralLogger:
    def __init__(self, psk: bytes, timeout_us: int = DEFAULT_TIMEOUT_US):
        self.psk = psk
        self.timeout_us = timeout_us
        self.records: dict[int, NodeRecord] = {}
        self.replay = ReplayState()
        self.rejected = Counter()

    def on_datagram(self, data: bytes, now_us: int) -> NodeRecord | None:
        """Apply one received datagram; returns the updated record, or
        None when the datagram was rejected."""
        try:
            msg = decode_verify(data, self.psk, self.replay, now_ms=now_us // 1000)
        except AnnounceError as exc:
            self.rejected[type(exc).__name__] += 1
            return None
        return self._apply(msg, now_us)

    def _apply(self, msg: StatusMessage, now_us: int) -> NodeRecord:
        record = self.records.get(msg.node_id)
        if record is None:
            record = NodeRecord(msg.node_id, Liveness.UP, IntrusionView.NO, now_us)
            self.records[msg.node_id] = record
        record.liveness = Liveness.UP
        record.intrusion_view = IntrusionView.YES if msg.intrusion else IntrusionView.NO
        record.last_msg_us = now_us
        return record

    def sweep(self, now_us: int) -> list[NodeRecord]:
        """Time out silent nodes; returns the records that transitioned
        up -> down on this sweep."""
        flipped = []
        for record in self.records.values():
            if record.liveness is not Liveness.UP:
                continue
            if now_us - record.last_msg_us >= self.timeout_us:
                record.liveness = Liveness.DOWN
                record.intrusion_view = IntrusionView.UNKNOWN
                flipped.append(record)
        return flipped

    def render_status(self) -> str:
        """Operator view, one line per known node sorted by id:
        ``ID: <n> is <up|down> Intrusion: <no|yes|???>``"""
        lines = [
            "ID: %d is %s Intrusion: %s"
            % (r.node_id, r.liveness.value, r.intrusion_view.value)
            for r in sorted(self.records.values(), key=lambda r: r.node_id)
        ]
        return "\n".join(lines) + ("\n" if lines else "")
