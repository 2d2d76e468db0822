"""Central logger: receives status broadcasts and tracks node liveness.

Nodes are discovered from their first valid message; a node that has
never sent one is not listed. A node's record holds its last accepted
message, so its intrusion view is by construction that message's
intrusion bit, as the node set it, and its mode and event count are
that message's too. A node silent for the contamination timeout
(default 20 s) is marked down at exactly its last message's time plus
the timeout, and its intrusion state is then unknown, rendered as
"???". CentralLogger.step, which `eids logger` and the bench both drive,
sweeps the records only once the earliest such deadline of the nodes up
is due; until then a step costs one compare. Each node's status line is
kept as its record changes, so a view is one join of lines in node id
order, not a sort and format of every record. Invalid datagrams are
counted but never touch node records, so a flood of garbage cannot
evict good state or make the logger scan them.
"""

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from math import inf

from .announce import AnnounceError, ReplayState, StatusMessage, decode_verify

DEFAULT_TIMEOUT_US = 20_000_000


@dataclass
class NodeRecord:
    node_id: int
    last: StatusMessage  # the last accepted message
    last_msg_us: int  # when it arrived
    up: bool


class CentralLogger:
    def __init__(self, psk: bytes, timeout_us: int = DEFAULT_TIMEOUT_US):
        # anyone can sign under the empty key, and a timeout of 0 or less
        # takes every node down at once
        if not psk:
            raise ValueError("empty PSK")
        if timeout_us <= 0:
            raise ValueError("timeout of %d us is not above 0" % timeout_us)
        self.psk = psk
        self.timeout_us = timeout_us
        self.records: dict[int, NodeRecord] = {}
        self.replay = ReplayState()
        self.rejected = Counter()
        # a lower bound on the earliest down deadline, inf while no node is up
        self.due_us: int | float = inf
        self._view = ""  # the status view step last returned
        # each known node's status line, kept as its record changes, and
        # the node ids in sorted order, so a view is one join
        self._lines: dict[int, str] = {}
        self._ids: list[int] = []

    def step(self, data: bytes | None, now_us: int, wall_ms: int | None = None):
        """Sweep if a down is due by now_us, then apply data, the datagram
        received at now_us, if any. Returns the transitions (at_us,
        node_id, "up"|"down") in the order they happened, each down at
        its node's deadline, ties in first-seen order, and the status view
        if a line of it changed, else None; wall_ms is as for on_datagram."""
        transitions = []
        if now_us >= self.due_us:
            downs = sorted(self.sweep(now_us), key=lambda r: r.last_msg_us)
            transitions = [(r.last_msg_us + self.timeout_us, r.node_id, "down") for r in downs]
        accepted = None if data is None else self.on_datagram(data, now_us, wall_ms)
        record, came_up, flipped = accepted or (None, False, False)
        if came_up:
            transitions.append((now_us, record.node_id, "up"))
        if not (transitions or flipped):
            return transitions, None
        view = self.render_status()
        changed, self._view = view != self._view, view
        return transitions, view if changed else None

    def on_datagram(
        self, data: bytes, now_us: int, wall_ms: int | None = None
    ) -> tuple[NodeRecord, bool, bool] | None:
        """Apply one received datagram; returns None when it was rejected,
        else the updated record and how the node's status line changed:
        whether the node came up (it was new or down) and whether its
        intrusion bit flipped. now_us is the liveness clock that sweep
        reads too; wall_ms, the wall time in epoch milliseconds that the
        message-time skew check compares with, defaults to now_us // 1000
        for a caller whose one clock is both."""
        if wall_ms is None:
            wall_ms = now_us // 1000
        try:
            msg = decode_verify(data, self.psk, self.replay, now_ms=wall_ms)
        except AnnounceError as exc:
            self.rejected[type(exc).__name__] += 1
            return None
        record = self.records.get(msg.node_id)
        came_up = record is None or not record.up
        if came_up:
            # arrivals come in time order: a node up already never holds the
            # earliest deadline, so only a node coming up can lower the bound
            self.due_us = min(self.due_us, now_us + self.timeout_us)
        if record is None:
            record = self.records[msg.node_id] = NodeRecord(msg.node_id, msg, now_us, True)
            insort(self._ids, msg.node_id)
            self._lines[msg.node_id] = _status_line(record)
            return record, True, False
        flipped = record.last.intrusion != msg.intrusion
        record.last = msg
        record.last_msg_us = now_us
        record.up = True
        if came_up or flipped:
            self._lines[msg.node_id] = _status_line(record)
        return record, came_up, flipped

    def sweep(self, now_us: int) -> list[NodeRecord]:
        """Time out silent nodes; returns the records that transitioned
        up -> down on this sweep, in first-seen order. due_us becomes the
        earliest deadline of the nodes still up."""
        flipped = []
        cutoff_us = now_us - self.timeout_us
        earliest_us = inf  # of the last messages of the nodes still up
        for record in self.records.values():
            if record.up:
                last_us = record.last_msg_us
                if last_us <= cutoff_us:
                    record.up = False
                    flipped.append(record)
                    self._lines[record.node_id] = _status_line(record)
                elif last_us < earliest_us:
                    earliest_us = last_us
        self.due_us = earliest_us + self.timeout_us
        return flipped

    def render_status(self) -> str:
        """Operator view, one line per known node sorted by id:
        ``ID: <n> is <up|down> Intrusion: <no|yes|???>``"""
        return "".join(map(self._lines.__getitem__, self._ids))

    def render_rejected(self) -> str:
        """Rejected datagrams per cause, sorted by name:
        ``rejected: BadHmac=2 BadLength=1`` or ``rejected: none``"""
        counts = " ".join("%s=%d" % item for item in sorted(self.rejected.items()))
        return "rejected: " + (counts or "none")


def _status_line(record: NodeRecord) -> str:
    """A node's line of the status view, newline included."""
    if record.up:
        return "ID: %d is up Intrusion: %s\n" % (
            record.node_id, "yes" if record.last.intrusion else "no")
    return "ID: %d is down Intrusion: ???\n" % record.node_id
