"""Central logger: record updates, contamination timeout, rendering."""

import random
import struct

import pytest

from eids import frames, packet, sim
from eids.announce import StatusMessage, encode
from eids.bench import _feed_logger, _udp_payload
from eids.central import CentralLogger

PSK = b"logger-test-psk"
S = 1_000_000


def _wire(node_id, time_ms, intrusion=False, active=True, events=0):
    return encode(StatusMessage(node_id, time_ms, intrusion, active, events), PSK)


def _view(record):
    """A record's liveness and intrusion state as render_status spells them."""
    if not record.up:
        return "down", "???"
    return "up", "yes" if record.last.intrusion else "no"


def test_valid_message_updates_record():
    logger = CentralLogger(PSK)
    record = logger.on_datagram(_wire(2, 1_000), now_us=1 * S)[0]
    assert _view(record) == ("up", "no")

    record = logger.on_datagram(_wire(3, 1_000, intrusion=True), now_us=1 * S)[0]
    assert _view(record) == ("up", "yes")


def test_invalid_messages_counted_not_recorded():
    logger = CentralLogger(PSK)
    assert logger.on_datagram(b"garbage", now_us=0) is None
    wire = bytearray(_wire(2, 1_000))
    wire[7] ^= 0x01
    assert logger.on_datagram(bytes(wire), now_us=0) is None
    assert not logger.records
    assert sum(logger.rejected.values()) == 2


def test_replayed_message_changes_nothing():
    logger = CentralLogger(PSK)
    wire = _wire(2, 1_000)
    logger.on_datagram(wire, now_us=1 * S)
    before = logger.records[2].last_msg_us
    assert logger.on_datagram(wire, now_us=5 * S) is None
    assert logger.records[2].last_msg_us == before
    assert logger.rejected["ReplayRejected"] == 1


def test_record_keeps_the_last_accepted_message():
    logger = CentralLogger(PSK)
    first = _wire(5, 1_000, active=False)
    record = logger.on_datagram(first, now_us=1 * S)[0]
    assert (record.last.active, record.last.event_count) == (False, 0)
    record = logger.on_datagram(_wire(5, 2_000, intrusion=True, events=7), now_us=2 * S)[0]
    assert (record.last.active, record.last.event_count) == (True, 7)
    assert record.last == StatusMessage(5, 2_000, True, True, 7)
    assert record.last_msg_us == 2 * S

    forged = bytearray(_wire(5, 3_000, events=9))
    forged[15] ^= 0x01  # a bit of the signed event count
    wrong_key = encode(StatusMessage(5, 3_000, False, False, 9), b"not-the-psk")
    same_time = _wire(5, 2_000, active=False, events=8)
    for hostile in (first, same_time, bytes(forged), wrong_key):
        assert logger.on_datagram(hostile, now_us=3 * S) is None
        assert logger.records[5].last == StatusMessage(5, 2_000, True, True, 7)
        assert logger.records[5].last_msg_us == 2 * S
    assert logger.rejected == {"ReplayRejected": 2, "BadHmac": 2}


def test_sweep_timeout_boundaries():
    logger = CentralLogger(PSK)
    logger.on_datagram(_wire(1, 1_000), now_us=0)
    assert logger.sweep(19 * S) == []
    flipped = logger.sweep(20 * S)
    assert [r.node_id for r in flipped] == [1]
    assert _view(logger.records[1]) == ("down", "???")
    assert logger.sweep(21 * S) == []  # already down, no second transition


def test_recovery_after_down():
    logger = CentralLogger(PSK)
    logger.on_datagram(_wire(1, 1_000), now_us=0)
    logger.sweep(25 * S)
    record = logger.on_datagram(_wire(1, 30_000), now_us=30 * S)[0]
    assert _view(record) == ("up", "no")


def test_accepted_datagram_says_how_the_status_line_changed():
    logger = CentralLogger(PSK)
    changes = []
    for time_ms, intrusion in [(1_000, False), (2_000, False), (3_000, True), (4_000, True)]:
        _record, came_up, flipped = logger.on_datagram(_wire(1, time_ms, intrusion),
                                                       now_us=time_ms * 1000)
        changes.append((came_up, flipped))
    logger.sweep(30 * S)
    changes.append(logger.on_datagram(_wire(1, 31_000, intrusion=True), now_us=31 * S)[1:])
    # new; unchanged; intrusion set; unchanged; back up after the timeout
    assert changes == [(True, False), (False, False), (False, True), (False, False),
                       (True, False)]


def test_ten_second_cadence_never_goes_down():
    logger = CentralLogger(PSK)
    for k in range(30):
        at = k * 10 * S
        logger.on_datagram(_wire(4, at // 1000 + 1), now_us=at)
        assert logger.sweep(at + 9 * S) == []
    assert logger.records[4].up


def test_per_node_independence():
    logger = CentralLogger(PSK)
    logger.on_datagram(_wire(1, 1_000), now_us=0)
    logger.on_datagram(_wire(2, 1_000), now_us=18 * S)
    flipped = logger.sweep(20 * S)
    assert [r.node_id for r in flipped] == [1]
    assert logger.records[2].up


def test_render_reference_output():
    logger = CentralLogger(PSK)
    logger.on_datagram(_wire(1, 1_000), now_us=0)
    logger.on_datagram(_wire(2, 25_000), now_us=25 * S)
    logger.on_datagram(_wire(3, 25_100, intrusion=True), now_us=25 * S)
    logger.sweep(26 * S)  # node 1 silent for 26 s
    expected = (
        "ID: 1 is down Intrusion: ???\n"
        "ID: 2 is up Intrusion: no\n"
        "ID: 3 is up Intrusion: yes\n"
    )
    assert logger.render_status() == expected
    assert logger.render_status() == expected  # idempotent


def test_render_empty():
    assert CentralLogger(PSK).render_status() == ""


@pytest.mark.parametrize("psk, timeout_us", [(b"", 20 * S), (PSK, 0), (PSK, -1)])
def test_an_empty_psk_or_a_timeout_not_above_zero_is_refused(psk, timeout_us):
    with pytest.raises(ValueError):
        CentralLogger(psk, timeout_us)


def test_rejects_render_per_cause_sorted_by_name():
    logger = CentralLogger(PSK)
    assert logger.render_rejected() == "rejected: none"
    wire = _wire(1, 1_000)
    for data in (b"junk", wire[:-1] + bytes([wire[-1] ^ 1]), b"short"):
        assert logger.on_datagram(data, now_us=1 * S) is None
    assert logger.render_rejected() == "rejected: BadHmac=1 BadLength=2"


def test_logger_feed_skips_udp_length_past_frame_end():
    topology = sim.Topology.default()
    s2 = topology.device("S2")
    frame = frames.udp_frame(
        s2.mac, frames.BROADCAST_MAC, s2.ip, frames.BROADCAST_IP, 47808, 47808,
        _wire(s2.node_id, 1_000),
    )
    overlong = bytearray(frame)
    overlong[14 + 20 + 4 : 14 + 20 + 6] = struct.pack(">H", 8 + 48 + 1)
    for data, delivered in ((frame, True), (bytes(overlong), False)):
        trace = sim.FrameTrace(topology, [(1 * S, "S2", None, data)])
        logger = CentralLogger(PSK)
        _feed_logger(logger, trace)
        assert (s2.node_id in logger.records) is delivered
        assert not logger.rejected


def test_logger_feed_parses_only_frames_outside_the_common_tcp_layout(monkeypatch):
    parsed = []

    def counted(data):
        parsed.append(data)
        return packet.parse_frame(data)

    monkeypatch.setattr("eids.bench.parse_frame", counted)
    topology = sim.Topology.default()
    cloud, plc, s2 = (topology.device(name) for name in ("Cloud", "PLC", "S2"))
    poll = frames.tcp_frame(cloud.mac, plc.mac, cloud.ip, plc.ip, 49161, 502, 0x18,
                            frames.modbus_read_request(7, 11), seq=1001, ack=2001)
    assert _udp_payload(poll) is None
    assert parsed == []

    datagram = _wire(s2.node_id, 1_000)
    assert len(datagram) == 48
    status = frames.udp_frame(s2.mac, frames.BROADCAST_MAC, s2.ip, frames.BROADCAST_IP,
                              47808, 47808, datagram)
    assert _udp_payload(status) == datagram

    # IHL 6: one word of IPv4 options, outside the layout header_signature reads
    ip = bytearray(status[14:34])
    ip[0] = 0x46
    ip[2:4] = struct.pack(">H", len(status) - 14 + 4)
    optioned = status[:14] + bytes(ip) + b"\x01\x01\x01\x00" + status[34:]
    assert packet.header_signature(optioned) is None
    parsed.clear()
    assert _udp_payload(optioned) == datagram
    assert parsed == [optioned]


def _view_from_scratch(logger):
    """render_status as a sort and format of every record."""
    return "".join("ID: %d is %s Intrusion: %s\n" % ((r.node_id,) + _view(r))
                   for r in sorted(logger.records.values(), key=lambda r: r.node_id))


def test_step_views_equal_a_from_scratch_render_over_500_nodes():
    """500 nodes, first seen in random order, announce every 10 s for
    60 s; a tenth fall silent past the timeout and come back, each
    datagram flips its node's intrusion bit with probability 0.1, and all
    go down at the end. Every view a step returns, and the view at every
    50th step and at the end, equal a sort and format of the records."""
    rng = random.Random(47)
    logger = CentralLogger(PSK)
    intrusion = {}
    arrivals = []
    for node_id in rng.sample(range(1, 0x10000), 500):
        intrusion[node_id] = False
        silent = (15 * S, 15 * S + rng.randrange(21 * S, 40 * S)) if rng.random() < 0.1 else None
        at_us = rng.randrange(0, 10 * S)
        while at_us < 60 * S:
            if silent is None or not silent[0] <= at_us < silent[1]:
                arrivals.append((at_us, node_id))
            at_us += 10 * S + rng.randrange(-200_000, 200_001)
    arrivals.sort()
    counts = {"up": 0, "down": 0, "flip": 0}
    for step, (at_us, node_id) in enumerate(arrivals + [(90 * S, None)]):
        data = None
        if node_id is not None:
            if rng.random() < 0.1:
                intrusion[node_id] = not intrusion[node_id]
                counts["flip"] += 1
            data = _wire(node_id, at_us // 1000 + 1, intrusion=intrusion[node_id])
        transitions, view = logger.step(data, at_us)
        for _at_us, _node_id, state in transitions:
            counts[state] += 1
        if view is not None:
            assert view == _view_from_scratch(logger)
        if step % 50 == 0 or node_id is None:
            assert logger.render_status() == _view_from_scratch(logger)
    assert view == "".join("ID: %d is down Intrusion: ???\n" % n for n in sorted(intrusion))
    assert not logger.rejected
    assert counts["up"] > 500 and counts["down"] > 500 and counts["flip"] > 200


class _SweepLog(CentralLogger):
    """A logger that records the time of every sweep."""

    def __init__(self, *args):
        super().__init__(*args)
        self.sweeps = []

    def sweep(self, now_us):
        self.sweeps.append(now_us)
        return super().sweep(now_us)


def test_step_logs_down_then_up_for_a_datagram_after_its_deadline_grid_time():
    logger = CentralLogger(PSK)
    assert logger.step(_wire(1, 1_000), 0) == ([(0, 1, "up")], "ID: 1 is up Intrusion: no\n")
    # node 1's deadline, 20 s, is due in the step of its late datagram
    transitions, view = logger.step(_wire(1, 21_000), 20 * S + 500_000)
    assert transitions == [(20 * S, 1, "down"), (20 * S + 500_000, 1, "up")]
    assert view is None  # down and back up: no line of the view changed


def test_step_after_a_stall_stamps_each_down_at_its_deadline():
    logger = _SweepLog(PSK, 4 * S)
    # first seen in the order 1, 2, 3; node 1 speaks again last
    for node_id, at_us in [(1, 300_000), (2, 1 * S), (3, 1 * S), (1, 2 * S + 500_000)]:
        logger.step(_wire(node_id, at_us // 1000 + 1), at_us)
    # node 1's first deadline, 4.3 s, is the bound until a sweep: the one at
    # 4.3 s finds node 1 refreshed, and none before it runs
    assert logger.step(None, 4_299_999) == ([], None)
    assert logger.step(None, 4_300_000) == ([], None)
    assert logger.sweeps == [4_300_000]
    transitions, view = logger.step(None, 12 * S)

    # one sweep after the stall; each down at its datagram's time plus the
    # timeout, in time order, the tie in first-seen order
    assert logger.sweeps == [4_300_000, 12 * S]
    assert transitions == [(5 * S, 2, "down"), (5 * S, 3, "down"), (6_500_000, 1, "down")]
    assert view == "".join("ID: %d is down Intrusion: ???\n" % n for n in (1, 2, 3))


def test_a_flood_of_rejected_datagrams_scans_no_record_until_a_down_is_due():
    """10,000 rejected datagrams, and a status every 0.19 s from ten
    nodes in turn, go through step inside one timeout: no step sweeps,
    until the earliest deadline of the nodes up is due."""
    logger = _SweepLog(PSK, 20 * S)
    hostile = [b"junk", encode(StatusMessage(1, 1_000, False, True, 0), b"not-the-psk")]
    for k in range(10_000):
        at_us = 1_000 + k * 1_900  # up to 19 s
        if k % 100 == 0:
            logger.step(_wire(k // 100 % 10 + 1, at_us // 1000 + 1), at_us)
        logger.step(hostile[k % 2], at_us + 1)
    assert logger.rejected == {"BadLength": 5_000, "BadHmac": 5_000}
    assert len(logger.records) == 10
    assert logger.sweeps == []
    # the bound is node 1's first deadline, 20.001 s; the sweep there finds
    # every node refreshed since
    assert logger.step(None, 20 * S)[0] == []
    assert logger.step(None, 20 * S + 1_000)[0] == []
    assert logger.sweeps == [20 * S + 1_000]


@pytest.mark.parametrize("step_s", [-3600, 3600])
def test_step_liveness_ignores_a_wall_clock_step(step_s):
    """Two loggers see the same arrivals; one's wall clock steps an hour
    after node 7's last datagram. Node 8 announces on the stepped clock.
    Both log the same transitions at the same times."""
    epoch_ms = 1_700_000_000_000

    def run(wall_step_ms):
        logger = CentralLogger(PSK, timeout_us=2 * S)
        log = []
        for k in range(60):  # 6 s of steps, 100 ms apart
            now_us = k * 100_000
            wall_ms = epoch_ms + now_us // 1000 + (wall_step_ms if k > 10 else 0)
            data = None
            if k in (5, 10):
                data = _wire(7, epoch_ms + now_us // 1000)
            elif k == 20:
                data = _wire(8, wall_ms)
            log += logger.step(data, now_us, wall_ms)[0]
        assert not logger.rejected
        return log

    log = run(step_s * 1000)
    assert log == run(0)
    assert log == [(500_000, 7, "up"), (2 * S, 8, "up"), (3 * S, 7, "down"), (4 * S, 8, "down")]


def test_a_step_with_nothing_due_renders_nothing():
    renders = []

    class CountingLogger(CentralLogger):
        def render_status(self):
            renders.append(1)
            return super().render_status()

    logger = CountingLogger(PSK)
    assert logger.step(_wire(1, 1_000), 0)[1] == "ID: 1 is up Intrusion: no\n"
    assert logger.step(_wire(2, 1_000, intrusion=True), 200_000)[1] is not None
    renders.clear()
    # nothing due, a datagram that changes no line, a rejected one, nothing
    # at all, and a sweep at node 1's first deadline that takes no node down
    for data, now_us in [(None, 500_000), (None, 1 * S), (_wire(1, 2_000), 1_200_000),
                         (b"junk", 1_300_000), (None, 1_900_000), (None, 20 * S)]:
        assert logger.step(data, now_us) == ([], None)
    assert renders == []
