"""Central logger: record updates, contamination timeout, rendering."""

import struct

from eids import frames, sim
from eids.announce import StatusMessage, encode
from eids.bench import _feed_logger
from eids.central import CentralLogger, IntrusionView, Liveness

PSK = b"logger-test-psk"
S = 1_000_000


def _wire(node_id, time_ms, intrusion=False):
    return encode(StatusMessage(node_id, time_ms, intrusion, True, 0), PSK)


def test_valid_message_updates_record():
    logger = CentralLogger(PSK)
    record = logger.on_datagram(_wire(2, 1_000), now_us=1 * S)
    assert record is not None
    assert record.liveness is Liveness.UP
    assert record.intrusion_view is IntrusionView.NO

    record = logger.on_datagram(_wire(3, 1_000, intrusion=True), now_us=1 * S)
    assert record.intrusion_view is IntrusionView.YES


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


def test_sweep_timeout_boundaries():
    logger = CentralLogger(PSK)
    logger.on_datagram(_wire(1, 1_000), now_us=0)
    assert logger.sweep(19 * S) == []
    flipped = logger.sweep(20 * S)
    assert [r.node_id for r in flipped] == [1]
    assert logger.records[1].liveness is Liveness.DOWN
    assert logger.records[1].intrusion_view is IntrusionView.UNKNOWN
    assert logger.sweep(21 * S) == []  # already down, no second transition


def test_recovery_after_down():
    logger = CentralLogger(PSK)
    logger.on_datagram(_wire(1, 1_000), now_us=0)
    logger.sweep(25 * S)
    record = logger.on_datagram(_wire(1, 30_000), now_us=30 * S)
    assert record.liveness is Liveness.UP
    assert record.intrusion_view is IntrusionView.NO


def test_ten_second_cadence_never_goes_down():
    logger = CentralLogger(PSK)
    for k in range(30):
        at = k * 10 * S
        logger.on_datagram(_wire(4, at // 1000 + 1), now_us=at)
        assert logger.sweep(at + 9 * S) == []
    assert logger.records[4].liveness is Liveness.UP


def test_per_node_independence():
    logger = CentralLogger(PSK)
    logger.on_datagram(_wire(1, 1_000), now_us=0)
    logger.on_datagram(_wire(2, 1_000), now_us=18 * S)
    flipped = logger.sweep(20 * S)
    assert [r.node_id for r in flipped] == [1]
    assert logger.records[2].liveness is Liveness.UP


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


def test_expected_roster_starts_down():
    logger = CentralLogger(PSK, expected_nodes=[1, 2])
    assert logger.render_status() == (
        "ID: 1 is down Intrusion: ???\n"
        "ID: 2 is down Intrusion: ???\n"
    )


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
        trace = sim.FrameTrace(topology, [sim.TraceFrame(1 * S, "S2", None, data)])
        logger = CentralLogger(PSK)
        _feed_logger(logger, trace)
        assert (s2.node_id in logger.records) is delivered
        assert not logger.rejected
