"""Engine orchestration: modes, verdicts, events, model persistence."""

import pytest

from eids import frames, sim
from eids.engine import (
    BadModelVersion,
    Cause,
    Engine,
    EngineConfig,
    MalformedModelLine,
    Verdict,
    format_event,
    replay,
)
from eids.flows import FlowKey, FlowKind, Mode
from eids.packet import ArpOp, Direction

LOCAL = "192.168.1.101"
LOCAL_MAC = "02:00:ac:10:01:65"
PLC = "192.168.1.50"
PLC_MAC = "02:00:ac:10:01:32"

MS = 1000
S = 1_000_000


def _poll_frame(k):
    return frames.tcp_frame(
        PLC_MAC, LOCAL_MAC, PLC, LOCAL, 49152, 502, 0x18,
        frames.modbus_read_request(k, 1),
    )


def _config(**kw):
    defaults = dict(local_ip=LOCAL, node_id=1, learning_duration_us=10 * S)
    defaults.update(kw)
    return EngineConfig(**defaults)


def _learned_engine(**kw):
    """Engine trained on an ARP binding plus 100 polls at 100 ms."""
    engine = Engine(_config(**kw))
    engine.tick(0)
    arp = frames.arp_frame(ArpOp.REQUEST, PLC_MAC, PLC, frames.ZERO_MAC, LOCAL)
    engine.ingest(Direction.RX, arp, 50)
    for k in range(100):
        at = (k + 1) * 100 * MS
        verdict, events = engine.ingest(Direction.RX, _poll_frame(k), at)
        assert verdict is Verdict.PASS and events == []
    engine.tick(10_100 * MS)
    assert engine.mode is Mode.ACTIVE
    return engine


def test_learning_mode_passes_everything():
    engine = Engine(_config())
    engine.tick(0)
    inputs = [
        _poll_frame(0),
        b"\x00" * 9,  # unparseable
        frames.arp_frame(ArpOp.REPLY, "02:00:00:00:00:01", PLC,
                         frames.BROADCAST_MAC, PLC),  # would conflict when active
    ]
    for data in inputs:
        verdict, events = engine.ingest(Direction.RX, data, 1000)
        assert verdict is Verdict.PASS
        assert events == []


def test_transition_happens_on_tick():
    engine = Engine(_config())
    engine.tick(0)
    engine.ingest(Direction.RX, _poll_frame(0), 100)
    assert engine.mode is Mode.LEARNING
    assert engine.tick(10 * S) == []
    assert engine.mode is Mode.ACTIVE


def test_benign_continuation_stays_quiet():
    engine = _learned_engine()
    for k in range(100, 150):
        verdict, events = engine.ingest(Direction.RX, _poll_frame(k), (k + 1) * 100 * MS)
        assert verdict is Verdict.PASS
        assert events == []


def test_flood_is_too_fast_and_alerts():
    engine = _learned_engine()
    events = []
    start = 101 * 100 * MS
    for k in range(10):
        verdict, raised = engine.ingest(Direction.RX, _poll_frame(200 + k), start + k * MS)
        assert verdict is (Verdict.ALERT if raised else Verdict.PASS)
        events.extend(raised)
    assert any(e.cause is Cause.TOO_FAST for e in events)


def test_unknown_host_write_alerts_as_new_flow():
    engine = _learned_engine()
    attack = frames.tcp_frame(
        "02:00:ac:10:01:c8", LOCAL_MAC, "192.168.1.200", LOCAL, 51000, 502, 0x02
    )
    verdict, events = engine.ingest(Direction.RX, attack, 11 * S)
    assert verdict is Verdict.ALERT
    assert [e.cause for e in events] == [Cause.NEW_FLOW]


def test_unparseable_frame_alerts_when_active():
    engine = _learned_engine()
    verdict, events = engine.ingest(Direction.RX, b"\xff" * 10, 11 * S)
    assert verdict is Verdict.ALERT
    assert events[0].cause is Cause.NEW_FLOW
    assert events[0].detail.startswith("unparseable")
    assert events[0].flow is None


def test_unparseable_frame_of_unknown_direction_alerts():
    engine = _learned_engine()
    verdict, events = engine.ingest(None, b"\xff" * 10, 11 * S)
    assert verdict is Verdict.ALERT
    assert [(e.cause, e.flow) for e in events] == [(Cause.NEW_FLOW, None)]


_ICMP = frames._ipv4_header(LOCAL, PLC, 1, 8) + b"\x08" + b"\x00" * 7


@pytest.mark.parametrize("frame, direction, key", [
    # an ARP request the node sends keys on the MAC it asks
    (frames.arp_frame(ArpOp.REQUEST, LOCAL_MAC, LOCAL, PLC_MAC, PLC), Direction.TX,
     FlowKey(FlowKind.ARP, peer=PLC_MAC)),
    (frames.tcp_frame(LOCAL_MAC, PLC_MAC, LOCAL, PLC, 502, 49152, 0x18), Direction.TX,
     FlowKey(FlowKind.TCP, peer=PLC, local_ip=LOCAL, service_port=502)),
    # IPv4 without a decoded L4 header keys on the destination MAC
    (frames.ethernet(PLC_MAC, LOCAL_MAC, 0x0800, _ICMP), Direction.TX,
     FlowKey(FlowKind.OTHER, peer=PLC_MAC)),
    (frames.arp_frame(ArpOp.REQUEST, PLC_MAC, PLC, LOCAL_MAC, LOCAL), Direction.RX,
     FlowKey(FlowKind.ARP, peer=PLC_MAC)),
], ids=["sent-arp-request", "sent-tcp", "sent-ipv4-without-l4", "received-arp-request"])
def test_unknown_direction_is_inferred_from_addressing(frame, direction, key):
    def learned_flows(direction):
        engine = Engine(_config())
        engine.ingest(direction, frame, 0)
        return engine.table.flows

    assert learned_flows(None) == learned_flows(direction) == {key}


@pytest.mark.parametrize("scenario, same_flows", [
    (sim.AttackScenario(sim.ScenarioKind.ACTIVE_SNIFF, start_us=90 * S), True),
    (sim.AttackScenario(sim.ScenarioKind.INJECT, start_us=90 * S, target="S1"), True),
    (sim.AttackScenario(sim.ScenarioKind.DOS_FLOOD, start_us=90 * S, target="S1"), True),
    (sim.AttackScenario(sim.ScenarioKind.CAPTURE_NODE, start_us=90 * S, target="S2",
                        peer="S1"), True),
    # forged ARP replies that name S1 as sender read as sent in a capture,
    # so their flow is keyed on the broadcast target, not the attacker
    (sim.AttackScenario(sim.ScenarioKind.ACTIVE_SNIFF, start_us=90 * S, target="S1"),
     False),
], ids=["arp-poison-plc", "inject", "flood", "capture-node", "arp-poison-s1"])
def test_capture_direction_matches_simulator_direction(scenario, same_flows):
    trace = sim.run(duration_us=120 * S, seed=0, scenarios=[scenario])

    def events(keep_direction):
        engine = Engine(_config(learning_duration_us=60 * S))
        frames_in = trace.frames_for("S1")
        if not keep_direction:
            frames_in = ((at, None, data) for at, _direction, data in frames_in)
        return list(replay(engine, frames_in))

    from_sim, from_capture = events(True), events(False)
    assert from_sim
    if same_flows:
        assert from_capture == from_sim
    else:
        assert [(e.at_us, e.cause) for e in from_capture] == [
            (e.at_us, e.cause) for e in from_sim
        ]
        renamed = {
            (sim_event.flow.render(), capture_event.flow.render())
            for sim_event, capture_event in zip(from_sim, from_capture)
            if sim_event.flow != capture_event.flow
        }
        assert renamed == {("arp/" + scenario.attacker_mac, "arp/ff:ff:ff:ff:ff:ff")}


def test_host_silent_fires_once_and_rearms():
    engine = _learned_engine()
    last = 101 * 100 * MS  # keep the flow alive a moment into active mode
    engine.ingest(Direction.RX, _poll_frame(101), last)
    # bound: learned max 100ms * 1.3 = 130ms
    assert engine.tick(last + 100 * MS) == []
    events = engine.tick(last + 200 * MS)
    assert [e.cause for e in events] == [Cause.HOST_SILENT]
    assert engine.tick(last + 300 * MS) == []  # no state change, no repeat
    assert engine.tick(last + 400 * MS) == []
    # traffic returns, then stops again: a fresh episode is reported
    engine.ingest(Direction.RX, _poll_frame(102), last + 450 * MS)
    assert engine.tick(last + 500 * MS) == []
    events = engine.tick(last + 700 * MS)
    assert [e.cause for e in events] == [Cause.HOST_SILENT]


def test_host_silent_fires_at_first_tick_past_upper_band():
    # learned gaps of 250 s and 300 s at delta 0.1: the upper band is 330 s
    engine = Engine(_config(learning_duration_us=600 * S, delta=0.1))
    engine.tick(0)
    for at in (0, 250 * S, 550 * S):
        engine.ingest(Direction.RX, _poll_frame(0), at)
    engine.tick(600 * S)
    baseline = engine.states[FlowKey(FlowKind.TCP, PLC, LOCAL, 502)]
    assert baseline.high_us == 330 * S
    assert engine.tick(550 * S + 330 * S - 1) == []
    events = engine.tick(550 * S + 330 * S)
    assert [(e.cause, e.detail) for e in events] == [
        (Cause.HOST_SILENT, "silent since %dus" % (550 * S))
    ]


def test_imported_flow_never_seen_is_silent_one_band_after_first_tick():
    key = FlowKey(FlowKind.TCP, PLC, LOCAL, 502)
    engine = Engine(_config())
    engine.import_model(
        b"EIDS-MODEL 1\nFLOW\tTcp\t%s\t%s\t502\n"
        b"TIMING\tTcp\t%s\t%s\t502\t100000\t100000\t100000\t50\t300\n"
        % ((PLC.encode(), LOCAL.encode()) * 2)
    )
    assert engine.states[key].high_us == 130 * MS
    first = 7 * S
    assert engine.tick(first) == []  # silence is measured from here
    assert engine.tick(first + 130 * MS - 1) == []
    events = engine.tick(first + 130 * MS)
    assert [(e.cause, e.flow, e.detail) for e in events] == [
        (Cause.HOST_SILENT, key, "silent since %dus" % first)
    ]


def test_syn_fin_rst_excluded_from_sampling():
    engine = Engine(_config())
    engine.tick(0)
    syn = frames.tcp_frame(PLC_MAC, LOCAL_MAC, PLC, LOCAL, 49152, 502, 0x02)
    engine.ingest(Direction.RX, syn, 10)
    engine.ingest(Direction.RX, _poll_frame(0), 100 * MS)
    for k in range(1, 60):
        engine.ingest(Direction.RX, _poll_frame(k), (k + 1) * 100 * MS)
    engine.tick(10_100 * MS)
    key = next(iter(engine.states))
    baseline = engine.states[key]
    # the SYN-to-data gap never became a sample; all gaps are ~100 ms
    assert baseline.learned_min_us >= 99 * MS


def test_event_log_line_format():
    engine = _learned_engine()
    _, events = engine.ingest(Direction.RX, b"\x00" * 7, 11 * S)
    line = format_event(events[0], node_id=1)
    stamp, node, cause, flow, detail = line.split("\t")
    assert stamp == "1970-01-01T00:00:11.000000Z"
    assert node == "1"
    assert cause == "NewFlow"
    assert flow == "-"


def test_model_round_trip_and_replay():
    engine = _learned_engine()
    model = engine.export_model()
    assert model.splitlines()[0] == b"EIDS-MODEL 1"

    clone = Engine(_config())
    clone.import_model(model)
    assert clone.mode is Mode.ACTIVE
    assert clone.export_model() == model
    assert clone.table.flows == engine.table.flows

    # benign continuation judged by the imported engine stays quiet
    for k in range(100, 120):
        verdict, events = clone.ingest(Direction.RX, _poll_frame(k), (k + 1) * 100 * MS)
        assert verdict is Verdict.PASS and events == []


def test_model_version_and_malformed_lines():
    engine = Engine(_config())
    with pytest.raises(BadModelVersion):
        engine.import_model(b"EIDS-MODEL 2\n")
    with pytest.raises(BadModelVersion):
        engine.import_model(b"")
    with pytest.raises(MalformedModelLine):
        engine.import_model(b"EIDS-MODEL 1\nFLOW\tTcp\tonly-three\n")
    with pytest.raises(MalformedModelLine):
        engine.import_model(b"EIDS-MODEL 1\nNOISE\tx\n")
    with pytest.raises(MalformedModelLine):
        engine.import_model(b"EIDS-MODEL 1\nTIMING\tTcp\ta\tb\tnot-an-int\tc\td\te\tf\tg\n")


def test_import_refused_after_traffic():
    engine = _learned_engine()
    with pytest.raises(RuntimeError):
        engine.import_model(b"EIDS-MODEL 1\n")


def test_determinism_of_event_streams():
    def one_run():
        engine = _learned_engine()
        events = []
        start = 101 * 100 * MS
        for k in range(20):
            _, evs = engine.ingest(Direction.RX, _poll_frame(300 + k), start + k * MS)
            events.extend(evs)
        events.extend(engine.tick(start + 5 * S))
        return [format_event(e, 1) for e in events]

    assert one_run() == one_run()


def test_replay_helper_ticks_and_ingests():
    frames_in = [(k * 100 * MS, Direction.RX, _poll_frame(k)) for k in range(120)]
    engine = Engine(_config())
    events = list(replay(engine, frames_in))
    assert engine.mode is Mode.ACTIVE
    assert events == []
