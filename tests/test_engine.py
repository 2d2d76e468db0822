"""Engine orchestration: modes, verdicts, events, model persistence."""

from datetime import datetime, timedelta, timezone
from math import inf

import pytest

from eids import engine as engine_module
from eids import bench, frames, sim
from eids.engine import (
    BadModelVersion,
    Cause,
    Engine,
    EngineConfig,
    IntrusionEvent,
    MalformedModelLine,
    format_event,
    replay,
)
from eids.flows import FlowKey, FlowKind, Mode
from eids.packet import TCP_ACK, TCP_FIN, TCP_RST, ArpOp, Direction, header_signature

LOCAL = "192.168.1.101"
LOCAL_MAC = "02:00:ac:10:01:65"
PLC = "192.168.1.50"
PLC_MAC = "02:00:ac:10:01:32"
POLL_FLOW = "tcp/%s->%s:502" % (PLC, LOCAL)  # the learned polls' flow, as logged

MS = 1000
S = 1_000_000
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _at_us(*fields):
    """Microseconds since the epoch of a UTC date and time."""
    return (datetime(*fields, tzinfo=timezone.utc) - EPOCH) // timedelta(microseconds=1)


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
        assert verdict is False and events == []
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
        assert verdict is False
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
        assert verdict is False
        assert events == []


def test_flood_is_too_fast_and_alerts():
    engine = _learned_engine()
    verdicts, events = [], []
    start = 101 * 100 * MS
    for k in range(10):
        verdict, raised = engine.ingest(Direction.RX, _poll_frame(200 + k), start + k * MS)
        verdicts.append(verdict)
        events.extend(raised)
    # the first poll is on time; the nine after it are one burst, which
    # only its first frame reports
    assert verdicts == [False] + [True] * 9
    assert [(e.at_us, e.cause) for e in events] == [(start + MS, Cause.TOO_FAST)]


# a FIN/ACK and an RST on the polls' flow, as a client closing and
# resetting its connection sends them
_TEARDOWN = [frames.tcp_frame(PLC_MAC, LOCAL_MAC, PLC, LOCAL, 49152, 502, flags)
             for flags in (TCP_FIN | TCP_ACK, TCP_RST)]


def _signature_table(on, monkeypatch):
    """Leave the engine's signature tables on, or switch them off by
    making every signature None, so every frame is parsed."""
    if not on:
        monkeypatch.setattr("eids.engine.header_signature", lambda data: None)


@pytest.mark.parametrize("table", [True, False], ids=["signature-table", "parse"])
def test_teardown_segments_take_no_learning_sample(monkeypatch, table):
    _signature_table(table, monkeypatch)
    engine = Engine(_config())
    for k in range(100):
        at = (k + 1) * 100 * MS
        engine.ingest(Direction.RX, _poll_frame(k), at)
        for n, segment in enumerate(_TEARDOWN, 1):
            assert engine.ingest(Direction.RX, segment, at + n * MS) == (False, [])
    (baseline,) = engine.states.values()
    # the polls' 99 interarrivals alone, none of 1 ms from a teardown
    assert (baseline.n_l, baseline.learned_min_us, baseline.learned_max_us) == (
        99, 100 * MS, 100 * MS)
    assert all((header_signature(segment) in engine._judged_other) is table
               for segment in _TEARDOWN)


@pytest.mark.parametrize("table", [True, False], ids=["signature-table", "parse"])
def test_teardown_segments_raise_no_too_fast_when_active(monkeypatch, table):
    _signature_table(table, monkeypatch)
    engine = _learned_engine()
    for k in range(100, 150):
        at = (k + 1) * 100 * MS
        assert engine.ingest(Direction.RX, _poll_frame(k), at) == (False, [])
        # 1 and 2 ms after a poll: far below the learned band's low edge
        for n, segment in enumerate(_TEARDOWN, 1):
            assert engine.ingest(Direction.RX, segment, at + n * MS) == (False, [])
    assert not any(engine.counts().values())
    assert all((header_signature(segment) in engine._judged_other) is table
               for segment in _TEARDOWN)


def test_unknown_host_write_alerts_as_new_flow():
    engine = _learned_engine()
    attack = frames.tcp_frame(
        "02:00:ac:10:01:c8", LOCAL_MAC, "192.168.1.200", LOCAL, 51000, 502, 0x02
    )
    verdict, events = engine.ingest(Direction.RX, attack, 11 * S)
    assert verdict is True
    assert [e.cause for e in events] == [Cause.NEW_FLOW]


def test_unparseable_frame_alerts_when_active():
    engine = _learned_engine()
    verdict, events = engine.ingest(Direction.RX, b"\xff" * 10, 11 * S)
    assert verdict is True
    assert events[0].cause is Cause.UNPARSEABLE
    assert events[0].detail == "frame of 10 bytes is below the 14-byte Ethernet header"
    assert events[0].flow is None
    assert engine.counts()[Cause.UNPARSEABLE] == 1


def test_unparseable_frame_of_unknown_direction_alerts():
    engine = _learned_engine()
    verdict, events = engine.ingest(None, b"\xff" * 10, 11 * S)
    assert verdict is True
    assert [(e.cause, e.flow) for e in events] == [(Cause.UNPARSEABLE, None)]


def _icmp(src_ip, dst_ip):
    return frames._ipv4_header(src_ip, dst_ip, 1, 8) + b"\x08" + b"\x00" * 7


ATTACKER_MAC = "02:00:ac:10:01:c8"


@pytest.mark.parametrize("frame, direction, key", [
    # an ARP request the node sends keys on the MAC it asks
    (frames.arp_frame(ArpOp.REQUEST, LOCAL_MAC, LOCAL, PLC_MAC, PLC), Direction.TX,
     FlowKey(FlowKind.ARP, peer=PLC_MAC)),
    (frames.tcp_frame(LOCAL_MAC, PLC_MAC, LOCAL, PLC, 502, 49152, 0x18), Direction.TX,
     FlowKey(FlowKind.TCP, peer=PLC, local_ip=LOCAL, service_port=502)),
    # IPv4 without a decoded L4 header keys on the destination MAC
    (frames.ethernet(PLC_MAC, LOCAL_MAC, 0x0800, _icmp(LOCAL, PLC)), Direction.TX,
     FlowKey(FlowKind.OTHER, peer=PLC_MAC)),
    # and a received one on the source MAC
    (frames.ethernet(LOCAL_MAC, PLC_MAC, 0x0800, _icmp(PLC, LOCAL)), Direction.RX,
     FlowKey(FlowKind.OTHER, peer=PLC_MAC)),
    (frames.arp_frame(ArpOp.REQUEST, PLC_MAC, PLC, LOCAL_MAC, LOCAL), Direction.RX,
     FlowKey(FlowKind.ARP, peer=PLC_MAC)),
    # without an IPv4 or ARP header a sent frame reads as received: own MAC
    (frames.ethernet(PLC_MAC, LOCAL_MAC, 0x86DD, b"\x60" + b"\x00" * 39), Direction.RX,
     FlowKey(FlowKind.OTHER, peer=LOCAL_MAC)),
    # with no MAC learned for the node, a forged local source reads as
    # sent, so the attacker's MAC is not the key
    (frames.ethernet(LOCAL_MAC, ATTACKER_MAC, 0x0800, _icmp(LOCAL, LOCAL)), Direction.TX,
     FlowKey(FlowKind.OTHER, peer=LOCAL_MAC)),
    (frames.udp_frame(PLC_MAC, frames.BROADCAST_MAC, PLC, "192.168.1.255", 47808, 47808,
                      b"x" * 48), Direction.RX,
     FlowKey(FlowKind.UDP, peer=PLC, local_ip="192.168.1.255", service_port=47808)),
], ids=["sent-arp-request", "sent-tcp", "sent-ipv4-without-l4", "received-ipv4-without-l4",
        "received-arp-request", "sent-ipv6", "forged-local-source", "peer-udp-broadcast"])
def test_unknown_direction_is_inferred_from_addressing(frame, direction, key):
    def learned_flows(direction):
        engine = Engine(_config())
        engine.ingest(direction, frame, 0)
        return engine.table.flows

    assert learned_flows(None) == learned_flows(direction) == {key}


@pytest.mark.parametrize("scenario", [
    sim.AttackScenario(sim.ScenarioKind.ACTIVE_SNIFF, start_us=90 * S),
    sim.AttackScenario(sim.ScenarioKind.INJECT, start_us=90 * S, target="S1"),
    sim.AttackScenario(sim.ScenarioKind.DOS_FLOOD, start_us=90 * S, target="S1"),
    sim.AttackScenario(sim.ScenarioKind.CAPTURE_NODE, start_us=90 * S, target="S2",
                       peer="S1"),
    # forged ARP replies that name S1 as sender come from another MAC than
    # the one learned for S1, so a capture keys them on the attacker too
    sim.AttackScenario(sim.ScenarioKind.ACTIVE_SNIFF, start_us=90 * S, target="S1"),
], ids=["arp-poison-plc", "inject", "flood", "capture-node", "arp-poison-s1"])
def test_capture_direction_matches_simulator_direction(scenario):
    trace = sim.run(duration_us=120 * S, seed=0, scenarios=[scenario])

    def events(keep_direction):
        engine = Engine(_config(learning_duration_us=60 * S))
        frames_in = trace.frames_for("S1")
        if not keep_direction:
            frames_in = ((at, None, data) for at, _direction, data in frames_in)
        return list(replay(engine, frames_in))

    from_sim = events(True)
    assert from_sim
    assert events(False) == from_sim


@pytest.mark.parametrize("times_ms, samples_ms", [
    ((100, 200, 400, 300, 500), (100, 200, 100)),
    ((100, 200, 200, 300), (100, 100)),
], ids=["reordered-pair", "tie"])
def test_learning_takes_no_sample_from_a_frame_not_after_the_last(times_ms, samples_ms):
    engine = Engine(_config())
    for k, at_ms in enumerate(times_ms):
        engine.ingest(Direction.RX, _poll_frame(k), at_ms * MS)
    (baseline,) = engine.states.values()
    assert (baseline.n_l, baseline.learned_min_us, baseline.learned_max_us, baseline._sum_us) == (
        len(samples_ms), min(samples_ms) * MS, max(samples_ms) * MS, sum(samples_ms) * MS)


def _polls(count):
    """count polls 100 ms apart from 100 ms, as replay input."""
    return [((k + 1) * 100 * MS, Direction.RX, _poll_frame(k)) for k in range(count)]


def test_a_record_out_of_order_in_active_mode_moves_no_flow_time_back():
    frames_in = _polls(199)
    frames_in[150], frames_in[151] = frames_in[151], frames_in[150]
    events = list(replay(Engine(_config()), frames_in))
    # silent at its deadline, 15 s + 130 ms; the earlier record is one 1 us
    # interarrival, which ends the TooSlow burst the later one opened; the
    # next poll is on time
    assert [format_event(e, 1) for e in events] == [
        "1970-01-01T00:00:15.130000Z\t1\tHostSilent\t%s\tsilent since %dus"
        % (POLL_FLOW, 15 * S),
        "1970-01-01T00:00:15.200000Z\t1\tTooSlow\t%s\tdt=200000us outside "
        "(70000us, 130000us)" % POLL_FLOW,
        "1970-01-01T00:00:15.100000Z\t1\tTooSlow\t%s\tburst ended: frames=1 "
        "last=15200000us" % POLL_FLOW,
        "1970-01-01T00:00:15.100000Z\t1\tTooFast\t%s\tdt=1us outside (70000us, 130000us)"
        % POLL_FLOW,
        "1970-01-01T00:00:15.300000Z\t1\tTooFast\t%s\tburst ended: frames=1 "
        "last=15100000us" % POLL_FLOW,
    ]


def test_a_stale_learning_record_does_not_date_the_flow_silent():
    frames_in = _polls(120)
    frames_in.insert(100, frames_in[49])  # the 5.0 s record again, after 10.0 s
    assert list(replay(Engine(_config()), frames_in)) == []


def test_learning_tick_drops_flows_without_a_learned_interval():
    engine = Engine(_config())
    engine.tick(0)
    once = frames.udp_frame(PLC_MAC, LOCAL_MAC, PLC, LOCAL, 40000, 161, b"x")
    engine.ingest(Direction.RX, once, 50)
    for k in range(100):
        engine.ingest(Direction.RX, _poll_frame(k), (k + 1) * 100 * MS)
    assert len(engine.states) == 2
    engine.tick(10 * S)
    assert list(engine.states) == [FlowKey(FlowKind.TCP, PLC, LOCAL, 502)]
    # the flow stays admitted; only its timing is not judged
    assert FlowKey(FlowKind.UDP, PLC, LOCAL, 161) in engine.table.flows


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


def _drifting_engine():
    """Engine on an imported model whose min/max band (35-260 ms) is wider
    than its mean band (70-130 ms), so in-band polls can drift the mean."""
    engine = Engine(_config())
    engine.import_model(
        b"EIDS-MODEL 1\nFLOW\tTcp\t%s\t%s\t502\n"
        b"TIMING\tTcp\t%s\t%s\t502\t100000\t50000\t200000\t50\t300\n"
        % ((PLC.encode(), LOCAL.encode()) * 2)
    )
    return engine


def _ingest_all(engine, timed_frames):
    return [e for at, frame in timed_frames for e in engine.ingest(Direction.RX, frame, at)[1]]


# per case, named after its cause: what a fresh engine raises, and its line
_EVENT_LINES = {
    "UNPARSEABLE": (
        lambda: _learned_engine().ingest(Direction.RX, b"\x00" * 7, 11 * S)[1],
        "1970-01-01T00:00:11.000000Z\t1\tUnparseable\t-\t"
        "frame of 7 bytes is below the 14-byte Ethernet header"),
    "NEW_FLOW": (
        lambda: _learned_engine().ingest(Direction.RX, frames.tcp_frame(
            ATTACKER_MAC, LOCAL_MAC, "192.168.1.200", LOCAL, 51000, 502, 0x02), 11 * S)[1],
        "1970-01-01T00:00:11.000000Z\t1\tNewFlow\ttcp/192.168.1.200->%s:502\tnew-flow"
        % LOCAL),
    "BINDING_CONFLICT": (
        lambda: _learned_engine().ingest(Direction.RX, frames.arp_frame(
            ArpOp.REPLY, ATTACKER_MAC, PLC, LOCAL_MAC, LOCAL), 12 * S + 5)[1],
        "1970-01-01T00:00:12.000005Z\t1\tBindingConflict\tarp/%s\tbinding-conflict"
        % ATTACKER_MAC),
    "L2L3_MISMATCH": (
        lambda: _learned_engine().ingest(Direction.RX, frames.tcp_frame(
            ATTACKER_MAC, LOCAL_MAC, PLC, LOCAL, 49152, 502, 0x18), 10_150 * MS)[1],
        "1970-01-01T00:00:10.150000Z\t1\tL2L3Mismatch\t%s\tl2l3-mismatch" % POLL_FLOW),
    "TOO_FAST": (
        lambda: _ingest_all(_learned_engine(), [(10_100 * MS, _poll_frame(100)),
                                                (10_101 * MS, _poll_frame(101))]),
        "1970-01-01T00:00:10.101000Z\t1\tTooFast\t%s\tdt=1000us outside "
        "(70000us, 130000us)" % POLL_FLOW),
    "TOO_SLOW": (
        lambda: _learned_engine().ingest(Direction.RX, _poll_frame(100), 10_150 * MS)[1],
        "1970-01-01T00:00:10.150000Z\t1\tTooSlow\t%s\tdt=150000us outside "
        "(70000us, 130000us)" % POLL_FLOW),
    "MEAN_DRIFT": (
        lambda: _ingest_all(_drifting_engine(), [(S + k * 150 * MS, _poll_frame(k))
                                                 for k in range(17)]),
        # 15 clean 150 ms interarrivals moved the mean from 100 ms first
        "1970-01-01T00:00:03.400000Z\t1\tMeanDrift\t%s\tdt=150000us, window sum "
        "2400000us outside (1151930us, 2139300us)" % POLL_FLOW),
    "HOST_SILENT": (
        lambda: _learned_engine().tick(10_130 * MS),
        "1970-01-01T00:00:10.130000Z\t1\tHostSilent\t%s\tsilent since %dus"
        % (POLL_FLOW, 10 * S)),
}


@pytest.mark.parametrize("drive, line", _EVENT_LINES.values(), ids=_EVENT_LINES)
def test_event_log_line_format(drive, line):
    assert [format_event(event, node_id=1) for event in drive()] == [line]


def test_event_log_line_cases_cover_every_cause():
    assert {case.partition("-")[0] for case in _EVENT_LINES} == set(Cause.__members__)


@pytest.mark.parametrize("at_us", [
    0,
    999_999,
    1_000_000,
    _at_us(2024, 2, 29, 23, 59, 59, 999_999),
    _at_us(2038, 1, 19, 3, 14, 8),
    (2**32 - 1) * S + 999_999,  # the latest time a pcap record holds
])
def test_event_stamp_matches_the_datetime_formula(at_us):
    event = IntrusionEvent(at_us, Cause.TOO_FAST, FlowKey(FlowKind.TCP, PLC, LOCAL, 502), "d")
    stamp = (EPOCH + timedelta(microseconds=at_us)).strftime("%Y-%m-%dT%H:%M:%S.%f") + "Z"
    assert format_event(event, 7) == "%s\t7\tTooFast\ttcp/%s->%s:502\td" % (stamp, PLC, LOCAL)


def test_event_text_caches_stay_at_their_bound():
    for k in range(10_000):
        key = FlowKey(FlowKind.ARP, "02:00:00:00:%02x:%02x" % divmod(k, 256))
        line = format_event(IntrusionEvent(k * S + 5, Cause.HOST_SILENT, key, ""), 1)
    assert line == "1970-01-01T02:46:39.000005Z\t1\tHostSilent\tarp/02:00:00:00:27:0f\t"
    for cache in (engine_module._stamp_second, engine_module._render_flow):
        info = cache.cache_info()
        assert info.currsize == info.maxsize < 10_000


def test_intrusion_events_are_immutable_hashable_values():
    key = FlowKey(FlowKind.TCP, PLC, LOCAL, 502)
    event = IntrusionEvent(5, Cause.TOO_FAST, key, "dt=1us")
    with pytest.raises(AttributeError):
        event.at_us = 6
    twin = IntrusionEvent(5, Cause.TOO_FAST, FlowKey(FlowKind.TCP, PLC, LOCAL, 502), "dt=1us")
    slower = IntrusionEvent(5, Cause.TOO_SLOW, key, "dt=1us")
    assert {event, twin, slower} == {event, slower}
    assert len({event, twin, slower, IntrusionEvent(5, Cause.NEW_FLOW, None)}) == 3

    engine = _learned_engine()
    flood = [engine.ingest(Direction.RX, _poll_frame(k), 10_200 * MS + k)[1] for k in range(4)]
    raised = [e for events in flood for e in events]
    # TooSlow opens, then ends as TooFast opens; the last two frames raise nothing
    assert [e.cause for e in raised] == [Cause.TOO_SLOW, Cause.TOO_SLOW, Cause.TOO_FAST]
    assert len(set(raised)) == 3 and raised[1] in set(raised)


def test_model_of_every_flow_kind_re_exports_byte_identically():
    engine = Engine(_config())
    engine.tick(0)
    learned = [
        frames.arp_frame(ArpOp.REQUEST, PLC_MAC, PLC, frames.ZERO_MAC, LOCAL),
        frames.udp_frame(PLC_MAC, frames.BROADCAST_MAC, PLC, "255.255.255.255",
                         47808, 47808, b"x" * 48),
        frames.ethernet(LOCAL_MAC, PLC_MAC, 0x86DD, b"\x60" + b"\x00" * 39),
    ]
    for k in range(60):
        at = (k + 1) * 100 * MS
        engine.ingest(Direction.RX, _poll_frame(k), at)
        engine.ingest(Direction.RX, learned[k % 3], at + 7 * MS + k)
    engine.tick(10_100 * MS)
    model = engine.export_model()
    lines = [line.split(b"\t") for line in model.splitlines()[1:]]
    assert {f[1] for f in lines if f[0] == b"FLOW"} == {b"Tcp", b"Udp", b"Arp", b"OtherEth"}
    assert {f[1] for f in lines if f[0] == b"TIMING"} == {b"Tcp", b"Udp", b"Arp", b"OtherEth"}

    clone = Engine(_config())
    clone.import_model(model)
    again = clone.export_model()
    assert again == model
    third = Engine(_config())
    third.import_model(again)
    assert third.export_model() == model


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
        assert verdict is False and events == []


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


def test_model_import_names_an_overflowing_line():
    line = "TIMING\tTcp\t%s\t%s\t502\t100000\t100000\t100000\t50\t%s" % (
        PLC, LOCAL, "9" * 400)  # a tolerance too large for a float
    model = "EIDS-MODEL 1\nFLOW\tTcp\t%s\t%s\t502\n%s\n" % (PLC, LOCAL, line)
    with pytest.raises(MalformedModelLine) as info:
        Engine(_config()).import_model(model.encode())
    assert str(info.value) == line


@pytest.mark.parametrize("values", [
    "100000\t100000\t100000\t1\t300",
    "100000\t0\t100000\t50\t300",
    "100000\t200000\t10\t50\t300",
    "0\t100000\t100000\t50\t300",
    "100000\t100000\t100000\t50\t-500",
    "100000\t100000\t100000\t50\t2001",
    "99999\t100000\t100000\t50\t300",
    "100001\t100000\t100000\t50\t300",
    "+100000\t100000\t100000\t50\t300",
    "0100000\t100000\t100000\t50\t300",
    "100_000\t100000\t100000\t50\t300",
    " 100000\t100000\t100000\t50\t300",
    "100000\t100000\t100000\t50\t0300",
    "9007199254740993\t1\t9007199254740993\t2\t300",
], ids=["one-sample", "min-zero", "min-above-max", "mean-zero", "negative-delta",
        "delta-above-2000", "mean-below-min", "mean-above-max", "mean-signed",
        "mean-leading-zero", "mean-underscore", "mean-leading-space", "delta-leading-zero",
        "mean-past-float-precision"])
def test_model_import_rejects_timing_values_learn_never_writes(values):
    line = "TIMING\tTcp\t%s\t%s\t502\t%s" % (PLC, LOCAL, values)
    model = "EIDS-MODEL 1\nFLOW\tTcp\t%s\t%s\t502\n%s\n" % (PLC, LOCAL, line)
    with pytest.raises(MalformedModelLine) as info:
        Engine(_config()).import_model(model.encode())
    assert str(info.value) == line


@pytest.mark.parametrize("values", [
    "2\t1\t3\t2\t0", "100000\t100000\t100000\t2\t2000",
], ids=["least", "widest-delta"])
def test_model_import_accepts_timing_values_at_their_bounds(values):
    model = "EIDS-MODEL 1\nFLOW\tTcp\t%s\t%s\t502\nTIMING\tTcp\t%s\t%s\t502\t%s\n" % (
        PLC, LOCAL, PLC, LOCAL, values)
    engine = Engine(_config())
    engine.import_model(model.encode())
    assert engine.export_model() == model.encode()


@pytest.mark.parametrize("line", [
    "FLOW\tTcp\t%s\t%s\t-5" % (PLC, LOCAL),
    "FLOW\tTcp\t%s\t%s\t99999999" % (PLC, LOCAL),
    "FLOW\tTcp\t%s\t%s\t65536" % (PLC, LOCAL),
    "FLOW\tTcp\t%s\t%s\t+502" % (PLC, LOCAL),
    "FLOW\tTcp\tnot-an-ip\t%s\t502" % LOCAL,
    "FLOW\tUdp\t1.2\t%s\t502" % LOCAL,
    "FLOW\tTcp\t%s\t192.168.001.101\t502" % PLC,
    "FLOW\tTcp\t%s\t-\t502" % PLC,
    "FLOW\tArp\t%s\t-\t0" % PLC,
    "FLOW\tArp\t02:00:00:00:00:AA\t-\t0",
    "FLOW\tArp\t02:00:00:00:aa\t-\t0",
    "FLOW\tOtherEth\t02:00:00:00:00:aa\t%s\t0" % LOCAL,
    "FLOW\tOtherEth\t02:00:00:00:00:aa\t-\t502",
    "ARP\tnot-an-ip\tnot-a-mac",
    "ARP\t%s\tnot-a-mac" % PLC,
    "ARP\t%s\t0200000000aa" % PLC,
    "TIMING\tTcp\t%s\t-\t502\t100000\t100000\t100000\t50\t300" % PLC,
    # nor does it write a column more or less, or another tag
    "FLOW\tTcp\t%s\t%s\t502\t100000" % (PLC, LOCAL),
    "ARP\t%s\t%s\t-" % (PLC, PLC_MAC),
    "TIMING\tTcp\t%s\t%s\t502\t100000\t100000\t100000\t50" % (PLC, LOCAL),
    "NOISE\tTcp\t%s\t%s\t502" % (PLC, LOCAL),
    "FLOW",
], ids=["port-negative", "port-huge", "port-65536", "port-signed", "peer-not-ip",
        "peer-short-quad", "local-leading-zero", "tcp-local-dash", "arp-peer-ip",
        "mac-upper-case", "mac-five-octets", "mac-kind-local-ip", "mac-kind-port",
        "binding-not-ip", "binding-not-mac", "binding-mac-no-colons", "timing-local-dash",
        "flow-extra-column", "arp-extra-column", "timing-short-a-column",
        "unknown-tag-with-flow-columns", "tag-alone"])
def test_model_import_reads_addresses_and_ports_only_as_learn_writes_them(line):
    with pytest.raises(MalformedModelLine) as info:
        Engine(_config()).import_model(("EIDS-MODEL 1\n%s\n" % line).encode())
    assert str(info.value) == line


def test_model_import_accepts_the_extreme_ports():
    model = "EIDS-MODEL 1\nFLOW\tTcp\t%s\t%s\t0\nFLOW\tUdp\t%s\t%s\t65535\n" % (
        PLC, LOCAL, PLC, LOCAL)
    engine = Engine(_config())
    engine.import_model(model.encode())
    assert engine.export_model() == model.encode()


def test_model_import_rejects_timing_for_a_flow_it_never_admits():
    with pytest.raises(MalformedModelLine, match="arp/02:00:00:00:00:aa"):
        Engine(_config()).import_model(
            b"EIDS-MODEL 1\nTIMING\tArp\t02:00:00:00:00:aa\t-\t0"
            b"\t100000\t100000\t100000\t50\t1000\n"
        )


def test_model_timing_line_may_precede_its_flow_line():
    engine = Engine(_config())
    engine.import_model(
        b"EIDS-MODEL 1\nTIMING\tArp\t02:00:00:00:00:aa\t-\t0"
        b"\t100000\t100000\t100000\t50\t1000\n"
        b"FLOW\tArp\t02:00:00:00:00:aa\t-\t0\n"
    )
    assert list(engine.states) == [FlowKey(FlowKind.ARP, "02:00:00:00:00:aa")]


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


class _TickCountingEngine(Engine):
    ticks = 0

    def tick(self, now_us):
        self.ticks += 1
        return super().tick(now_us)


def _tick_at_each_deadline(engine, frames_in, tail_us):
    """replay's events by brute force: before each frame, and at the
    tail's end, tick at the earliest deadline, the learning end while
    learning, else the least last arrival plus high edge of the flows not
    silent, recomputed from every flow before every tick, with no bound
    kept between them."""
    events = []

    def tick_to(until_us):
        while engine.started_us is not None:
            if engine.mode is Mode.LEARNING:
                due_us = engine.started_us + engine.config.learning_duration_us
            else:
                due_us = min((b.last_arrival_us + b.high_us for b in engine.states.values()
                              if not b.silent), default=inf)
            if due_us > until_us:
                return
            events.extend(engine.tick(due_us))

    for at_us, direction, data in frames_in:
        tick_to(at_us)
        events.extend(engine.ingest(direction, data, at_us)[1])
    tick_to(frames_in[-1][0] + tail_us)
    return events + engine.close_bursts(frames_in[-1][0] + tail_us)


def _stepped_frames(step_us):
    """20 s of polls every 100 ms, UDP reads every second and ARP requests
    every 2 s, then the same from step_us on, as after a clock step."""
    udp = frames.udp_frame(PLC_MAC, LOCAL_MAC, PLC, LOCAL, 40000, 161, b"x")
    arp = frames.arp_frame(ArpOp.REQUEST, PLC_MAC, PLC, frames.ZERO_MAC, LOCAL)
    part = sorted([(k * 100 * MS + 37, _poll_frame(k)) for k in range(200)]
                  + [(k * S + 500 * MS, udp) for k in range(20)]
                  + [(k * 2 * S + 1_300 * MS, arp) for k in range(10)])
    return [(base + at, Direction.RX, frame) for base in (0, step_us) for at, frame in part]


@pytest.mark.parametrize("learning_s, step_s, tail_s", [
    (15, 10**5, 0),  # learning ends before the step
    (30, 10**4, 0),  # learning ends inside the step
    (15, 10**4, 3600),  # and a tail of an hour past the last frame
    (10**6, 10**4, 10**4),  # no learning end in the input or its tail
])
def test_replay_across_a_clock_step_raises_what_a_tick_at_every_grid_point_does(
    learning_s, step_s, tail_s
):
    """replay, which keeps a bound on the earliest deadline, raises what
    the brute-force reference _tick_at_each_deadline does."""
    frames_in = _stepped_frames(step_s * S)
    reference = _TickCountingEngine(_config(learning_duration_us=learning_s * S))
    expected = _tick_at_each_deadline(reference, frames_in, tail_s * S)
    engine = _TickCountingEngine(_config(learning_duration_us=learning_s * S))
    assert list(replay(engine, frames_in, tail_us=tail_s * S)) == expected
    assert engine.export_model() == reference.export_model()
    if learning_s < 10**6:
        assert {e.cause for e in expected} >= {Cause.HOST_SILENT, Cause.TOO_SLOW}
    # a step or a tail of hours costs no tick but at a deadline
    assert engine.ticks < 1000


def test_an_imported_engine_skips_a_clock_step_as_a_learned_one_does():
    frames_in = _stepped_frames(10**4 * S)
    learned = Engine(_config(learning_duration_us=15 * S))
    list(replay(learned, frames_in[:150]))
    model = learned.export_model()
    reference = _TickCountingEngine(_config())
    reference.import_model(model)
    expected = _tick_at_each_deadline(reference, frames_in, 0)
    engine = _TickCountingEngine(_config())
    engine.import_model(model)
    assert list(replay(engine, frames_in)) == expected
    assert Cause.HOST_SILENT in {e.cause for e in expected}
    assert engine.ticks < 1000


def test_next_action_is_the_learning_end_then_the_first_silence():
    engine = Engine(_config())
    engine.tick(0)
    assert engine.due_us == 10 * S
    for k in range(100):
        engine.ingest(Direction.RX, _poll_frame(k), (k + 1) * 100 * MS)
    engine.tick(10 * S)
    # the last poll came at 10 s; the learned max 100 ms * 1.3 is 130 ms
    assert engine.due_us == 10 * S + 130 * MS
    assert engine.tick(10 * S + 130 * MS - 1) == []
    assert [e.cause for e in engine.tick(10 * S + 130 * MS)] == [Cause.HOST_SILENT]
    # every flow silent: no tick acts before the next frame
    assert engine.due_us == inf
    # a poll on the silent flow re-arms it, and its deadline is the next action
    engine.ingest(Direction.RX, _poll_frame(100), 11 * S)
    assert engine.due_us == 11 * S + 130 * MS


def test_an_imported_engine_is_due_at_the_first_time_it_is_shown():
    learned = Engine(_config())
    list(replay(learned, _polls(101)))
    engine = Engine(_config())
    engine.import_model(learned.export_model())
    assert engine.due_us == inf  # shown no time, it has no deadline
    engine.ingest(Direction.RX, _poll_frame(0), 50 * S)
    assert engine.due_us == 50 * S
    assert engine.tick(50 * S) == []
    assert engine.due_us == 50 * S + 130 * MS


_FIRST_FRAMES = {
    "tcp": _poll_frame(0),
    "arp": frames.arp_frame(ArpOp.REQUEST, PLC_MAC, PLC, frames.ZERO_MAC, LOCAL),
    "unparseable": b"\x00" * 13,
}


@pytest.mark.parametrize("imported", [False, True], ids=["learning", "imported"])
@pytest.mark.parametrize("first", sorted(_FIRST_FRAMES))
def test_the_first_frame_starts_the_engine_whatever_it_holds(first, imported):
    """An engine shown its first time by a frame, not a tick, starts
    there: learning ends a learning duration on, and an imported model's
    flows are due at once, each dated to that time."""
    engine = Engine(_config())
    if imported:
        learned = Engine(_config())
        list(replay(learned, _polls(101)))
        engine.import_model(learned.export_model())
    due_us = 50 * S if imported else 60 * S
    engine.ingest(Direction.RX, _FIRST_FRAMES[first], 50 * S)
    assert (engine.started_us, engine.due_us) == (50 * S, due_us)
    # the imported poll flow, or the flow a parsed learning frame opened
    assert [b.last_arrival_us for b in engine.states.values()] == (
        [] if first == "unparseable" and not imported else [50 * S])
    engine.ingest(Direction.RX, _poll_frame(1), 51 * S)
    assert (engine.started_us, engine.due_us) == (50 * S, due_us)


def _silent_since_us(event):
    """The last arrival a HostSilent event's detail gives."""
    return int(event.detail.removeprefix("silent since ").removesuffix("us"))


@pytest.mark.parametrize("seed", [0, 1])
def test_an_imported_model_raises_what_learning_first_does_on_every_matrix_row(seed):
    """learn -> export_model -> import_model -> replay of the frames from
    the learning end on gives learn-first's events in 8 of the 9 rows.
    In "attacker stops" the attacker's last frame comes just before the
    learning end: learn-first dates its flow's silence from that frame,
    but a model keeps no last arrival, so the imported engine dates it
    from the first time it is shown (ROADMAP item 7). That HostSilent's
    time and "silent since" are the one difference."""
    profile = sim.TrafficProfile()
    plant = sim.Plant(sim.Topology.default(), profile, bench.DURATION_US, seed)
    differing = []
    for scenario, variant, _expected in bench._scenario_matrix():
        result = bench._observe(plant.trace([scenario]), profile)
        frames_in = list(result.trace.frames_for(bench.MONITOR))
        learning_end_us = result.engine.started_us + bench.LEARNING_US
        learner = Engine(result.engine.config)
        list(replay(learner, [f for f in frames_in if f[0] < learning_end_us]))
        engine = Engine(result.engine.config)
        engine.import_model(learner.export_model())
        rest = [f for f in frames_in if f[0] >= learning_end_us]
        imported = list(replay(engine, rest))
        # every silence at its flow's deadline, or at the learning end for
        # a flow silent already
        for event in result.events + imported:
            if event.cause is Cause.HOST_SILENT:
                high_us = engine.states[event.flow].high_us
                assert event.at_us == max(_silent_since_us(event) + high_us, learning_end_us)
        if imported != result.events:
            differing.append((scenario.kind, variant, result.events, imported, engine, rest))
    assert [row[:2] for row in differing] == [(sim.ScenarioKind.LEARNING_ATTACK,
                                               "attacker stops")]
    _, _, learned_first, imported, engine, rest = differing[0]
    assert len(imported) == len(learned_first)
    pairs = [(a, b) for a, b in zip(learned_first, imported) if a != b]
    assert len(pairs) == 1
    (first, second), = pairs
    assert first.cause is second.cause is Cause.HOST_SILENT and first.flow == second.flow
    # each at its deadline: learn-first's from the attacker's last frame,
    # before the learning end; the imported one's from the first time shown
    high_us = engine.states[second.flow].high_us
    since_us = _silent_since_us(first)
    shown_us = rest[0][0]
    assert since_us < shown_us and first.at_us == since_us + high_us
    assert (second.at_us, second.detail) == (shown_us + high_us, "silent since %dus" % shown_us)
