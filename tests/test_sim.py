"""Simulator: determinism, traffic statistics, scenario semantics."""

import io
import statistics

import pytest

from eids import sim
from eids.announce import ReplayState, decode_verify
from eids.packet import PROTO_UDP, Direction, parse_frame
from eids.pcap import read_pcap

S = 1_000_000
S1_IP = "192.168.1.101"


def _pcap_bytes(trace):
    buffer = io.BytesIO()
    trace.write_pcap(buffer)
    return buffer.getvalue()


def test_same_seed_same_bytes():
    a = sim.run(duration_us=30 * S, seed=5)
    b = sim.run(duration_us=30 * S, seed=5)
    assert _pcap_bytes(a) == _pcap_bytes(b)
    c = sim.run(duration_us=30 * S, seed=6)
    assert _pcap_bytes(a) != _pcap_bytes(c)


def test_benign_modbus_poll_mean():
    trace = sim.run(duration_us=60 * S, seed=1)
    groups = sim.interarrivals(trace, "tcp:%s:502:to" % S1_IP)
    assert len(groups) == 1
    gaps = [gap for _ts, gap in next(iter(groups.values()))]
    assert len(gaps) >= 300  # over 300 poll cycles in 60 s
    mean_ms = statistics.mean(gaps) / 1000
    assert 95 <= mean_ms <= 105
    # steady-state minimum (past the handshake) respects the response
    # delay floor: pooled gaps are either responses or period remainders
    pooled = sim.interarrivals(trace, "tcp:%s:502" % S1_IP)
    steady = [gap for _ts, gap in next(iter(pooled.values())) if _ts > 1 * S]
    assert min(steady) >= sim.TrafficProfile().response_delay_us[0]


def test_passive_sniffing_leaves_trace_identical():
    benign = sim.run(duration_us=120 * S, seed=9)
    passive = sim.run(
        duration_us=120 * S, seed=9,
        scenarios=[sim.AttackScenario(sim.ScenarioKind.PASSIVE_SNIFF, start_us=30 * S)],
    )
    assert benign.frames == passive.frames


def test_flood_rate_at_target():
    flood = sim.AttackScenario(
        sim.ScenarioKind.DOS_FLOOD, start_us=30 * S, target="S1", rate_pps=1000
    )
    trace = sim.run(duration_us=40 * S, seed=2, scenarios=[flood])
    times = []
    for at, direction, data in trace.frames_for("S1"):
        if direction is not Direction.RX or not 30 * S <= at < 40 * S:
            continue
        meta = parse_frame(data, at, direction)
        if meta.l3 and meta.l3.l4 and meta.l3.l4.dst_port == 502:
            times.append(at)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert statistics.median(gaps) == 1000  # 1 ms spacing


def test_node_removed_goes_silent():
    removal = sim.AttackScenario(sim.ScenarioKind.NODE_REMOVED, start_us=30 * S,
                                 target="S2")
    trace = sim.run(duration_us=120 * S, seed=2, scenarios=[removal])
    after = [fr for fr in trace.frames if fr.src == "S2" and fr.time_us >= 30 * S]
    assert after == []
    before = [fr for fr in trace.frames if fr.src == "S2" and fr.time_us < 30 * S]
    assert before


def test_responses_never_precede_requests():
    trace = sim.run(duration_us=30 * S, seed=4)
    pending = {}
    for fr in trace.frames:
        meta = parse_frame(fr.data, fr.time_us, Direction.RX)
        if meta.l3 is None or meta.l3.l4 is None or meta.l3.l4.tcp_flags is None:
            continue
        l4 = meta.l3.l4
        if l4.payload_len == 0:
            continue
        offset = len(fr.data) - l4.payload_len
        txid = int.from_bytes(fr.data[offset : offset + 2], "big")
        stream = (meta.l3.src_ip, meta.l3.dst_ip, l4.src_port, l4.dst_port)
        if l4.dst_port == 502:
            pending[(stream[0], stream[2], txid)] = fr.time_us
        elif l4.src_port == 502:
            req_time = pending.get((stream[1], stream[3], txid))
            assert req_time is not None, "response without a request"
            assert fr.time_us > req_time


def test_status_messages_verify_under_profile_psk():
    profile = sim.TrafficProfile()
    trace = sim.run(profile=profile, duration_us=25 * S, seed=8)
    replay = ReplayState()
    seen = set()
    for at, direction, data in trace.frames_for("Cloud"):
        if direction is not Direction.RX:
            continue
        l3 = parse_frame(data, at, direction).l3
        if l3 is None or l3.protocol != PROTO_UDP:
            continue
        start = l3.l4.payload_offset
        payload = data[start : start + l3.l4.payload_len]
        msg = decode_verify(payload, profile.psk, replay, now_ms=at // 1000)
        seen.add(msg.node_id)
        assert msg.intrusion is False
    assert seen == {d.node_id for d in trace.topology.edge_nodes()}


def test_frames_for_viewpoints():
    trace = sim.run(duration_us=10 * S, seed=3)
    s1 = list(trace.frames_for("S1"))
    assert any(d is Direction.TX for _t, d, _f in s1)
    assert any(d is Direction.RX for _t, d, _f in s1)
    # unicast between PLC and S2 is invisible at S1
    for at, direction, data in s1:
        meta = parse_frame(data, at, direction)
        if meta.l3 and meta.l3.l4 and meta.l3.l4.tcp_flags is not None:
            assert S1_IP in (meta.l3.src_ip, meta.l3.dst_ip)


def test_pcap_round_trip_counts():
    trace = sim.run(duration_us=10 * S, seed=3)
    buffer = io.BytesIO()
    trace.write_pcap(buffer)
    buffer.seek(0)
    assert len(list(read_pcap(buffer))) == len(trace.frames)


def test_stats_csv_shape_and_empty_filter():
    trace = sim.run(duration_us=20 * S, seed=3)
    csv = sim.stats_csv(trace, "tcp:%s:502" % S1_IP)
    lines = csv.strip().split("\n")
    assert lines[0] == "flow,timestamp_us,interarrival_us"
    assert len(lines) > 100
    assert all(line.count(",") == 2 for line in lines[1:])

    empty = sim.stats_csv(trace, "tcp:10.9.9.9:1234")
    assert empty == "flow,timestamp_us,interarrival_us\n"


def test_bad_filters_rejected():
    trace = sim.run(duration_us=1 * S, seed=0)
    for bad in ("bogus:1", "tcp:only-host", "tcp:h:1:sideways", "arp-req"):
        with pytest.raises(ValueError):
            sim.stats_csv(trace, bad)


def test_scenario_conflict_same_target_overlap():
    scenarios = [
        sim.AttackScenario(sim.ScenarioKind.NODE_REMOVED, start_us=10 * S, target="S1"),
        sim.AttackScenario(sim.ScenarioKind.DOS_FLOOD, start_us=20 * S, target="S1"),
    ]
    with pytest.raises(sim.ScenarioConflict):
        sim.run(duration_us=120 * S, seed=0, scenarios=scenarios)
    # disjoint targets are fine
    ok = [
        sim.AttackScenario(sim.ScenarioKind.NODE_REMOVED, start_us=10 * S, target="S2"),
        sim.AttackScenario(sim.ScenarioKind.DOS_FLOOD, start_us=20 * S, target="S1"),
    ]
    sim.run(duration_us=40 * S, seed=0, scenarios=ok)


def test_config_validation():
    with pytest.raises(sim.ConfigInvalid):
        sim.run(duration_us=0, seed=0)
    with pytest.raises(sim.ConfigInvalid):
        profile = sim.TrafficProfile(poll_period_us=-1)
        sim.run(profile=profile, duration_us=1 * S, seed=0)
    with pytest.raises(sim.ConfigInvalid):
        sim.run(
            duration_us=10 * S, seed=0,
            scenarios=[sim.AttackScenario(sim.ScenarioKind.INJECT, start_us=20 * S)],
        )
    with pytest.raises(sim.ConfigInvalid):
        sim.run(
            duration_us=10 * S, seed=0,
            scenarios=[sim.AttackScenario(sim.ScenarioKind.INJECT, target="nope")],
        )


def test_topology_defaults_match_reference_plant():
    topo = sim.Topology.default()
    assert topo.device("S1").ip == "192.168.1.101"
    assert topo.device("S8").ip == "192.168.1.108"
    assert topo.device("A1").ip == "192.168.1.109"
    assert topo.device("PLC").ip == "192.168.1.50"
    assert topo.device("HMI").ip == "192.168.1.40"
    assert topo.device("Cloud").ip == "192.168.1.1"
    assert len(topo.edge_nodes()) == 9
