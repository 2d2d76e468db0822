"""Simulator: determinism, traffic statistics, scenario semantics."""

import gc
import io
import random
import statistics

import pytest

from eids import bench, sim
from eids.announce import ReplayState, decode_verify
from eids.packet import PROTO_UDP, TCP_ACK, TCP_SYN, ArpOp, Direction, ParseError, parse_frame
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
    groups = sim.interarrivals(trace.records(), "tcp:%s:502:to" % S1_IP)
    assert len(groups) == 1
    gaps = [gap for _ts, gap in next(iter(groups.values()))]
    assert len(gaps) >= 300  # over 300 poll cycles in 60 s
    mean_ms = statistics.mean(gaps) / 1000
    assert 95 <= mean_ms <= 105
    # steady-state minimum (past the handshake) respects the response
    # delay floor: pooled gaps are either responses or period remainders
    pooled = sim.interarrivals(trace.records(), "tcp:%s:502" % S1_IP)
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
        meta = parse_frame(data)
        if meta.l3 and meta.l3.l4 and meta.l3.l4.dst_port == 502:
            times.append(at)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert statistics.median(gaps) == 1000  # 1 ms spacing


def test_node_removed_goes_silent():
    removal = sim.AttackScenario(sim.ScenarioKind.NODE_REMOVED, start_us=30 * S,
                                 target="S2")
    trace = sim.run(duration_us=120 * S, seed=2, scenarios=[removal])
    after = [fr for fr in trace.frames if fr[1] == "S2" and fr[0] >= 30 * S]
    assert after == []
    before = [fr for fr in trace.frames if fr[1] == "S2" and fr[0] < 30 * S]
    assert before


def _answered_without_question(trace):
    """Answers whose question never went out: ARP replies without the
    request they answer, SYN+ACKs without their SYN and handshake ACKs
    without their SYN+ACK."""
    asked = set()
    orphans = []
    for fr in trace.frames:
        _time_us, _src, _dst, data = fr
        meta = parse_frame(data)
        if meta.arp is not None:
            arp = meta.arp
            if arp.op is ArpOp.REQUEST:
                asked.add(("arp", arp.sender_ip, arp.target_ip))
            elif ("arp", arp.target_ip, arp.sender_ip) not in asked:
                orphans.append(fr)
            continue
        l4 = meta.l3.l4 if meta.l3 is not None else None
        if l4 is None or l4.tcp_flags is None:
            continue
        here = (meta.l3.src_ip, l4.src_port, meta.l3.dst_ip, l4.dst_port)
        back = (meta.l3.dst_ip, l4.dst_port, meta.l3.src_ip, l4.src_port)
        if l4.tcp_flags == TCP_SYN:
            asked.add(("syn",) + here)
        elif l4.tcp_flags == TCP_SYN | TCP_ACK:
            asked.add(("syn-ack",) + here)
            if ("syn",) + back not in asked:
                orphans.append(fr)
        elif l4.tcp_flags == TCP_ACK and l4.payload_len == 0:
            if ("syn-ack",) + back not in asked:
                orphans.append(fr)
    return orphans


def test_removed_node_returns_at_stop_and_is_answered_only_when_it_asks():
    # the removal ends at 20 s; the captured node reaches out at 25 s
    scenarios = [
        sim.AttackScenario(sim.ScenarioKind.NODE_REMOVED, start_us=10 * S, stop_us=20 * S,
                           target="S2"),
        sim.AttackScenario(sim.ScenarioKind.CAPTURE_NODE, start_us=25 * S, target="S2",
                           peer="S1"),
    ]
    trace = sim.run(duration_us=40 * S, seed=3, scenarios=scenarios)
    s2 = [time_us for time_us, src, _dst, _data in trace.frames if src == "S2"]
    assert not [t for t in s2 if 10 * S <= t < 20 * S]
    assert [t for t in s2 if t >= 20 * S]
    assert [t for t in s2 if t >= 25 * S]
    assert _answered_without_question(trace) == []


def test_handshake_of_a_node_removed_at_start_is_not_completed():
    removal = sim.AttackScenario(sim.ScenarioKind.NODE_REMOVED, start_us=0, target="S2")
    trace = sim.run(duration_us=5 * S, seed=3, scenarios=[removal])
    assert not [fr for fr in trace.frames if fr[1] == "S2"]
    assert _answered_without_question(trace) == []
    assert _answered_without_question(sim.run(duration_us=5 * S, seed=3)) == []


def test_responses_never_precede_requests():
    trace = sim.run(duration_us=30 * S, seed=4)
    pending = {}
    for time_us, _src, _dst, data in trace.frames:
        meta = parse_frame(data)
        if meta.l3 is None or meta.l3.l4 is None or meta.l3.l4.tcp_flags is None:
            continue
        l4 = meta.l3.l4
        if l4.payload_len == 0:
            continue
        offset = len(data) - l4.payload_len
        txid = int.from_bytes(data[offset : offset + 2], "big")
        stream = (meta.l3.src_ip, meta.l3.dst_ip, l4.src_port, l4.dst_port)
        if l4.dst_port == 502:
            pending[(stream[0], stream[2], txid)] = time_us
        elif l4.src_port == 502:
            req_time = pending.get((stream[1], stream[3], txid))
            assert req_time is not None, "response without a request"
            assert time_us > req_time


def test_status_messages_verify_under_profile_psk():
    profile = sim.TrafficProfile()
    trace = sim.run(profile=profile, duration_us=25 * S, seed=8)
    replay = ReplayState()
    seen = set()
    for at, direction, data in trace.frames_for("Cloud"):
        if direction is not Direction.RX:
            continue
        l3 = parse_frame(data).l3
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
        meta = parse_frame(data)
        if meta.l3 and meta.l3.l4 and meta.l3.l4.tcp_flags is not None:
            assert S1_IP in (meta.l3.src_ip, meta.l3.dst_ip)


@pytest.mark.parametrize("name", ["S9", "s1", "attacker"])
def test_a_viewpoint_that_names_no_device_raises_before_any_frame(name):
    trace = sim.run(duration_us=5 * S, seed=0)
    with pytest.raises(sim.ConfigInvalid, match="no device named"):
        trace.frames_for(name)
    buffer = io.BytesIO()
    with pytest.raises(sim.ConfigInvalid, match="no device named"):
        trace.write_pcap(buffer, viewpoint=name)
    assert buffer.getvalue() == b""


def test_pcap_round_trip_counts():
    trace = sim.run(duration_us=10 * S, seed=3)
    buffer = io.BytesIO()
    trace.write_pcap(buffer)
    buffer.seek(0)
    assert len(list(read_pcap(buffer))) == len(trace.frames)


def test_stats_csv_shape_and_empty_filter():
    trace = sim.run(duration_us=20 * S, seed=3)
    csv = sim.stats_csv(trace.records(), "tcp:%s:502" % S1_IP)
    lines = csv.strip().split("\n")
    assert lines[0] == "flow,timestamp_us,interarrival_us"
    assert len(lines) > 100
    assert all(line.count(",") == 2 for line in lines[1:])

    empty = sim.stats_csv(trace.records(), "tcp:10.9.9.9:1234")
    assert empty == "flow,timestamp_us,interarrival_us\n"


def _interarrivals_by_full_parse(records, flow):
    """The filter applied to every parsed frame, with no pre-filter."""
    parsed = sim.parse_flow_filter(flow)
    last_seen = {}
    out = {}
    for time_us, data in records:
        try:
            meta = parse_frame(data)
        except ParseError:
            continue
        label = sim._match_filter(parsed, meta)
        if label is None:
            continue
        previous = last_seen.get(label)
        last_seen[label] = time_us
        if previous is not None:
            out.setdefault(label, []).append((time_us, time_us - previous))
    return out


@pytest.fixture(scope="module")
def attacked_traces():
    """A 60 s run with ARP caches expiring every 4-8 s, injection on S1,
    S2 captured and contacting S1, and ARP poisoning of the PLC, as
    (time_us, frame) records: once in full and once as S1's view read
    back from a pcap."""
    scenarios = [
        sim.AttackScenario(sim.ScenarioKind.INJECT, start_us=20 * S, target="S1"),
        sim.AttackScenario(sim.ScenarioKind.CAPTURE_NODE, start_us=30 * S, target="S2",
                           peer="S1"),
        sim.AttackScenario(sim.ScenarioKind.ACTIVE_SNIFF, start_us=40 * S),
    ]
    profile = sim.TrafficProfile(arp_expiry_us=(4 * S, 8 * S))
    trace = sim.run(profile=profile, duration_us=60 * S, seed=7, scenarios=scenarios)
    buffer = io.BytesIO()
    trace.write_pcap(buffer, viewpoint="S1")
    buffer.seek(0)
    return {"full": list(trace.records()), "pcap": list(read_pcap(buffer))}


@pytest.mark.parametrize("source", ["full", "pcap"])
@pytest.mark.parametrize("flow", [
    "tcp:%s:502" % S1_IP,
    "tcp:%s:502:to" % S1_IP,
    "tcp:%s:502:from" % S1_IP,
    "tcp:%s:502:both" % S1_IP,
    "tcp:192.168.1.50:502:from",
    "udp:%s:47808" % S1_IP,
    "udp:192.168.1.102:47808:from",
    "arp-req:%s" % S1_IP,
    "arp-req:192.168.1.50",
    "arp-req:192.168.1.50:%s" % S1_IP,
    "arp-req:192.168.1.200:%s" % S1_IP,
    "arp-req:192.168.1.102",
    # not dotted quads, though some parse as addresses
    "tcp:192.168.1.999:502",
    "tcp:S1:502",
    "tcp:192.168.1:502",
    "tcp:192.168.001.101:502",
    "udp::47808",
    "arp-req:not-an-address",
])
def test_interarrivals_match_full_parse(attacked_traces, source, flow):
    records = attacked_traces[source]
    assert sim.interarrivals(records, flow) == _interarrivals_by_full_parse(records, flow)


def test_bad_filters_rejected():
    trace = sim.run(duration_us=1 * S, seed=0)
    for bad in ("bogus:1", "tcp:only-host", "tcp:h:1:sideways", "arp-req"):
        with pytest.raises(ValueError):
            sim.stats_csv(trace.records(), bad)


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
    # an injection lasts 10 s, so a later flood on its target is fine
    later = [
        sim.AttackScenario(sim.ScenarioKind.INJECT, start_us=10 * S, target="S1"),
        sim.AttackScenario(sim.ScenarioKind.DOS_FLOOD, start_us=20 * S, target="S1"),
    ]
    sim.run(duration_us=40 * S, seed=0, scenarios=later)


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
    # ARP refresh intervals are drawn from [low, high): equal ends leave none
    for arp_expiry_us in ((5, 5), (6, 5)):
        with pytest.raises(sim.ConfigInvalid, match="arp expiry range"):
            profile = sim.TrafficProfile(arp_expiry_us=arp_expiry_us)
            sim.run(profile=profile, duration_us=1 * S, seed=0)


def test_attacker_addresses_and_status_port_must_fit_their_frame_fields():
    plant = sim.Plant(sim.Topology.default(), sim.TrafficProfile(), 10 * S, 0)
    for bad in ({"attacker_ip": "1.2.3.4.5"}, {"attacker_ip": "1.2.3"},
                {"attacker_ip": "1.2.3.256"}, {"attacker_mac": "02:00:ac:10:01:c8:07"},
                {"attacker_mac": "02:00:ac:10:01"}, {"attacker_mac": "02:00:ac:10:01:1c8"}):
        scenario = sim.AttackScenario(sim.ScenarioKind.ACTIVE_SNIFF, **bad)
        with pytest.raises(sim.ConfigInvalid, match="attacker"):
            sim.run(duration_us=10 * S, seed=0, scenarios=[scenario])
        with pytest.raises(sim.ConfigInvalid, match="attacker"):
            plant.trace([scenario])
    scenario = sim.AttackScenario(sim.ScenarioKind.ACTIVE_SNIFF, attacker_ip="10.0.0.9",
                                  attacker_mac="02:AA:00:00:00:09")
    assert any(parse_frame(data).src_mac == "02:aa:00:00:00:09"
               for _time_us, _src, _dst, data in plant.trace([scenario]).frames)
    for port in (-1, 0x10000):
        with pytest.raises(sim.ConfigInvalid, match="status port"):
            sim.run(profile=sim.TrafficProfile(status_port=port), duration_us=10 * S, seed=0)


def test_topology_defaults_match_reference_plant():
    topo = sim.Topology.default()
    assert topo.device("S1").ip == "192.168.1.101"
    assert topo.device("S8").ip == "192.168.1.108"
    assert topo.device("A1").ip == "192.168.1.109"
    assert topo.device("PLC").ip == "192.168.1.50"
    assert topo.device("HMI").ip == "192.168.1.40"
    assert topo.device("Cloud").ip == "192.168.1.1"
    assert len(topo.edge_nodes()) == 9


def test_every_edge_node_sees_the_benign_plant_before_each_matrix_row_starts(monkeypatch):
    # a row's run can start from a copy of the benign run taken at the
    # row's start only if no node sees the row's scenario any earlier
    monkeypatch.setattr(bench, "LEARNING_US", 60 * S)
    monkeypatch.setattr(bench, "ATTACK_START_US", 65 * S)
    plant = sim.Plant(sim.Topology.default(), sim.TrafficProfile(), 100 * S, 3)
    benign = plant.trace([])
    for scenario, _variant, _expected in bench._scenario_matrix():
        trace = plant.trace([scenario])
        for node in plant.topology.edge_nodes():
            before = [f for f in trace.frames_for(node.name) if f[0] < scenario.start_us]
            assert before == [f for f in benign.frames_for(node.name)
                              if f[0] < scenario.start_us], (scenario, node.name)


def test_trace_frames_are_untracked_by_the_cyclic_collector():
    # the collector stops tracking an exact tuple at a pass that finds it
    # holds only ints, strs, bytes, None or untracked tuples, but never a
    # tuple subclass
    scenarios = [
        sim.AttackScenario(sim.ScenarioKind.ACTIVE_SNIFF, start_us=5 * S),
        sim.AttackScenario(sim.ScenarioKind.SPOOF, start_us=5 * S, target="S6"),
        sim.AttackScenario(sim.ScenarioKind.INJECT, start_us=10 * S, target="S3"),
        sim.AttackScenario(sim.ScenarioKind.CAPTURE_NODE, start_us=20 * S, target="S4",
                           peer="S5"),
        sim.AttackScenario(sim.ScenarioKind.DOS_FLOOD, start_us=30 * S),
        sim.AttackScenario(sim.ScenarioKind.NODE_REMOVED, start_us=40 * S, target="S8"),
        sim.AttackScenario(sim.ScenarioKind.LEARNING_ATTACK, target="S7"),
    ]
    trace = sim.run(duration_us=60 * S, seed=0, scenarios=scenarios)
    plant = sim.Plant(sim.Topology.default(), sim.TrafficProfile(), 60 * S, 0)
    gc.collect()
    assert len(trace.frames) > 40_000 and plant.conversations
    assert [fr for fr in trace.frames if gc.is_tracked(fr)] == []
    # a pass can reach a conversation before its frames; the next one
    # finds them untracked
    gc.collect()
    assert [c for c in plant.conversations if gc.is_tracked(c)] == []


def _check_poll_draws(plant, seed):
    """Each relation's poll times equal those drawn with randrange from a
    twin of its generator: the request at the handshake's time plus k + 1
    periods plus randrange(-jitter, jitter + 1), the response after it by
    randrange(low, high + 1) of the response delay range."""
    period = plant.profile.poll_period_us
    jitter = int(period * plant.profile.jitter_frac)
    d_lo, d_hi = plant.profile.response_delay_us
    for client, server in sim._relations(plant.topology):
        asked = [c for c in plant.conversations
                 if c[0][1] == client.name and c[0][2] == server.name]
        handshake, polls = asked[0], asked[1:]
        assert len(handshake) == 3 and polls
        twin = random.Random("%s:poll:%s>%s" % (seed, client.name, server.name))
        twin.randrange(200, 800)  # the handshake's two draws
        twin.randrange(150, 500)
        t0 = handshake[0][0]
        for k, (request, response) in enumerate(polls):
            assert request[0] == t0 + (k + 1) * period + twin.randrange(-jitter, jitter + 1)
            assert response[0] - request[0] == twin.randrange(d_lo, d_hi + 1)
        # the first poll not sent falls past the end of the run
        late = t0 + (len(polls) + 1) * period + twin.randrange(-jitter, jitter + 1)
        assert late > plant.duration_us


def test_poll_draws_equal_randrange():
    topology = sim.Topology.default()
    period = sim.TrafficProfile().poll_period_us
    # (jitter fraction, response delay range): the default profile's
    # widths 4,001 and 3,001, then no jitter with equal delay ends
    # (width 1 each), then delay widths around every power of two up to
    # 2**20 and odd jitter widths 2 * jitter + 1 up to 99,999
    cases = [(0.02, (2_000, 5_000)), (0.0, (3_000, 3_000))]
    cases += [(0.02, (1, width)) for width in sorted(
        {2**j + e for j in range(21) for e in (-1, 0, 1)} - {0, 2**20 + 1})]
    cases += [((jitter + 0.5) / period, (2_000, 5_000)) for jitter in sorted(
        {2**j + e for j in range(16) for e in (-1, 0)} | {49_999})]
    for seed, (jitter_frac, delay_us) in enumerate(cases):
        profile = sim.TrafficProfile(jitter_frac=jitter_frac, response_delay_us=delay_us)
        profile.validate()
        _check_poll_draws(sim.Plant(topology, profile, 3 * S, seed), seed)
