"""Flow keys, the trusted-flow table, ARP bindings, coherence rules."""

import random

from eids import frames, sim
from eids.flows import (
    Cause,
    FlowKey,
    FlowKind,
    FlowTable,
    Mode,
    derive_key,
)
from eids.packet import ArpOp, Direction, parse_frame

LOCAL = "192.168.1.101"
LOCAL_MAC = "02:00:ac:10:01:65"
PLC = "192.168.1.50"
PLC_MAC = "02:00:ac:10:01:32"
EVIL_MAC = "02:00:ac:10:01:c8"


def _tcp(sport, dport, flags=0x18, src=PLC, dst=LOCAL, direction=Direction.RX,
         src_mac=PLC_MAC, dst_mac=LOCAL_MAC, payload=b""):
    """(meta, direction) of one TCP segment."""
    frame = frames.tcp_frame(src_mac, dst_mac, src, dst, sport, dport, flags, payload)
    return parse_frame(frame), direction


def _arp(op, sender_mac, sender_ip, target_mac, target_ip, direction=Direction.RX):
    """(meta, direction) of one ARP message."""
    frame = frames.arp_frame(op, sender_mac, sender_ip, target_mac, target_ip)
    return parse_frame(frame), direction


def _rx(frame):
    """(meta, direction) of one received frame."""
    return parse_frame(frame), Direction.RX


def _observe(table, packet, mode):
    """Key a (meta, direction) packet and judge it, as the engine does."""
    meta, direction = packet
    return table.observe(meta, mode, table.key_for(meta, direction))


def test_derive_key_server_port_502():
    key = derive_key(*_tcp(49152, 502), LOCAL)
    assert key == FlowKey(FlowKind.TCP, peer=PLC, local_ip=LOCAL, service_port=502)


def test_reconnect_new_client_port_same_key():
    first = derive_key(*_tcp(49152, 502), LOCAL)
    second = derive_key(*_tcp(49153, 502), LOCAL)
    assert first == second


def test_response_direction_same_key():
    request = derive_key(*_tcp(49152, 502), LOCAL)
    response = derive_key(
        *_tcp(502, 49152, src=LOCAL, dst=PLC, direction=Direction.TX,
             src_mac=LOCAL_MAC, dst_mac=PLC_MAC),
        LOCAL,
    )
    assert request == response


def test_arp_key_is_sender_mac():
    arp = _arp(ArpOp.REQUEST, PLC_MAC, PLC, frames.ZERO_MAC, LOCAL)
    assert derive_key(*arp, LOCAL) == FlowKey(FlowKind.ARP, peer=PLC_MAC)


def test_unknown_direction_own_address_from_another_mac_is_received():
    table = FlowTable(LOCAL)
    own = _arp(ArpOp.REQUEST, LOCAL_MAC, LOCAL, frames.ZERO_MAC, PLC, direction=None)
    # nothing learned for LOCAL yet: its address alone makes a frame sent
    assert table.key_for(*own) == FlowKey(FlowKind.ARP, peer=frames.ZERO_MAC)
    _observe(table, own, Mode.LEARNING)
    assert table.key_for(*own) == FlowKey(FlowKind.ARP, peer=frames.ZERO_MAC)
    forged = _arp(ArpOp.REPLY, EVIL_MAC, LOCAL, frames.BROADCAST_MAC, LOCAL, direction=None)
    assert table.key_for(*forged) == FlowKey(FlowKind.ARP, peer=EVIL_MAC)
    icmp = bytearray(frames.udp_frame(EVIL_MAC, PLC_MAC, LOCAL, PLC, 1, 2, b""))
    icmp[23] = 1  # IPv4 protocol ICMP: no port block
    assert table.key_for(parse_frame(bytes(icmp)), None) == FlowKey(FlowKind.OTHER,
                                                                     peer=EVIL_MAC)


def test_syn_decides_orientation_without_well_known_port():
    syn = _tcp(5000, 6000, flags=0x02)
    assert derive_key(*syn, LOCAL).service_port == 6000
    syn_ack = _tcp(6000, 5000, flags=0x12, src=LOCAL, dst=PLC,
                   direction=Direction.TX, src_mac=LOCAL_MAC, dst_mac=PLC_MAC)
    assert derive_key(*syn_ack, LOCAL).service_port == 6000


def test_min_port_tiebreak():
    packet = _tcp(5000, 6000)  # no SYN, both ephemeral
    assert derive_key(*packet, LOCAL).service_port == 5000


def test_flow_key_hashes_and_compares_as_the_tuple_key_for_probes():
    for kind in FlowKind:
        key = FlowKey(kind, PLC, LOCAL, 502)
        probe = (kind, PLC, LOCAL, 502)  # what key_for looks up in table.flows
        assert type(probe) is tuple and hash(key) == hash(probe)
        assert key == probe and probe == key
        assert probe in {key} and key in {probe}
        assert (kind, PLC, LOCAL, 503) not in {key}
    table = FlowTable(LOCAL)
    packet = _tcp(49152, 502)
    _observe(table, packet, Mode.LEARNING)
    key = table.key_for(*packet)
    assert type(key) is FlowKey and key.render() == "tcp/%s->%s:502" % (PLC, LOCAL)


def test_table_reuses_learned_orientation():
    table = FlowTable(LOCAL)
    _observe(table, _tcp(5000, 6000, flags=0x02), Mode.LEARNING)  # SYN toward 6000
    # a later plain data packet would heuristically pick min port 5000,
    # but the admitted flow pins the service side to 6000
    key = table.key_for(*_tcp(5000, 6000))
    assert key.service_port == 6000


def test_key_for_admitted_flow_with_equal_ports():
    table = FlowTable(LOCAL)
    packet = _tcp(5000, 5000)
    _observe(table, packet, Mode.LEARNING)
    key = FlowKey(FlowKind.TCP, peer=PLC, local_ip=LOCAL, service_port=5000)
    assert table.flows == {key}
    assert table.key_for(*packet) == key
    assert _observe(table, packet, Mode.ACTIVE) is None


def test_key_for_both_candidates_admitted_falls_through():
    # both orientations admitted (as a model import can leave them):
    # neither candidate decides, so learned services and then the
    # derive_key heuristic (min port, 5000) pick the key
    table = FlowTable(LOCAL)
    for port in (5000, 6000):
        table.flows.add(FlowKey(FlowKind.TCP, peer=PLC, local_ip=LOCAL, service_port=port))
    packet = _tcp(6000, 5000)
    assert table.key_for(*packet).service_port == 5000
    table.services.add((PLC, 6000))
    assert table.key_for(*packet).service_port == 6000


def test_key_for_learned_service_overrides_heuristic():
    table = FlowTable(LOCAL)
    _observe(table, _tcp(5000, 6000, flags=0x02), Mode.LEARNING)  # SYN toward 6000
    assert (LOCAL, 6000) in table.services
    # another peer, no SYN, no well-known port: the heuristic would pick
    # min port 4000, but the learned service endpoint LOCAL:6000 wins
    packet = _tcp(4000, 6000, src="192.168.1.60")
    assert derive_key(*packet, LOCAL).service_port == 4000
    assert table.key_for(*packet) == FlowKey(
        FlowKind.TCP, peer="192.168.1.60", local_ip=LOCAL, service_port=6000
    )


def test_learning_admits_then_known():
    table = FlowTable(LOCAL)
    packet = _tcp(49152, 502)
    assert _observe(table, packet, Mode.LEARNING) is None
    assert _observe(table, packet, Mode.ACTIVE) is None


def test_active_unseen_udp_is_new_flow():
    table = FlowTable(LOCAL)
    frame = frames.udp_frame(EVIL_MAC, LOCAL_MAC, "192.168.1.200", LOCAL, 777, 888, b"x")
    packet = _rx(frame)
    assert _observe(table, packet, Mode.ACTIVE) is Cause.NEW_FLOW
    # not auto-admitted: still new on the next packet
    assert _observe(table, packet, Mode.ACTIVE) is Cause.NEW_FLOW


def test_binding_conflict_on_rebind():
    table = FlowTable(LOCAL)
    _observe(table, _arp(ArpOp.REQUEST, PLC_MAC, PLC, frames.ZERO_MAC, LOCAL),
             Mode.LEARNING)
    evil = _arp(ArpOp.REPLY, EVIL_MAC, PLC, frames.BROADCAST_MAC, PLC)
    assert _observe(table, evil, Mode.ACTIVE) is Cause.BINDING_CONFLICT


def test_same_binding_reannounced_is_known():
    table = FlowTable(LOCAL)
    announce = _arp(ArpOp.REQUEST, PLC_MAC, PLC, frames.ZERO_MAC, LOCAL)
    _observe(table, announce, Mode.LEARNING)
    again = _arp(ArpOp.REQUEST, PLC_MAC, PLC, frames.ZERO_MAC, LOCAL)
    assert _observe(table, again, Mode.ACTIVE) is None


def test_l2l3_mismatch_on_forged_source():
    table = FlowTable(LOCAL)
    _observe(table, _arp(ArpOp.REQUEST, PLC_MAC, PLC, frames.ZERO_MAC, LOCAL),
             Mode.LEARNING)
    _observe(table, _tcp(49152, 502), Mode.LEARNING)
    forged = _tcp(49152, 502, src_mac=EVIL_MAC)  # claims the PLC's IP
    assert _observe(table, forged, Mode.ACTIVE) is Cause.L2L3_MISMATCH


def test_broadcast_destination_exempt_from_dst_check():
    table = FlowTable(LOCAL)
    _observe(table, _arp(ArpOp.REQUEST, PLC_MAC, PLC, frames.ZERO_MAC, LOCAL),
             Mode.LEARNING)
    frame = frames.udp_frame(PLC_MAC, frames.BROADCAST_MAC, PLC,
                             "255.255.255.255", 47808, 47808, b"k")
    packet = _rx(frame)
    _observe(table, packet, Mode.LEARNING)
    assert _observe(table, packet, Mode.ACTIVE) is None


def test_learning_never_raises_verdicts():
    table = FlowTable(LOCAL)
    rng = random.Random(5)
    packets = []
    for i in range(200):
        kind = rng.randrange(3)
        if kind == 0:
            packets.append(_tcp(rng.randrange(1, 65536), rng.randrange(1, 65536),
                              flags=rng.choice([0x02, 0x10, 0x18])))
        elif kind == 1:
            mac = "02:00:00:00:00:%02x" % rng.randrange(256)
            ip = "10.0.0.%d" % rng.randrange(1, 255)
            packets.append(_arp(ArpOp.REPLY, mac, ip, LOCAL_MAC, LOCAL))
        else:
            frame = frames.udp_frame(PLC_MAC, LOCAL_MAC, PLC, LOCAL,
                                     rng.randrange(1, 65536), rng.randrange(1, 65536), b"")
            packets.append(_rx(frame))
    for packet in packets:
        assert _observe(table, packet, Mode.LEARNING) is None


def test_key_set_is_order_independent():
    trace = sim.run(duration_us=60_000_000, seed=11)
    triples = list(trace.frames_for("S1"))

    def learn(seq):
        table = FlowTable(LOCAL)
        for _ts, direction, data in seq:
            _observe(table, (parse_frame(data), direction), Mode.LEARNING)
        return table.flows

    in_order = learn(triples)
    shuffled = triples[:]
    random.Random(99).shuffle(shuffled)
    assert learn(shuffled) == in_order


def test_learned_topology_has_two_kinds_per_peer():
    # the monitored sensor should know its poller by TCP and ARP, and
    # every other edge node by its status broadcasts and ARP
    trace = sim.run(duration_us=720_000_000, seed=0)
    table = FlowTable(LOCAL)
    for _ts, direction, data in trace.frames_for("S1"):
        _observe(table, (parse_frame(data), direction), Mode.LEARNING)
    topo = trace.topology
    plc = topo.device("PLC")
    assert FlowKey(FlowKind.TCP, peer=plc.ip, local_ip=LOCAL, service_port=502) in table.flows
    assert FlowKey(FlowKind.ARP, peer=plc.mac) in table.flows
    for dev in topo.edge_nodes():
        if dev.name == "S1":
            continue
        assert FlowKey(FlowKind.UDP, peer=dev.ip, local_ip="255.255.255.255",
                       service_port=47808) in table.flows
        assert FlowKey(FlowKind.ARP, peer=dev.mac) in table.flows
    for dev in topo.devices:
        assert table.bindings[dev.ip] == dev.mac


def test_export_records_sorted_and_stable():
    table = FlowTable(LOCAL)
    _observe(table, _tcp(49152, 502), Mode.LEARNING)
    _observe(table, _arp(ArpOp.REQUEST, PLC_MAC, PLC, frames.ZERO_MAC, LOCAL),
             Mode.LEARNING)
    flows_a, bindings_a = table.export_records()
    flows_b, bindings_b = table.export_records()
    assert flows_a == flows_b
    assert bindings_a == bindings_b == [(PLC, PLC_MAC)]
    assert flows_a[0].kind is FlowKind.ARP  # kind-sorted

    empty = FlowTable(LOCAL)
    assert empty.export_records() == ([], [])
