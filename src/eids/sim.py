"""Deterministic discrete-event simulator of a polling ICS network.

The simulated plant is a single broadcast domain: a PLC cyclically
polls eight sensors and one actuator over Modbus/TCP every 100 ms, an
HMI and a SCADA host poll the PLC at the same cadence, hosts refresh
their ARP caches on per-host expiry clocks, and every edge node
broadcasts an authenticated status datagram every 10 s. That benign
traffic is built without knowledge of scenarios; eight attack scenarios
are overlaid on it, adding frames and silencing removed or flooded
nodes. Given equal inputs and seed, the produced frame trace is
byte-identical: every stream draws from its own seeded generator, so
adding a scenario never perturbs benign traffic.

Polls make up almost all of the traffic, so each polling relation gets
one poll template (frames.modbus_read_poll) and each request and
response is one struct pack of seq, ack, checksum, transaction id and
register value; the other frames come from the general builders in
frames.

A trace frame is a plain (time_us, src, dst, data) tuple, dst None for
a broadcast. The cyclic garbage collector stops tracking an exact tuple
at a pass that finds it holds only ints, strs, bytes, None or untracked
tuples, but never a tuple subclass, so a plant's hundreds of thousands
of frames and their conversations drop out of later collections.

Times are integer microseconds of simulated time starting at zero; no
wall clock is involved anywhere.
"""

import copy
import ipaddress
import random
import re
import socket
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from itertools import chain
from operator import itemgetter
from typing import BinaryIO, Iterable, Iterator

from . import announce, frames
from .packet import (
    TCP_ACK,
    TCP_PSH,
    TCP_SYN,
    Direction,
    ParseError,
    parse_frame,
)
from .pcap import write_pcap

MODBUS_PORT = 502
ATTACKER_NAME = "attacker"
DEFAULT_PSK = b"eids-testbed-psk"
_MAC = re.compile(r"[0-9a-f]{2}(:[0-9a-f]{2}){5}", re.IGNORECASE)


class ConfigInvalid(ValueError):
    pass


class ScenarioConflict(ValueError):
    """Two scenarios manipulate the same device at overlapping times."""


class Role(Enum):
    SENSOR = "sensor"
    ACTOR = "actor"
    PLC = "plc"
    HMI = "hmi"
    CLOUD = "cloud"
    ATTACKER = "attacker"  # a host outside the topology


@dataclass(frozen=True)
class Device:
    name: str
    role: Role
    ip: str
    mac: str
    node_id: int = 0  # nonzero for edge nodes that broadcast status


def _mac_for(last_octet: int) -> str:
    return "02:00:ac:10:01:%02x" % last_octet


@dataclass(frozen=True)
class Topology:
    devices: tuple[Device, ...]

    @classmethod
    def default(cls, sensors: int = 8) -> "Topology":
        """The reference plant: sensors at 192.168.1.101 and up, one
        actuator after them, PLC .50, HMI .40, cloud/SCADA .1."""
        if not 1 <= sensors <= 8:
            raise ConfigInvalid("sensor count out of range")
        devices = [
            Device("S%d" % (i + 1), Role.SENSOR, "192.168.1.%d" % (101 + i),
                   _mac_for(101 + i), node_id=i + 1)
            for i in range(sensors)
        ]
        actor_octet = 101 + sensors
        devices.append(
            Device("A1", Role.ACTOR, "192.168.1.%d" % actor_octet,
                   _mac_for(actor_octet), node_id=sensors + 1)
        )
        devices.append(Device("PLC", Role.PLC, "192.168.1.50", _mac_for(50)))
        devices.append(Device("HMI", Role.HMI, "192.168.1.40", _mac_for(40)))
        devices.append(Device("Cloud", Role.CLOUD, "192.168.1.1", _mac_for(1)))
        return cls(tuple(devices))

    def device(self, name: str) -> Device:
        for dev in self.devices:
            if dev.name == name:
                return dev
        raise ConfigInvalid("no device named %r" % name)

    def by_role(self, role: Role) -> Device:
        for dev in self.devices:
            if dev.role is role:
                return dev
        raise ConfigInvalid("no device with role %s" % role.value)

    def edge_nodes(self) -> list[Device]:
        return [d for d in self.devices if d.node_id > 0]


@dataclass
class TrafficProfile:
    poll_period_us: int = 100_000
    response_delay_us: tuple[int, int] = (2_000, 5_000)
    jitter_frac: float = 0.02
    arp_expiry_us: tuple[int, int] = (180_000_000, 360_000_000)
    status_period_us: int = 10_000_000
    status_port: int = announce.DEFAULT_PORT
    psk: bytes = DEFAULT_PSK

    def validate(self) -> None:
        durations = (
            self.poll_period_us,
            self.response_delay_us[0],
            self.arp_expiry_us[0],
            self.status_period_us,
        )
        if any(d <= 0 for d in durations):
            raise ConfigInvalid("durations must be positive")
        if self.response_delay_us[0] > self.response_delay_us[1]:
            raise ConfigInvalid("response delay range inverted")
        # ARP refresh intervals are drawn from [low, high), which needs low < high
        if self.arp_expiry_us[0] >= self.arp_expiry_us[1]:
            raise ConfigInvalid("arp expiry range empty or inverted")
        if not 0.0 <= self.jitter_frac < 0.5:
            raise ConfigInvalid("jitter fraction out of range")
        if not self.psk:
            raise ConfigInvalid("empty PSK")
        if not 0 <= self.status_port <= 0xFFFF:
            raise ConfigInvalid("status port %d out of range" % self.status_port)


class ScenarioKind(IntEnum):
    NODE_REMOVED = 1
    ACTIVE_SNIFF = 2
    SPOOF = 3
    INJECT = 4
    DOS_FLOOD = 5
    PASSIVE_SNIFF = 6
    LEARNING_ATTACK = 7
    CAPTURE_NODE = 8


@dataclass(frozen=True)
class AttackScenario:
    kind: ScenarioKind
    start_us: int = 0
    target: str | None = None
    peer: str | None = None  # CAPTURE_NODE: which trusted node is contacted
    rate_pps: int = 1000
    stop_us: int | None = None
    attacker_ip: str = "192.168.1.200"
    attacker_mac: str = _mac_for(200)


# (time_us, src, dst, data), dst None for a broadcast
_Frame = tuple[int, str, str | None, bytes]


@dataclass
class FrameTrace:
    """The frames on the wire in time order, each a plain
    (time_us, src, dst, data) tuple that the cyclic garbage collector
    can stop tracking (see the module docstring)."""

    topology: Topology
    frames: list[_Frame] = field(default_factory=list)

    def frames_for(self, device_name: str) -> Iterator[tuple[int, Direction, bytes]]:
        """One device's view of the wire: its own frames as TX, frames
        addressed to it plus all foreign broadcasts as RX. Unicast
        between other hosts is invisible, as on a switched network. A
        name that is no device raises ConfigInvalid here, before any
        frame is yielded."""
        self.topology.device(device_name)
        return self._view(device_name)

    def _view(self, device_name: str) -> Iterator[tuple[int, Direction, bytes]]:
        tx, rx = Direction.TX, Direction.RX
        for time_us, src, dst, data in self.frames:
            if src == device_name:
                yield time_us, tx, data
            elif dst == device_name or dst is None:
                yield time_us, rx, data

    def records(self) -> Iterator[tuple[int, bytes]]:
        """(time_us, frame) of every frame on the wire, in time order."""
        return ((time_us, data) for time_us, _src, _dst, data in self.frames)

    def write_pcap(self, stream: BinaryIO, viewpoint: str | None = None) -> int:
        """Write the whole wire, or the named device's view, as a pcap and
        return the frame count; a viewpoint that is no device raises
        ConfigInvalid before any byte is written."""
        if viewpoint is None:
            records = self.records()
        else:
            records = ((t, data) for t, _d, data in self.frames_for(viewpoint))
        return write_pcap(stream, records)


def _rng(seed, tag: str) -> random.Random:
    return random.Random("%s:%s" % (seed, tag))


class Plant:
    """The benign traffic of one plant and seed, built once and without
    knowledge of scenarios, as conversations: a question frame followed
    by the frames that answer it."""

    def __init__(self, topology: Topology, profile: TrafficProfile, duration_us: int, seed):
        self.topology = topology
        self.profile = profile
        self.duration_us = duration_us
        self.seed = seed
        self.conversations: list[tuple[_Frame, ...]] = []
        _gen_arp(self)
        _gen_polling(self)
        _gen_status(self)

    def emit(self, t_us: int, src: str, dst: str | None, data: bytes,
             *answers: _Frame) -> None:
        self.conversations.append(((t_us, src, dst, data), *answers))

    def host_start(self, device: Device) -> int:
        return _rng(self.seed, "host:%s" % device.name).randrange(0, 50_000)

    def trace(self, scenarios: Iterable[AttackScenario]) -> FrameTrace:
        """The full-domain trace with scenarios overlaid; the plant is
        left as it was. A conversation stops at its first frame past the
        end of the run or sent by a node that a removal or flood
        silences at that time, so nobody answers a frame never sent."""
        scenario_list = list(scenarios)
        _validate_scenarios(scenario_list, self.topology, self.duration_us)
        attacks = copy.copy(self)
        attacks.conversations = []
        _gen_attacks(attacks, scenario_list)
        silent: dict[str, list[tuple[int, int]]] = {}
        for sc in scenario_list:
            if sc.kind in (ScenarioKind.NODE_REMOVED, ScenarioKind.DOS_FLOOD):
                silent.setdefault(_resolve_target(sc), []).append(
                    _scenario_window(sc, self.duration_us))
        kept = []
        for conversation in chain(self.conversations, attacks.conversations):
            for fr in conversation:
                t = fr[0]
                windows = silent.get(fr[1])
                if t > self.duration_us or (
                        windows and any(start <= t < end for start, end in windows)):
                    break
                kept.append(fr)
        # stable: frames with equal times keep their generation order
        return FrameTrace(topology=self.topology, frames=sorted(kept, key=itemgetter(0)))


def _relations(topology: Topology) -> list[tuple[Device, Device]]:
    """Polling relationships as (client, server) pairs."""
    plc = topology.by_role(Role.PLC)
    rels = [(plc, d) for d in topology.devices if d.role in (Role.SENSOR, Role.ACTOR)]
    rels.append((topology.by_role(Role.HMI), plc))
    rels.append((topology.by_role(Role.CLOUD), plc))
    return rels


def _arp_peers(topology: Topology) -> dict[str, list[Device]]:
    peers: dict[str, list[Device]] = {d.name: [] for d in topology.devices}
    for client, server in _relations(topology):
        peers[client.name].append(server)
        peers[server.name].append(client)
    return peers


def _tcp(src: Device, dst: Device, sport: int, dport: int, flags: int,
         payload: bytes, seq: int, ack: int) -> bytes:
    return frames.tcp_frame(src.mac, dst.mac, src.ip, dst.ip, sport, dport, flags,
                            payload, seq=seq, ack=ack)


def _status_frame(b: Plant, mac: str, ip: str, node_id: int, t: int, psk: bytes) -> bytes:
    """A node's status broadcast at t, signed under psk."""
    payload = announce.encode(
        announce.StatusMessage(node_id, t // 1000, False, True, 0), psk
    )
    port = b.profile.status_port
    return frames.udp_frame(mac, frames.BROADCAST_MAC, ip, frames.BROADCAST_IP,
                            port, port, payload)


def _arp_exchange(b: Plant, rng, t: int, asker: Device, answerer: Device) -> None:
    """ARP request at t, answered 0.3-1.2 ms later."""
    reply_t = t + rng.randrange(300, 1_200)
    b.emit(t, asker.name, None, frames.arp_frame(
        frames.ArpOp.REQUEST, asker.mac, asker.ip, frames.ZERO_MAC, answerer.ip
    ), (reply_t, answerer.name, asker.name, frames.arp_frame(
        frames.ArpOp.REPLY, answerer.mac, answerer.ip, asker.mac, asker.ip
    )))


def _handshake(b: Plant, rng, t: int, client: Device, server: Device,
               cport: int, sport: int, cseq: int, sseq: int,
               client_ack: int | None = None) -> None:
    """SYN at t, SYN+ACK 0.2-0.8 ms later, ACK 0.15-0.5 ms after that.
    The client's SYN acks 0 and its ACK sseq + 1 unless client_ack pins
    both."""
    syn_ack_t = t + rng.randrange(200, 800)
    ack_t = syn_ack_t + rng.randrange(150, 500)
    b.emit(t, client.name, server.name, _tcp(
        client, server, cport, sport, TCP_SYN, b"", cseq, client_ack or 0
    ), (syn_ack_t, server.name, client.name, _tcp(
        server, client, sport, cport, TCP_SYN | TCP_ACK, b"", sseq, cseq + 1
    )), (ack_t, client.name, server.name, _tcp(
        client, server, cport, sport, TCP_ACK, b"", cseq + 1,
        sseq + 1 if client_ack is None else client_ack,
    )))


def _gen_arp(b: Plant) -> None:
    peers = _arp_peers(b.topology)
    lo, hi = b.profile.arp_expiry_us
    for dev in b.topology.devices:
        rng = _rng(b.seed, "arp:%s" % dev.name)
        my_peers = peers[dev.name]
        if not my_peers:
            continue
        t = b.host_start(dev)
        while t <= b.duration_us:
            # whole-cache refresh: one request per peer, closely spaced
            for j, peer in enumerate(my_peers):
                _arp_exchange(b, rng, t + j * 2_500 + rng.randrange(0, 500), dev, peer)
            t += rng.randrange(lo, hi)


def _gen_polling(b: Plant) -> None:
    # the hot loop of every simulation: one conversation per poll, each
    # of its frames one pack of the relation's poll template
    period = b.profile.poll_period_us
    jitter = int(period * b.profile.jitter_frac)
    d_lo, d_hi = b.profile.response_delay_us
    # randrange(-jitter, jitter + 1) and randrange(d_lo, d_hi + 1) drawn as
    # Random.randrange draws them, without its call overhead: getrandbits
    # of the width's bit length until the draw is below the width, so the
    # values and the generator's state match randrange's
    j_width = 2 * jitter + 1
    j_bits = j_width.bit_length()
    d_width = d_hi - d_lo + 1
    d_bits = d_width.bit_length()
    duration = b.duration_us
    append = b.conversations.append
    rels = _relations(b.topology)
    stagger = period // (len(rels) + 1)
    for idx, (client, server) in enumerate(rels):
        rng = _rng(b.seed, "poll:%s>%s" % (client.name, server.name))
        getrandbits = rng.getrandbits
        sport = 49152 + idx
        unit = idx + 1
        t0 = b.host_start(client) + 60_000 + idx * stagger
        _handshake(b, rng, t0, client, server, sport, MODBUS_PORT, 1000 + idx, 2000 + idx)
        request, response = frames.modbus_read_poll(
            client.mac, server.mac, client.ip, server.ip, sport, MODBUS_PORT, unit)
        request_len = len(frames.modbus_read_request(0, unit))
        response_len = len(frames.modbus_read_response(0, unit, 0))
        cname, sname = client.name, server.name
        client_seq = 1001 + idx
        server_seq = 2001 + idx
        earliest = t0 + period - jitter  # poll k's request time less its jitter
        k = 0
        while True:
            r = getrandbits(j_bits)
            while r >= j_width:
                r = getrandbits(j_bits)
            req_t = earliest + r
            r = getrandbits(d_bits)
            while r >= d_width:
                r = getrandbits(d_bits)
            if req_t > duration:
                break
            request_end = client_seq + request_len
            append((
                (req_t, cname, sname, request(client_seq, server_seq, k)),
                (req_t + d_lo + r, sname, cname, response(server_seq, request_end, k, k)),
            ))
            client_seq = request_end
            server_seq += response_len
            earliest += period
            k += 1


def _gen_status(b: Plant) -> None:
    period = b.profile.status_period_us
    jitter = int(period * 0.02)
    for dev in b.topology.edge_nodes():
        rng = _rng(b.seed, "status:%s" % dev.name)
        t = b.host_start(dev) + rng.randrange(0, period)
        while t <= b.duration_us:
            b.emit(t, dev.name, None,
                   _status_frame(b, dev.mac, dev.ip, dev.node_id, t, b.profile.psk))
            t += period + rng.randrange(-jitter, jitter + 1)


def _scenario_window(sc: AttackScenario, duration_us: int) -> tuple[int, int]:
    """When a scenario acts, end exclusive: from start to stop or the
    end of the run, but 60 s for a flood without stop and at most 10 s
    for an injection; a learning attack acts from time zero. A
    removed or flooded node is silent for its window."""
    if sc.kind is ScenarioKind.LEARNING_ATTACK:
        return (0, sc.stop_us if sc.stop_us is not None else duration_us + 1)
    end = sc.stop_us if sc.stop_us is not None else duration_us + 1
    if sc.kind is ScenarioKind.DOS_FLOOD and sc.stop_us is None:
        end = min(sc.start_us + 60_000_000, duration_us + 1)
    if sc.kind is ScenarioKind.INJECT:
        end = min(end, sc.start_us + 10_000_000)
    return (sc.start_us, end)


# target of a scenario that names none; PASSIVE_SNIFF has no target
_DEFAULT_TARGET = {
    ScenarioKind.NODE_REMOVED: "S2",
    ScenarioKind.ACTIVE_SNIFF: "PLC",
    ScenarioKind.SPOOF: "S2",
    ScenarioKind.INJECT: "S1",
    ScenarioKind.DOS_FLOOD: "S1",
    ScenarioKind.LEARNING_ATTACK: "S1",
    ScenarioKind.CAPTURE_NODE: "S2",
}


def _resolve_target(sc: AttackScenario) -> str:
    return sc.target if sc.target is not None else _DEFAULT_TARGET[sc.kind]


def _resolve_peer(sc: AttackScenario) -> str:
    # CAPTURE_NODE: the trusted node contacted when the scenario names none
    return sc.peer if sc.peer is not None else "S1"


def _gen_attacks(b: Plant, scenarios: list[AttackScenario]) -> None:
    for index, sc in enumerate(scenarios):
        if sc.kind is ScenarioKind.PASSIVE_SNIFF:
            continue  # a network diode adds nothing to the wire
        rng = _rng(b.seed, "attack:%d:%d" % (index, sc.kind))
        start, end = _scenario_window(sc, b.duration_us)
        end = min(end, b.duration_us + 1)
        target = b.topology.device(_resolve_target(sc))
        attacker = Device(ATTACKER_NAME, Role.ATTACKER, sc.attacker_ip, sc.attacker_mac)

        if sc.kind is ScenarioKind.ACTIVE_SNIFF:
            for t in range(start, end, 1_000_000):
                b.emit(t, attacker.name, None, frames.arp_frame(
                    frames.ArpOp.REPLY, attacker.mac, target.ip,
                    frames.BROADCAST_MAC, target.ip, dst_mac=frames.BROADCAST_MAC,
                ))

        elif sc.kind is ScenarioKind.SPOOF:
            # the victim's address and node id, signed with the wrong key
            for t in range(start, end, b.profile.status_period_us):
                b.emit(t, attacker.name, None, _status_frame(
                    b, attacker.mac, target.ip, target.node_id, t, b"forged-key"
                ))

        elif sc.kind is ScenarioKind.INJECT:
            _gen_intruder_connection(b, rng, attacker, target, 51000, start, end)

        elif sc.kind is ScenarioKind.DOS_FLOOD:
            plc = b.topology.by_role(Role.PLC)
            # every flood frame carries the same bytes
            frame = _tcp(plc, target, 49999, MODBUS_PORT, TCP_PSH | TCP_ACK,
                         frames.modbus_read_request(0xFFFF, 1), 7, 7)
            # one-frame conversations
            src, dst = attacker.name, target.name
            b.conversations += [
                ((t, src, dst, frame),)
                for t in range(start, end, max(1, 1_000_000 // sc.rate_pps))
            ]

        elif sc.kind is ScenarioKind.LEARNING_ATTACK:
            _gen_patient_attacker(b, rng, attacker, target, end)

        elif sc.kind is ScenarioKind.CAPTURE_NODE:
            peer = b.topology.device(_resolve_peer(sc))
            _gen_intruder_connection(b, rng, target, peer, 53000, start, end)


def _gen_intruder_connection(b, rng, src: Device, dst: Device, sport: int,
                             start: int, end: int) -> None:
    """ARP resolution, TCP handshake, then one Modbus write a second,
    each echoed by dst."""
    _arp_exchange(b, rng, start, src, dst)
    syn_t = start + 2_000
    _handshake(b, rng, syn_t, src, dst, sport, MODBUS_PORT, 1, 1)
    seq = 2
    for k, t in enumerate(range(syn_t + 3_000, end, 1_000_000)):
        payload = frames.modbus_write_request(k, 1, 0, 0xFF00)
        echo_t = t + rng.randrange(1_000, 3_000)
        b.emit(t, src.name, dst.name, _tcp(
            src, dst, sport, MODBUS_PORT, TCP_PSH | TCP_ACK, payload, seq, 2
        ), (echo_t, dst.name, src.name, _tcp(
            dst, src, MODBUS_PORT, sport, TCP_PSH | TCP_ACK, payload, 2,
            seq + len(payload),
        )))
        seq += len(payload)


def _gen_patient_attacker(b, rng, attacker: Device, target: Device, end: int) -> None:
    """Attacker present from time zero with steady, learnable traffic."""
    lo, hi = b.profile.arp_expiry_us
    hs = rng.randrange(0, 50_000)
    t = hs
    while t < end:
        _arp_exchange(b, rng, t, attacker, target)
        t += rng.randrange(lo, hi)

    syn_t = hs + 5_000
    # this client's stack acks 1 on every segment it sends
    _handshake(b, rng, syn_t, attacker, target, 52000, 23, 1, 1, client_ack=1)
    t = syn_t + 1_000_000
    seq = 2
    payload = b"\x00\x01\x00\x00\x00\x02\x01\x00"
    while t < end:
        b.emit(t, attacker.name, target.name,
               _tcp(attacker, target, 52000, 23, TCP_PSH | TCP_ACK, payload, seq, 1))
        seq += len(payload)
        t += 1_000_000 + rng.randrange(-10_000, 10_001)


def run(
    topology: Topology | None = None,
    profile: TrafficProfile | None = None,
    scenarios: Iterable[AttackScenario] = (),
    *,
    duration_us: int,
    seed=0,
) -> FrameTrace:
    """Produce the full-domain frame trace for one simulation.

    Pure function of its inputs: identical arguments and seed give a
    byte-identical trace.
    """
    topology = topology or Topology.default()
    profile = profile or TrafficProfile()
    profile.validate()
    if duration_us <= 0:
        raise ConfigInvalid("duration must be positive")
    scenario_list = list(scenarios)
    _validate_scenarios(scenario_list, topology, duration_us)  # before any traffic
    return Plant(topology, profile, duration_us, seed).trace(scenario_list)


def _validate_scenarios(scenarios, topology, duration_us) -> None:
    windows: list[tuple[str, int, int]] = []
    for sc in scenarios:
        if not isinstance(sc.kind, ScenarioKind):
            raise ConfigInvalid("unknown scenario kind %r" % (sc.kind,))
        if not 0 <= sc.start_us <= duration_us:
            raise ConfigInvalid("scenario start outside the simulation horizon")
        if sc.rate_pps < 1:
            raise ConfigInvalid("scenario rate must be at least 1 pps")
        if sc.stop_us is not None and sc.stop_us <= sc.start_us:
            raise ConfigInvalid("scenario stop must come after its start")
        # a frame field would cut or pad a longer or shorter address
        try:
            ipaddress.IPv4Address(sc.attacker_ip)
        except ValueError:
            raise ConfigInvalid("attacker IP %r is not a dotted quad" % sc.attacker_ip) from None
        if not _MAC.fullmatch(sc.attacker_mac):
            raise ConfigInvalid("attacker MAC %r is not six colon-separated octets"
                                % sc.attacker_mac)
        if sc.kind is ScenarioKind.PASSIVE_SNIFF:
            continue
        target = _resolve_target(sc)
        topology.device(target)  # existence check
        if sc.kind is ScenarioKind.CAPTURE_NODE:
            peer = _resolve_peer(sc)
            topology.device(peer)
            if peer == target:
                raise ConfigInvalid("captured node %s cannot contact itself" % target)
        start, end = _scenario_window(sc, duration_us)
        for other_target, o_start, o_end in windows:
            if other_target == target and start < o_end and o_start < end:
                raise ScenarioConflict(
                    "two scenarios touch %s at overlapping times" % target
                )
        windows.append((target, start, end))


# -- interarrival statistics -------------------------------------------


def parse_flow_filter(spec: str):
    """Parse a stats filter.

    Forms:
      tcp:HOST:PORT[:to|:from|:both]  packets of TCP flows with service
                                      endpoint HOST:PORT, optionally one
                                      direction relative to that endpoint
      udp:HOST:PORT[:to|:from|:both]  same for UDP
      arp-req:SENDER_IP[:TARGET_IP]   ARP requests from a sender, one
                                      group per (sender, target) pair
    """
    parts = spec.split(":")
    if parts[0] in ("tcp", "udp"):
        if len(parts) not in (3, 4):
            raise ValueError("want %s:HOST:PORT[:to|:from|:both]" % parts[0])
        direction = parts[3] if len(parts) == 4 else "both"
        if direction not in ("to", "from", "both"):
            raise ValueError("direction must be to, from or both")
        return (parts[0], parts[1], int(parts[2]), direction)
    if parts[0] == "arp-req":
        if len(parts) not in (2, 3):
            raise ValueError("want arp-req:SENDER_IP[:TARGET_IP]")
        return ("arp-req", parts[1], parts[2] if len(parts) == 3 else None)
    raise ValueError("unknown filter %r" % spec)


def _match_filter(parsed, meta) -> str | None:
    if parsed[0] in ("tcp", "udp"):
        proto, host, port, direction = parsed
        want = 6 if proto == "tcp" else 17
        if meta.l3 is None or meta.l3.protocol != want or meta.l3.l4 is None:
            return None
        l4 = meta.l3.l4
        toward = meta.l3.dst_ip == host and l4.dst_port == port
        away = meta.l3.src_ip == host and l4.src_port == port
        if direction == "to" and not toward:
            return None
        if direction == "from" and not away:
            return None
        if not (toward or away):
            return None
        peer = meta.l3.src_ip if toward else meta.l3.dst_ip
        tag = proto if direction == "both" else "%s:%s" % (proto, direction)
        return "%s/%s->%s:%d" % (tag, peer, host, port)
    _, sender, target = parsed
    arp = meta.arp
    if arp is None or arp.op.value != 1 or arp.sender_ip != sender:
        return None
    if target is not None and arp.target_ip != target:
        return None
    return "arp-req/%s->%s" % (arp.sender_ip, arp.target_ip)


def interarrivals(
    records: Iterable[tuple[int, bytes]], flow: str
) -> dict[str, list[tuple[int, int]]]:
    """Per-group (timestamp_us, interarrival_us) pairs for a filter,
    from (timestamp_us, frame) records read once, in order."""
    parsed = parse_flow_filter(flow)
    last_seen: dict[str, int] = {}
    out: dict[str, list[tuple[int, int]]] = {}
    try:
        # every match carries the host's address: the IPv4 source or
        # destination, or the ARP sender, so a frame without it is skipped
        # unparsed
        host = socket.inet_aton(parsed[1])
    except OSError:
        host = None  # not an address: matches nothing, but the input is still read
    for time_us, data in records:
        if host is None or host not in data:
            continue
        try:
            meta = parse_frame(data)
        except ParseError:
            continue
        label = _match_filter(parsed, meta)
        if label is None:
            continue
        previous = last_seen.get(label)
        last_seen[label] = time_us
        if previous is not None:
            out.setdefault(label, []).append((time_us, time_us - previous))
    return out


def stats_csv(records: Iterable[tuple[int, bytes]], flow: str) -> str:
    """Interarrival CSV with columns flow,timestamp_us,interarrival_us.

    Rows start with each group's second packet; a filter matching
    nothing yields just the header.
    """
    lines = ["flow,timestamp_us,interarrival_us"]
    groups = interarrivals(records, flow)
    for label in sorted(groups):
        for ts, gap in groups[label]:
            lines.append("%s,%d,%d" % (label, ts, gap))
    return "\n".join(lines) + "\n"
