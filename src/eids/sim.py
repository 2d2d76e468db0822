"""Deterministic discrete-event simulator of a polling ICS network.

The simulated plant is a single broadcast domain: a PLC cyclically
polls eight sensors and one actuator over Modbus/TCP every 100 ms, an
HMI and a SCADA host poll the PLC at the same cadence, hosts refresh
their ARP caches on per-host expiry clocks, and every edge node
broadcasts an authenticated status datagram every 10 s. Eight attack
scenarios can be injected on top. Given equal inputs and seed, the
produced frame trace is byte-identical: every stream draws from its
own seeded generator, so adding a scenario never perturbs benign
traffic.

Times are integer microseconds of simulated time starting at zero; no
wall clock is involved anywhere.
"""

import random
from dataclasses import dataclass, field
from enum import Enum, IntEnum
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
    plc_timeout_us: int = 1_000_000
    arp_expiry_us: tuple[int, int] = (180_000_000, 360_000_000)
    status_period_us: int = 10_000_000
    status_port: int = announce.DEFAULT_PORT
    psk: bytes = DEFAULT_PSK

    def validate(self) -> None:
        durations = (
            self.poll_period_us,
            self.response_delay_us[0],
            self.plc_timeout_us,
            self.arp_expiry_us[0],
            self.status_period_us,
        )
        if any(d <= 0 for d in durations):
            raise ConfigInvalid("durations must be positive")
        if self.response_delay_us[0] > self.response_delay_us[1]:
            raise ConfigInvalid("response delay range inverted")
        if self.arp_expiry_us[0] > self.arp_expiry_us[1]:
            raise ConfigInvalid("arp expiry range inverted")
        if not 0.0 <= self.jitter_frac < 0.5:
            raise ConfigInvalid("jitter fraction out of range")
        if not self.psk:
            raise ConfigInvalid("empty PSK")


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


@dataclass(frozen=True)
class TraceFrame:
    time_us: int
    src: str
    dst: str | None  # None = broadcast
    data: bytes


@dataclass
class FrameTrace:
    topology: Topology
    frames: list[TraceFrame] = field(default_factory=list)

    def frames_for(self, device_name: str) -> Iterator[tuple[int, Direction, bytes]]:
        """One device's view of the wire: its own frames as TX, frames
        addressed to it plus all foreign broadcasts as RX. Unicast
        between other hosts is invisible, as on a switched network."""
        for fr in self.frames:
            if fr.src == device_name:
                yield fr.time_us, Direction.TX, fr.data
            elif fr.dst == device_name or (fr.dst is None and fr.src != device_name):
                yield fr.time_us, Direction.RX, fr.data

    def write_pcap(self, stream: BinaryIO, viewpoint: str | None = None) -> int:
        if viewpoint is None:
            records = ((fr.time_us, fr.data) for fr in self.frames)
        else:
            records = ((t, data) for t, _d, data in self.frames_for(viewpoint))
        return write_pcap(stream, records)


def _rng(seed, tag: str) -> random.Random:
    return random.Random("%s:%s" % (seed, tag))


class _Builder:
    def __init__(self, topology, profile, duration_us, seed):
        self.topology = topology
        self.profile = profile
        self.duration_us = duration_us
        self.seed = seed
        self.frames: list[TraceFrame] = []
        self.suppressed: dict[str, list[tuple[int, int]]] = {}

    def suppress(self, device: str, start_us: int, end_us: int) -> None:
        self.suppressed.setdefault(device, []).append((start_us, end_us))

    def alive(self, device: str, t_us: int) -> bool:
        for start, end in self.suppressed.get(device, ()):
            if start <= t_us < end:
                return False
        return True

    def emit(self, t_us: int, src: str, dst: str | None, data: bytes) -> bool:
        if t_us > self.duration_us or not self.alive(src, t_us):
            return False
        self.frames.append(TraceFrame(t_us, src, dst, data))
        return True

    def host_start(self, device: Device) -> int:
        return _rng(self.seed, "host:%s" % device.name).randrange(0, 50_000)


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


def _gen_arp(b: _Builder) -> None:
    peers = _arp_peers(b.topology)
    for dev in b.topology.devices:
        rng = _rng(b.seed, "arp:%s" % dev.name)
        my_peers = peers[dev.name]
        if not my_peers:
            continue
        lo, hi = b.profile.arp_expiry_us
        t = b.host_start(dev)
        while t <= b.duration_us:
            # whole-cache refresh: one request per peer, closely spaced
            for j, peer in enumerate(my_peers):
                req_t = t + j * 2_500 + rng.randrange(0, 500)
                reply_delay = rng.randrange(300, 1_200)
                sent = b.emit(
                    req_t,
                    dev.name,
                    None,
                    frames.arp_frame(
                        frames.ArpOp.REQUEST, dev.mac, dev.ip, frames.ZERO_MAC, peer.ip
                    ),
                )
                if sent:
                    b.emit(
                        req_t + reply_delay,
                        peer.name,
                        dev.name,
                        frames.arp_frame(
                            frames.ArpOp.REPLY, peer.mac, peer.ip, dev.mac, dev.ip
                        ),
                    )
            t += rng.randrange(lo, hi)


def _gen_polling(b: _Builder) -> None:
    period = b.profile.poll_period_us
    jitter = int(period * b.profile.jitter_frac)
    d_lo, d_hi = b.profile.response_delay_us
    rels = _relations(b.topology)
    stagger = period // (len(rels) + 1)
    for idx, (client, server) in enumerate(rels):
        rng = _rng(b.seed, "poll:%s>%s" % (client.name, server.name))
        sport = 49152 + idx
        unit = idx + 1
        t0 = b.host_start(client) + 60_000 + idx * stagger
        client_seq = 1000 + idx
        server_seq = 2000 + idx

        def tcp(src, dst, s_port, d_port, flags, payload, seq, ack):
            return frames.tcp_frame(
                src.mac, dst.mac, src.ip, dst.ip, s_port, d_port, flags,
                payload, seq=seq, ack=ack,
            )

        b.emit(t0, client.name, server.name,
               tcp(client, server, sport, MODBUS_PORT, TCP_SYN, b"", client_seq, 0))
        syn_ack_t = t0 + rng.randrange(200, 800)
        b.emit(syn_ack_t, server.name, client.name,
               tcp(server, client, MODBUS_PORT, sport, TCP_SYN | TCP_ACK, b"",
                   server_seq, client_seq + 1))
        b.emit(syn_ack_t + rng.randrange(150, 500), client.name, server.name,
               tcp(client, server, sport, MODBUS_PORT, TCP_ACK, b"",
                   client_seq + 1, server_seq + 1))
        client_seq += 1
        server_seq += 1

        k = 0
        while True:
            req_t = t0 + (k + 1) * period + rng.randrange(-jitter, jitter + 1)
            delay = rng.randrange(d_lo, d_hi + 1)
            if req_t > b.duration_us:
                break
            request = frames.modbus_read_request(k, unit)
            sent = b.emit(req_t, client.name, server.name,
                          tcp(client, server, sport, MODBUS_PORT, TCP_PSH | TCP_ACK,
                              request, client_seq, server_seq))
            client_seq += len(request)
            response = frames.modbus_read_response(k, unit, k & 0xFF)
            if sent:
                b.emit(req_t + delay, server.name, client.name,
                       tcp(server, client, MODBUS_PORT, sport, TCP_PSH | TCP_ACK,
                           response, server_seq, client_seq))
            server_seq += len(response)
            k += 1


def _gen_status(b: _Builder) -> None:
    period = b.profile.status_period_us
    jitter = int(period * 0.02)
    for dev in b.topology.edge_nodes():
        rng = _rng(b.seed, "status:%s" % dev.name)
        t = b.host_start(dev) + rng.randrange(0, period)
        while t <= b.duration_us:
            payload = announce.encode(
                announce.StatusMessage(
                    node_id=dev.node_id,
                    msg_time_ms=t // 1000,
                    intrusion=False,
                    active=True,
                    event_count=0,
                ),
                b.profile.psk,
            )
            b.emit(
                t,
                dev.name,
                None,
                frames.udp_frame(
                    dev.mac, frames.BROADCAST_MAC, dev.ip, frames.BROADCAST_IP,
                    b.profile.status_port, b.profile.status_port, payload,
                ),
            )
            t += period + rng.randrange(-jitter, jitter + 1)


def _scenario_window(sc: AttackScenario, duration_us: int) -> tuple[int, int]:
    if sc.kind is ScenarioKind.LEARNING_ATTACK:
        return (0, sc.stop_us if sc.stop_us is not None else duration_us + 1)
    end = sc.stop_us if sc.stop_us is not None else duration_us + 1
    if sc.kind is ScenarioKind.DOS_FLOOD and sc.stop_us is None:
        end = min(sc.start_us + 60_000_000, duration_us + 1)
    return (sc.start_us, end)


def _resolve_target(sc: AttackScenario, topology: Topology) -> str:
    if sc.target is not None:
        return sc.target
    defaults = {
        ScenarioKind.NODE_REMOVED: "S2",
        ScenarioKind.ACTIVE_SNIFF: "PLC",
        ScenarioKind.SPOOF: "S2",
        ScenarioKind.INJECT: "S1",
        ScenarioKind.DOS_FLOOD: "S1",
        ScenarioKind.LEARNING_ATTACK: "S1",
        ScenarioKind.CAPTURE_NODE: "S2",
    }
    return defaults.get(sc.kind, "S1")


def _gen_attacks(b: _Builder, scenarios: list[AttackScenario]) -> None:
    for index, sc in enumerate(scenarios):
        rng = _rng(b.seed, "attack:%d:%d" % (index, sc.kind))
        start, end = _scenario_window(sc, b.duration_us)
        end = min(end, b.duration_us + 1)
        if sc.kind is ScenarioKind.PASSIVE_SNIFF:
            continue  # a network diode adds nothing to the wire
        target = b.topology.device(_resolve_target(sc, b.topology))

        if sc.kind is ScenarioKind.ACTIVE_SNIFF:
            t = start
            while t < end:
                b.emit(t, ATTACKER_NAME, None, frames.arp_frame(
                    frames.ArpOp.REPLY, sc.attacker_mac, target.ip,
                    frames.BROADCAST_MAC, target.ip, dst_mac=frames.BROADCAST_MAC,
                ))
                t += 1_000_000

        elif sc.kind is ScenarioKind.SPOOF:
            t = start
            while t < end:
                payload = announce.encode(
                    announce.StatusMessage(target.node_id, t // 1000, False, True, 0),
                    b"forged-key",
                )
                b.emit(t, ATTACKER_NAME, None, frames.udp_frame(
                    sc.attacker_mac, frames.BROADCAST_MAC, target.ip,
                    frames.BROADCAST_IP, b.profile.status_port,
                    b.profile.status_port, payload,
                ))
                t += b.profile.status_period_us

        elif sc.kind is ScenarioKind.INJECT:
            _gen_intruder_connection(
                b, rng, sc.attacker_mac, sc.attacker_ip, ATTACKER_NAME, target,
                dst_port=MODBUS_PORT, sport=51000,
                start=start, end=min(end, start + 10_000_000), write=True,
            )

        elif sc.kind is ScenarioKind.DOS_FLOOD:
            plc = b.topology.by_role(Role.PLC)
            spacing = max(1, 1_000_000 // sc.rate_pps)
            payload = frames.modbus_read_request(0xFFFF, 1)
            t = start
            while t < end:
                b.emit(t, ATTACKER_NAME, target.name, frames.tcp_frame(
                    plc.mac, target.mac, plc.ip, target.ip, 49999, MODBUS_PORT,
                    TCP_PSH | TCP_ACK, payload, seq=7, ack=7,
                ))
                t += spacing

        elif sc.kind is ScenarioKind.LEARNING_ATTACK:
            _gen_patient_attacker(b, rng, sc, target, end)

        elif sc.kind is ScenarioKind.CAPTURE_NODE:
            peer = b.topology.device(sc.peer or "S1")
            _gen_intruder_connection(
                b, rng, target.mac, target.ip, target.name, peer,
                dst_port=MODBUS_PORT, sport=53000,
                start=start, end=end, write=True,
            )


def _gen_intruder_connection(
    b, rng, src_mac, src_ip, src_name, target, dst_port, sport, start, end, write
):
    """ARP resolution, TCP handshake, then periodic write commands."""
    b.emit(start, src_name, None, frames.arp_frame(
        frames.ArpOp.REQUEST, src_mac, src_ip, frames.ZERO_MAC, target.ip,
    ))
    b.emit(start + rng.randrange(300, 1_200), target.name, src_name, frames.arp_frame(
        frames.ArpOp.REPLY, target.mac, target.ip, src_mac, src_ip,
    ))

    def tcp(flags, payload, seq, ack):
        return frames.tcp_frame(
            src_mac, target.mac, src_ip, target.ip, sport, dst_port, flags,
            payload, seq=seq, ack=ack,
        )

    syn_t = start + 2_000
    b.emit(syn_t, src_name, target.name, tcp(TCP_SYN, b"", 1, 0))
    syn_ack_t = syn_t + rng.randrange(200, 800)
    b.emit(syn_ack_t, target.name, src_name, frames.tcp_frame(
        target.mac, src_mac, target.ip, src_ip, dst_port, sport,
        TCP_SYN | TCP_ACK, b"", seq=1, ack=2,
    ))
    b.emit(syn_ack_t + rng.randrange(150, 500), src_name, target.name,
           tcp(TCP_ACK, b"", 2, 2))

    t = syn_t + 3_000
    k = 0
    seq = 2
    while t < end:
        payload = (
            frames.modbus_write_request(k, 1, 0, 0xFF00)
            if write
            else frames.modbus_read_request(k, 1)
        )
        sent = b.emit(t, src_name, target.name,
                      tcp(TCP_PSH | TCP_ACK, payload, seq, 2))
        if sent:
            b.emit(t + rng.randrange(1_000, 3_000), target.name, src_name,
                   frames.tcp_frame(
                       target.mac, src_mac, target.ip, src_ip, dst_port, sport,
                       TCP_PSH | TCP_ACK, payload, seq=2, ack=seq + len(payload),
                   ))
        seq += len(payload)
        t += 1_000_000
        k += 1


def _gen_patient_attacker(b, rng, sc, target, end) -> None:
    """Attacker present from time zero with steady, learnable traffic."""
    lo, hi = b.profile.arp_expiry_us
    hs = rng.randrange(0, 50_000)
    t = hs
    while t < end:
        sent = b.emit(t, ATTACKER_NAME, None, frames.arp_frame(
            frames.ArpOp.REQUEST, sc.attacker_mac, sc.attacker_ip,
            frames.ZERO_MAC, target.ip,
        ))
        if sent:
            b.emit(t + rng.randrange(300, 1_200), target.name, ATTACKER_NAME,
                   frames.arp_frame(
                       frames.ArpOp.REPLY, target.mac, target.ip,
                       sc.attacker_mac, sc.attacker_ip,
                   ))
        t += rng.randrange(lo, hi)

    def tcp(flags, payload, seq):
        return frames.tcp_frame(
            sc.attacker_mac, target.mac, sc.attacker_ip, target.ip, 52000, 23,
            flags, payload, seq=seq, ack=1,
        )

    syn_t = hs + 5_000
    b.emit(syn_t, ATTACKER_NAME, target.name, tcp(TCP_SYN, b"", 1))
    syn_ack_t = syn_t + rng.randrange(200, 800)
    b.emit(syn_ack_t, target.name, ATTACKER_NAME, frames.tcp_frame(
        target.mac, sc.attacker_mac, target.ip, sc.attacker_ip, 23, 52000,
        TCP_SYN | TCP_ACK, b"", seq=1, ack=2,
    ))
    b.emit(syn_ack_t + rng.randrange(150, 500), ATTACKER_NAME, target.name,
           tcp(TCP_ACK, b"", 2))

    t = syn_t + 1_000_000
    seq = 2
    while t < end:
        payload = b"\x00\x01\x00\x00\x00\x02\x01\x00"
        b.emit(t, ATTACKER_NAME, target.name, tcp(TCP_PSH | TCP_ACK, payload, seq))
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
    _validate_scenarios(scenario_list, topology, duration_us)

    builder = _Builder(topology, profile, duration_us, seed)
    for sc in scenario_list:
        if sc.kind is ScenarioKind.NODE_REMOVED:
            builder.suppress(_resolve_target(sc, topology), sc.start_us, duration_us + 1)
        elif sc.kind is ScenarioKind.DOS_FLOOD:
            start, end = _scenario_window(sc, duration_us)
            builder.suppress(_resolve_target(sc, topology), start, end)

    _gen_arp(builder)
    _gen_polling(builder)
    _gen_status(builder)
    _gen_attacks(builder, scenario_list)

    indexed = sorted(enumerate(builder.frames), key=lambda p: (p[1].time_us, p[0]))
    return FrameTrace(topology=topology, frames=[fr for _, fr in indexed])


def _validate_scenarios(scenarios, topology, duration_us) -> None:
    windows: list[tuple[str, int, int]] = []
    for sc in scenarios:
        if not isinstance(sc.kind, ScenarioKind):
            raise ConfigInvalid("unknown scenario kind %r" % (sc.kind,))
        if not 0 <= sc.start_us <= duration_us:
            raise ConfigInvalid("scenario start outside the simulation horizon")
        if sc.kind is ScenarioKind.PASSIVE_SNIFF:
            continue
        target = _resolve_target(sc, topology)
        topology.device(target)  # existence check
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


def interarrivals(trace: FrameTrace, flow: str) -> dict[str, list[tuple[int, int]]]:
    """Per-group (timestamp_us, interarrival_us) pairs for a filter."""
    parsed = parse_flow_filter(flow)
    last_seen: dict[str, int] = {}
    out: dict[str, list[tuple[int, int]]] = {}
    for fr in trace.frames:
        try:
            meta = parse_frame(fr.data, fr.time_us, Direction.RX)
        except ParseError:
            continue
        label = _match_filter(parsed, meta)
        if label is None:
            continue
        previous = last_seen.get(label)
        last_seen[label] = fr.time_us
        if previous is not None:
            out.setdefault(label, []).append((fr.time_us, fr.time_us - previous))
    return out


def stats_csv(trace: FrameTrace, flow: str) -> str:
    """Interarrival CSV with columns flow,timestamp_us,interarrival_us.

    Rows start with each group's second packet; a filter matching
    nothing yields just the header.
    """
    lines = ["flow,timestamp_us,interarrival_us"]
    groups = interarrivals(trace, flow)
    for label in sorted(groups):
        for ts, gap in groups[label]:
            lines.append("%s,%d,%d" % (label, ts, gap))
    return "\n".join(lines) + "\n"
