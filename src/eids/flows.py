"""Connection identities and the per-node table of trusted metadata.

Packets are mapped onto normalized flow keys in which the client's
ephemeral port is erased: only the server-side port survives, so a TCP
reconnect with a fresh client port lands on the same key. The table
additionally holds the learned IP-to-MAC bindings and enforces the
metadata consistency rules (binding conflicts, L2/L3 address coherence)
once learning has ended.

Cause, beside Mode, is the one outcome vocabulary that the table, the
timing baselines and the engine share.
"""

from enum import Enum
from typing import NamedTuple

from .packet import PROTO_TCP, TCP_ACK, TCP_SYN, Direction, PacketMeta

#: Ports treated as a server-side hint when no handshake was observed.
WELL_KNOWN_LIMIT = 1024
MODBUS_PORT = 502


class Mode(Enum):
    LEARNING = "learning"
    ACTIVE = "active"


class Cause(Enum):
    """Why a frame or a tick is suspicious: the metadata causes come from
    FlowTable.observe, the interarrival causes from FlowBaseline.check,
    the silence cause from the engine's tick, and UNPARSEABLE from a
    frame the engine cannot parse, which has no flow."""

    NEW_FLOW = "NewFlow"
    BINDING_CONFLICT = "BindingConflict"
    L2L3_MISMATCH = "L2L3Mismatch"
    TOO_FAST = "TooFast"
    TOO_SLOW = "TooSlow"
    MEAN_DRIFT = "MeanDrift"
    HOST_SILENT = "HostSilent"
    UNPARSEABLE = "Unparseable"


# a str mixin: a FlowKey hashes and compares in C, equal to the plain tuple
# of its fields; render through .value, as format() differs across versions
class FlowKind(str, Enum):
    TCP = "Tcp"
    UDP = "Udp"
    ARP = "Arp"
    OTHER = "OtherEth"


#: Kinds keyed on the peer's IP address; the others key on its MAC.
IP_KINDS = (FlowKind.TCP, FlowKind.UDP)


class FlowKey(NamedTuple):
    kind: FlowKind
    peer: str  # IP address for IP_KINDS, MAC address otherwise
    local_ip: str = ""
    service_port: int = 0

    def render(self) -> str:
        if self.kind in IP_KINDS:
            return "%s/%s->%s:%d" % (
                self.kind.value.lower(),
                self.peer,
                self.local_ip,
                self.service_port,
            )
        return "%s/%s" % (self.kind.value.lower(), self.peer)


def _ip_sort_key(ip: str) -> tuple:
    # a dotted quad: parse_frame and model import admit no other address
    return tuple(int(p) for p in ip.split("."))


def flow_sort_key(key: FlowKey) -> tuple:
    if key.kind in IP_KINDS:
        return (key.kind.value, _ip_sort_key(key.peer), _ip_sort_key(key.local_ip),
                key.service_port)
    return (key.kind.value, key.peer)  # a MAC kind's other two fields are fixed


def _is_group_mac(mac: str) -> bool:
    # broadcast and multicast: least-significant bit of the first octet
    return bool(int(mac[0:2], 16) & 0x01)


def _endpoints(meta: PacketMeta, direction: Direction | None, local_ip: str) -> tuple[str, str]:
    """(peer_ip, home_ip) of a TCP/UDP packet. A direction other than TX
    reads as received, then a peer that is local_ip swaps sides."""
    l3 = meta.l3
    if direction is Direction.TX:
        peer_ip, home_ip = l3.dst_ip, l3.src_ip
    else:
        peer_ip, home_ip = l3.src_ip, l3.dst_ip
    if peer_ip == local_ip and home_ip != local_ip:
        return home_ip, peer_ip
    return peer_ip, home_ip


def derive_key(meta: PacketMeta, direction: Direction | None, local_ip: str) -> FlowKey:
    """Pure flow-key derivation, no table state.

    The server side of a TCP/UDP conversation is picked from, in order:
    a SYN in the packet itself (plain SYN travels toward the server,
    SYN+ACK away from it), a well-known port on exactly one side (below
    1024, or 502), and finally the numerically smaller port. ARP maps
    to a key per remote MAC; everything else falls back to a MAC-level
    key so link-layer rules still apply.

    A direction of None means the input does not say, as in a pcap
    capture: a frame whose ARP sender or IPv4 source is local_ip counts
    as sent, any other as received.
    """
    arp = meta.arp
    if arp is not None:
        sent = arp.sender_ip == local_ip if direction is None else direction is Direction.TX
        return FlowKey(FlowKind.ARP, arp.target_mac if sent else arp.sender_mac)
    l3 = meta.l3
    if l3 is not None and l3.l4 is not None:
        l4 = l3.l4
        kind = FlowKind.TCP if l3.protocol == PROTO_TCP else FlowKind.UDP
        peer_ip, home_ip = _endpoints(meta, direction, local_ip)
        flags = l4.tcp_flags
        if flags is not None and flags & TCP_SYN:
            service = l4.src_port if flags & TCP_ACK else l4.dst_port
        else:
            src_srv = l4.src_port < WELL_KNOWN_LIMIT or l4.src_port == MODBUS_PORT
            dst_srv = l4.dst_port < WELL_KNOWN_LIMIT or l4.dst_port == MODBUS_PORT
            if src_srv != dst_srv:
                service = l4.src_port if src_srv else l4.dst_port
            else:
                service = min(l4.src_port, l4.dst_port)
        return FlowKey(kind, peer_ip, home_ip, service)
    if direction is None:
        sent = l3 is not None and l3.src_ip == local_ip
    else:
        sent = direction is Direction.TX
    return FlowKey(FlowKind.OTHER, meta.dst_mac if sent else meta.src_mac)


class FlowTable:
    """Set of trusted flows plus ARP bindings for one monitored node.

    Single writer: one ingest context mutates the table. Exports build
    fresh lists, so a snapshot taken from elsewhere stays coherent.
    """

    def __init__(self, local_ip: str):
        self.local_ip = local_ip
        self.flows: set[FlowKey] = set()
        self.bindings: dict[str, str] = {}  # ip -> mac
        self.services: set[tuple[str, int]] = set()

    def key_for(self, meta: PacketMeta, direction: Direction | None) -> FlowKey:
        """Flow key for a packet, reusing learned server orientation.

        An already-admitted flow or a learned service endpoint decides
        which side carries the service port; the pure heuristic of
        derive_key is the fallback.
        """
        l3 = meta.l3
        if l3 is None or l3.l4 is None:
            return derive_key(meta, direction, self.local_ip)
        l4 = l3.l4
        kind = FlowKind.TCP if l3.protocol == PROTO_TCP else FlowKind.UDP
        peer_ip, home_ip = _endpoints(meta, direction, self.local_ip)
        # plain tuples probe the set: they hash and compare as FlowKeys do
        src_port, dst_port, flows = l4.src_port, l4.dst_port, self.flows
        if (kind, peer_ip, home_ip, src_port) in flows:
            # equal ports make one candidate, not two admitted ones
            if src_port == dst_port or (kind, peer_ip, home_ip, dst_port) not in flows:
                return FlowKey(kind, peer_ip, home_ip, src_port)
        elif (kind, peer_ip, home_ip, dst_port) in flows:
            return FlowKey(kind, peer_ip, home_ip, dst_port)
        src_known = (l3.src_ip, src_port) in self.services
        dst_known = (l3.dst_ip, dst_port) in self.services
        if src_known != dst_known:
            return FlowKey(kind, peer_ip, home_ip, src_port if src_known else dst_port)
        return derive_key(meta, direction, self.local_ip)

    def observe(self, meta: PacketMeta, mode: Mode, key: FlowKey) -> Cause | None:
        """Judge one packet's metadata, already keyed by key_for, and
        update the table; None means a known flow.

        Learning mode admits everything and always answers None.
        Active mode admits nothing: unseen keys report NEW_FLOW, an ARP
        re-binding of a known IP reports BINDING_CONFLICT, and an
        Ethernet address that contradicts the binding of the packet's
        IP reports L2L3_MISMATCH.
        """
        if mode is Mode.LEARNING:
            self._learn(meta, key)
            return None

        arp = meta.arp
        if arp is not None:
            bound = self.bindings.get(arp.sender_ip)
            if bound is not None:
                if bound != arp.sender_mac:
                    return Cause.BINDING_CONFLICT
                if bound != meta.src_mac:
                    return Cause.L2L3_MISMATCH
        elif meta.l3 is not None:
            bound = self.bindings.get(meta.l3.src_ip)
            if bound is not None and bound != meta.src_mac:
                return Cause.L2L3_MISMATCH
            if not _is_group_mac(meta.dst_mac):
                bound = self.bindings.get(meta.l3.dst_ip)
                if bound is not None and bound != meta.dst_mac:
                    return Cause.L2L3_MISMATCH
        if key not in self.flows:
            return Cause.NEW_FLOW
        return None

    def _learn(self, meta: PacketMeta, key: FlowKey) -> None:
        if meta.arp is not None:
            self.bindings[meta.arp.sender_ip] = meta.arp.sender_mac
        if key not in self.flows:
            self.flows.add(key)
            if key.kind in IP_KINDS:
                l4 = meta.l3.l4
                if l4.src_port == key.service_port:
                    self.services.add((meta.l3.src_ip, l4.src_port))
                if l4.dst_port == key.service_port:
                    self.services.add((meta.l3.dst_ip, l4.dst_port))

    def export_records(self) -> tuple[list[FlowKey], list[tuple[str, str]]]:
        """Deterministically ordered snapshot of flows and (ip, mac)
        bindings."""
        flows = sorted(self.flows, key=flow_sort_key)
        bindings = sorted(self.bindings.items(), key=lambda b: _ip_sort_key(b[0]))
        return flows, bindings
