"""Connection identities and the per-node table of trusted metadata.

Packets are mapped onto normalized flow keys in which the client's
ephemeral port is erased: only the server-side port survives, so a TCP
reconnect with a fresh client port lands on the same key. The table
additionally holds the learned IP-to-MAC bindings and enforces the
metadata consistency rules (binding conflicts, L2/L3 address coherence)
once learning has ended.
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


class FlowKind(Enum):
    TCP = "Tcp"
    UDP = "Udp"
    ARP = "Arp"
    OTHER = "OtherEth"


#: Kinds keyed on the peer's IP address; the others key on its MAC.
IP_KINDS = (FlowKind.TCP, FlowKind.UDP)


class FlowVerdict(Enum):
    KNOWN = "known"
    NEW_FLOW = "new-flow"
    BINDING_CONFLICT = "binding-conflict"
    L2L3_MISMATCH = "l2l3-mismatch"


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
    try:
        return tuple(int(p) for p in ip.split("."))
    except ValueError:
        return (999, ip)


def flow_sort_key(key: FlowKey) -> tuple:
    if key.kind in IP_KINDS:
        peer = _ip_sort_key(key.peer) if key.peer else ()
    else:
        peer = key.peer
    return (
        key.kind.value,
        peer,
        _ip_sort_key(key.local_ip) if key.local_ip else (),
        key.service_port,
    )


def _is_group_mac(mac: str) -> bool:
    # broadcast and multicast: least-significant bit of the first octet
    return bool(int(mac[0:2], 16) & 0x01)


def _endpoints(
    meta: PacketMeta, direction: Direction, local_ip: str
) -> tuple[str, int, str, int]:
    """(peer_ip, peer_port, home_ip, home_port) for a TCP/UDP packet."""
    l3 = meta.l3
    l4 = l3.l4
    if direction is Direction.TX:
        peer_ip, peer_port, home_ip, home_port = l3.dst_ip, l4.dst_port, l3.src_ip, l4.src_port
    else:
        peer_ip, peer_port, home_ip, home_port = l3.src_ip, l4.src_port, l3.dst_ip, l4.dst_port
    if peer_ip == local_ip and home_ip != local_ip:
        peer_ip, peer_port, home_ip, home_port = home_ip, home_port, peer_ip, peer_port
    return peer_ip, peer_port, home_ip, home_port


def derive_key(meta: PacketMeta, direction: Direction, local_ip: str) -> FlowKey:
    """Pure flow-key derivation, no table state.

    The server side of a TCP/UDP conversation is picked from, in order:
    a SYN in the packet itself (plain SYN travels toward the server,
    SYN+ACK away from it), a well-known port on exactly one side (below
    1024, or 502), and finally the numerically smaller port. ARP maps
    to a key per remote MAC; everything else falls back to a MAC-level
    key so link-layer rules still apply.
    """
    if meta.arp is not None:
        peer = meta.arp.sender_mac if direction is Direction.RX else meta.arp.target_mac
        return FlowKey(FlowKind.ARP, peer)
    if meta.l3 is not None and meta.l3.l4 is not None:
        l4 = meta.l3.l4
        kind = FlowKind.TCP if meta.l3.protocol == PROTO_TCP else FlowKind.UDP
        peer_ip, peer_port, home_ip, home_port = _endpoints(meta, direction, local_ip)
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
    peer = meta.src_mac if direction is Direction.RX else meta.dst_mac
    return FlowKey(FlowKind.OTHER, peer)


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

    def key_for(self, meta: PacketMeta, direction: Direction) -> FlowKey:
        """Flow key for a packet, reusing learned server orientation.

        An already-admitted flow or a learned service endpoint decides
        which side carries the service port; the pure heuristic of
        derive_key is the fallback.
        """
        if meta.l3 is None or meta.l3.l4 is None:
            return derive_key(meta, direction, self.local_ip)
        l4 = meta.l3.l4
        kind = FlowKind.TCP if meta.l3.protocol == PROTO_TCP else FlowKind.UDP
        peer_ip, peer_port, home_ip, home_port = _endpoints(meta, direction, self.local_ip)
        by_src = FlowKey(kind, peer_ip, home_ip, l4.src_port)
        by_dst = FlowKey(kind, peer_ip, home_ip, l4.dst_port)
        if by_src in self.flows:
            # equal ports make one candidate, not two admitted ones
            if l4.src_port == l4.dst_port or by_dst not in self.flows:
                return by_src
        elif by_dst in self.flows:
            return by_dst
        src_known = (meta.l3.src_ip, l4.src_port) in self.services
        dst_known = (meta.l3.dst_ip, l4.dst_port) in self.services
        if src_known != dst_known:
            port = l4.src_port if src_known else l4.dst_port
            return FlowKey(kind, peer_ip, home_ip, port)
        return derive_key(meta, direction, self.local_ip)

    def observe(self, meta: PacketMeta, mode: Mode, key: FlowKey) -> FlowVerdict:
        """Judge one packet's metadata, already keyed by key_for, and
        update the table.

        Learning mode admits everything and always answers KNOWN.
        Active mode admits nothing: unseen keys report NEW_FLOW, an ARP
        re-binding of a known IP reports BINDING_CONFLICT, and an
        Ethernet address that contradicts the binding of the packet's
        IP reports L2L3_MISMATCH.
        """
        if mode is Mode.LEARNING:
            self._learn(meta, key)
            return FlowVerdict.KNOWN

        arp = meta.arp
        if arp is not None:
            bound = self.bindings.get(arp.sender_ip)
            if bound is not None:
                if bound != arp.sender_mac:
                    return FlowVerdict.BINDING_CONFLICT
                if bound != meta.src_mac:
                    return FlowVerdict.L2L3_MISMATCH
        elif meta.l3 is not None:
            bound = self.bindings.get(meta.l3.src_ip)
            if bound is not None and bound != meta.src_mac:
                return FlowVerdict.L2L3_MISMATCH
            if not _is_group_mac(meta.dst_mac):
                bound = self.bindings.get(meta.l3.dst_ip)
                if bound is not None and bound != meta.dst_mac:
                    return FlowVerdict.L2L3_MISMATCH
        if key not in self.flows:
            return FlowVerdict.NEW_FLOW
        return FlowVerdict.KNOWN

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

    def admit(self, key: FlowKey) -> None:
        """Directly admit a flow key (model import path)."""
        self.flows.add(key)

    def export_records(self) -> tuple[list[FlowKey], list[tuple[str, str]]]:
        """Deterministically ordered snapshot of flows and (ip, mac)
        bindings."""
        flows = sorted(self.flows, key=flow_sort_key)
        bindings = sorted(self.bindings.items(), key=lambda b: _ip_sort_key(b[0]))
        return flows, bindings
