"""Per-node detection engine: the RX/TX packet path.

The engine owns one flow table and one timing baseline per flow. It
starts in learning mode, where every packet is admitted and only
recorded; a clock tick past the configured learning duration switches
it to active mode, where metadata and timing verdicts turn into
intrusion events. With ips_mode set the engine answers DROP instead of
ALERT for intrusive packets, so a caller wired into the stack's
receive/send path can discard them before the application sees them.

Frames carrying a TCP SYN, FIN or RST are connection setup/teardown
and excluded from interarrival sampling in both modes; their timing is
irregular by nature. Packets whose metadata verdict is not KNOWN never
touch timing state: a hostile frame must not refresh liveness or
adjust a baseline.

Callers serialize ingest and tick by timestamp. status() reads are
safe from elsewhere in the sense that they only read a snapshot plus a
latch that clears on read.
"""

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Iterable

from .flows import FlowKey, FlowKind, FlowTable, FlowVerdict, Mode
from .packet import (
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    Direction,
    PacketMeta,
    ParseError,
    parse_frame,
)
from .timing import ActiveWindow, FlowBaseline, TimingVerdict

MODEL_HEADER = "EIDS-MODEL 1"
TICK_PERIOD_US = 100_000

_NO_SAMPLE_FLAGS = TCP_SYN | TCP_FIN | TCP_RST
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


class Cause(Enum):
    NEW_FLOW = "NewFlow"
    BINDING_CONFLICT = "BindingConflict"
    L2L3_MISMATCH = "L2L3Mismatch"
    TOO_FAST = "TooFast"
    TOO_SLOW = "TooSlow"
    MEAN_DRIFT = "MeanDrift"
    HOST_SILENT = "HostSilent"


class Verdict(Enum):
    PASS = "pass"
    ALERT = "alert"
    DROP = "drop"


_FLOW_CAUSE = {
    FlowVerdict.NEW_FLOW: Cause.NEW_FLOW,
    FlowVerdict.BINDING_CONFLICT: Cause.BINDING_CONFLICT,
    FlowVerdict.L2L3_MISMATCH: Cause.L2L3_MISMATCH,
}

_TIMING_CAUSE = {
    TimingVerdict.TOO_FAST: Cause.TOO_FAST,
    TimingVerdict.TOO_SLOW: Cause.TOO_SLOW,
    TimingVerdict.MEAN_DRIFT: Cause.MEAN_DRIFT,
}


class BadModelVersion(ValueError):
    pass


class MalformedModelLine(ValueError):
    pass


@dataclass(frozen=True)
class IntrusionEvent:
    at_us: int
    cause: Cause
    flow: FlowKey | None
    detail: str = ""


@dataclass
class NodeStatus:
    mode: Mode
    intrusion: bool
    flow_count: int


@dataclass
class EngineConfig:
    local_ip: str
    node_id: int = 1
    learning_duration_us: int = 600_000_000
    delta: float = 0.3
    delta_arp: float = 1.0
    window: int = 16
    alpha: float = 1.0 / 256.0
    ips_mode: bool = False

    def __post_init__(self):
        if self.learning_duration_us <= 0:
            raise ValueError("learning duration must be positive")
        for value in (self.delta, self.delta_arp):
            if not 0.0 <= value < 2.0:
                raise ValueError("delta out of [0, 2)")
        if self.window < 1:
            raise ValueError("window must hold at least one sample")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha out of [0, 1]")
        if not 0 <= self.node_id <= 0xFFFF:
            raise ValueError("node id out of range")


@dataclass
class _FlowState:
    baseline: FlowBaseline
    window: ActiveWindow | None
    timing_on: bool = False
    silent: bool = False
    last_sample_us: int | None = None


class Engine:
    def __init__(self, config: EngineConfig):
        self.config = config
        self.table = FlowTable(config.local_ip)
        self.states: dict[FlowKey, _FlowState] = {}
        self.mode = Mode.LEARNING
        self.started_us: int | None = None
        self.events_total = 0
        self._intrusion_latch = False

    # -- packet path ---------------------------------------------------

    def ingest(
        self, direction: Direction, frame: bytes, now_us: int
    ) -> tuple[Verdict, list[IntrusionEvent]]:
        """Run one frame through the detection path.

        Learning mode records and always passes. Active mode returns
        ALERT (or DROP under ips_mode) with one event per triggered
        cause. A frame that cannot be parsed is itself suspicious and
        alerts rather than raising.
        """
        self._note_time(now_us)
        try:
            meta = parse_frame(frame, now_us, direction)
        except ParseError as exc:
            if self.mode is Mode.LEARNING:
                return Verdict.PASS, []
            events = [
                IntrusionEvent(now_us, Cause.NEW_FLOW, None, "unparseable: %s" % exc)
            ]
            return self._finish(events)

        key = self.table.key_for(meta)
        flow_verdict = self.table.observe(meta, self.mode, key=key)
        events: list[IntrusionEvent] = []
        if self.mode is Mode.ACTIVE and flow_verdict is not FlowVerdict.KNOWN:
            events.append(
                IntrusionEvent(now_us, _FLOW_CAUSE[flow_verdict], key, flow_verdict.value)
            )

        if flow_verdict is FlowVerdict.KNOWN:
            events.extend(self._track_timing(meta, key, now_us))

        if self.mode is Mode.LEARNING:
            return Verdict.PASS, []
        return self._finish(events)

    def _track_timing(
        self, meta: PacketMeta, key: FlowKey, now_us: int
    ) -> list[IntrusionEvent]:
        state = self.states.get(key)
        if state is None:
            if self.mode is not Mode.LEARNING:
                return []
            state = self._new_state(key)
            self.states[key] = state
        state.baseline.last_arrival_us = now_us
        state.silent = False

        l4 = meta.l3.l4 if meta.l3 is not None else None
        if l4 is not None and l4.tcp_flags is not None and l4.tcp_flags & _NO_SAMPLE_FLAGS:
            return []

        previous = state.last_sample_us
        state.last_sample_us = now_us
        if previous is None:
            return []
        t_us = max(1, now_us - previous)  # capture-resolution ties clamp to 1 us
        if self.mode is Mode.LEARNING:
            state.baseline.record_learning_sample(t_us)
            return []
        if not state.timing_on:
            return []
        verdict = state.baseline.check(t_us, state.window)
        if verdict is TimingVerdict.OK:
            state.baseline.adjust(t_us, self.config.alpha)
            return []
        return [
            IntrusionEvent(
                now_us, _TIMING_CAUSE[verdict], key, "dt=%dus" % t_us
            )
        ]

    def _new_state(self, key: FlowKey) -> _FlowState:
        if key.kind in (FlowKind.TCP, FlowKind.UDP):
            delta = self.config.delta
            window = ActiveWindow(self.config.window)
        else:
            # ARP and MAC-level flows: cache-expiry superposition makes a
            # short-window mean meaningless, so only the min/max band and
            # the silence check apply to them.
            delta = self.config.delta_arp
            window = None
        return _FlowState(baseline=FlowBaseline(delta=delta), window=window)

    def _finish(self, events: list[IntrusionEvent]) -> tuple[Verdict, list[IntrusionEvent]]:
        if not events:
            return Verdict.PASS, []
        self.events_total += len(events)
        self._intrusion_latch = True
        verdict = Verdict.DROP if self.config.ips_mode else Verdict.ALERT
        return verdict, events

    # -- clock path ----------------------------------------------------

    def tick(self, now_us: int) -> list[IntrusionEvent]:
        """Advance the engine clock.

        Performs the learning-to-active transition and, in active mode,
        the per-flow silence checks. A silent flow is reported once per
        silence episode; traffic on the flow re-arms the check.
        """
        self._note_time(now_us)
        if (
            self.mode is Mode.LEARNING
            and self.started_us is not None
            and now_us - self.started_us >= self.config.learning_duration_us
        ):
            self._activate()
        if self.mode is not Mode.ACTIVE:
            return []
        events = []
        for key, state in self.states.items():
            if not state.timing_on or state.silent:
                continue
            if state.baseline.last_arrival_us is None:
                # imported baseline: measure silence from detection start
                state.baseline.last_arrival_us = now_us
                continue
            if state.baseline.absence(now_us) is not None:
                state.silent = True
                events.append(
                    IntrusionEvent(
                        now_us,
                        Cause.HOST_SILENT,
                        key,
                        "silent since %dus" % state.baseline.last_arrival_us,
                    )
                )
        if events:
            self.events_total += len(events)
            self._intrusion_latch = True
        return events

    def _note_time(self, now_us: int) -> None:
        if self.started_us is None:
            self.started_us = now_us

    def _activate(self) -> None:
        self.mode = Mode.ACTIVE
        for state in self.states.values():
            state.timing_on = state.baseline.activate()

    # -- status --------------------------------------------------------

    def status(self, now_us: int) -> NodeStatus:
        """Node status snapshot; the intrusion flag reads and clears."""
        intrusion = self._intrusion_latch
        self._intrusion_latch = False
        return NodeStatus(
            mode=self.mode, intrusion=intrusion, flow_count=len(self.table.flows)
        )

    # -- model persistence ----------------------------------------------

    def export_model(self) -> bytes:
        """Serialize learned flows, bindings and timing baselines."""
        flow_list, bindings = self.table.export_records()
        lines = [MODEL_HEADER]
        for key in flow_list:
            lines.append(
                "FLOW\t%s\t%s\t%s\t%d"
                % (key.kind.value, _peer_field(key), key.local_ip or "-", key.service_port)
            )
        for ip, mac in bindings:
            lines.append("ARP\t%s\t%s" % (ip, mac))
        for key in flow_list:
            state = self.states.get(key)
            if state is None or state.baseline.n_l < 2:
                continue
            baseline = state.baseline
            mean = baseline.mean_us if baseline.ready else baseline.learning_mean
            lines.append(
                "TIMING\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d"
                % (
                    key.kind.value,
                    _peer_field(key),
                    key.local_ip or "-",
                    key.service_port,
                    round(mean),
                    baseline.learned_min_us,
                    baseline.learned_max_us,
                    baseline.n_l,
                    round(baseline.delta * 1000),
                )
            )
        return ("\n".join(lines) + "\n").encode("ascii")

    def import_model(self, data: bytes) -> None:
        """Load a previously exported model and go straight to active
        mode. Only valid on an engine that has not processed traffic."""
        if self.started_us is not None or self.states:
            raise RuntimeError("model import after traffic was processed")
        lines = data.decode("ascii", errors="replace").splitlines()
        if not lines or lines[0] != MODEL_HEADER:
            raise BadModelVersion(lines[0] if lines else "empty model")
        for line in lines[1:]:
            if not line:
                continue
            fields = line.split("\t")
            try:
                self._import_line(fields)
            except (ValueError, KeyError) as exc:
                if isinstance(exc, (BadModelVersion, MalformedModelLine)):
                    raise
                raise MalformedModelLine(line) from exc
        self.mode = Mode.ACTIVE

    def _import_line(self, fields: list[str]) -> None:
        tag = fields[0]
        if tag == "FLOW":
            if len(fields) != 5:
                raise MalformedModelLine("\t".join(fields))
            self.table.admit(_parse_flow_key(fields[1:5]))
        elif tag == "ARP":
            if len(fields) != 3:
                raise MalformedModelLine("\t".join(fields))
            self.table.bindings[fields[1]] = fields[2]
        elif tag == "TIMING":
            if len(fields) != 10:
                raise MalformedModelLine("\t".join(fields))
            key = _parse_flow_key(fields[1:5])
            baseline = FlowBaseline.from_persisted(
                mean_us=int(fields[5]),
                min_us=int(fields[6]),
                max_us=int(fields[7]),
                n_l=int(fields[8]),
                delta=int(fields[9]) / 1000.0,
            )
            window = (
                ActiveWindow(self.config.window)
                if key.kind in (FlowKind.TCP, FlowKind.UDP)
                else None
            )
            self.states[key] = _FlowState(
                baseline=baseline, window=window, timing_on=baseline.ready
            )
        else:
            raise MalformedModelLine("\t".join(fields))


def _peer_field(key: FlowKey) -> str:
    # IP flows persist the peer address; MAC-keyed kinds persist the MAC
    if key.kind in (FlowKind.TCP, FlowKind.UDP):
        return key.peer_ip
    return key.peer_mac


def _parse_flow_key(fields: list[str]) -> FlowKey:
    kind = FlowKind(fields[0])
    local = "" if fields[2] == "-" else fields[2]
    port = int(fields[3])
    if kind in (FlowKind.TCP, FlowKind.UDP):
        return FlowKey(kind, peer_ip=fields[1], local_ip=local, service_port=port)
    return FlowKey(kind, peer_mac=fields[1], local_ip=local, service_port=port)


def format_event(event: IntrusionEvent, node_id: int) -> str:
    """One event-log line: ISO8601 time, node, cause, flow, detail."""
    stamp = (_EPOCH + timedelta(microseconds=event.at_us)).strftime(
        "%Y-%m-%dT%H:%M:%S.%f"
    ) + "Z"
    flow = event.flow.render() if event.flow is not None else "-"
    return "%s\t%d\t%s\t%s\t%s" % (stamp, node_id, event.cause.value, flow, event.detail)


def replay(
    engine: Engine,
    frames: Iterable[tuple[int, Direction, bytes]],
    tail_us: int = 0,
) -> list[IntrusionEvent]:
    """Drive an engine from a time-ordered frame stream, interleaving
    clock ticks every TICK_PERIOD_US. tail_us extends ticking past the
    last frame so silence at the end of a capture is still seen."""
    events: list[IntrusionEvent] = []
    next_tick: int | None = None
    last = None
    for at_us, direction, data in frames:
        if next_tick is None:
            next_tick = at_us
        while next_tick <= at_us:
            events.extend(engine.tick(next_tick))
            next_tick += TICK_PERIOD_US
        _, new_events = engine.ingest(direction, data, at_us)
        events.extend(new_events)
        last = at_us
    if last is not None and next_tick is not None:
        end = last + tail_us
        while next_tick <= end:
            events.extend(engine.tick(next_tick))
            next_tick += TICK_PERIOD_US
    return events
