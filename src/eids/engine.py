"""Per-node detection engine: the RX/TX packet path.

The engine owns one flow table and one timing baseline per flow. It
starts in learning mode, where every packet is admitted and only
recorded; a clock tick past the configured learning duration switches
it to active mode, where metadata and timing verdicts turn into
intrusion events and the frame that raised them is answered ALERT.

Frames carrying a TCP SYN, FIN or RST are connection setup/teardown
and excluded from interarrival sampling in both modes; their timing is
irregular by nature. Packets whose metadata verdict is not KNOWN never
touch timing state: a hostile frame must not refresh liveness or
adjust a baseline.

Events go back to the caller of ingest and tick; the engine keeps no
status summary of them, and no part of eids yet sends an engine's
findings to the central logger.

Callers serialize ingest and tick by timestamp.
"""

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Iterable, Iterator

from .flows import IP_KINDS, FlowKey, FlowKind, FlowTable, FlowVerdict, Mode
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
class EngineConfig:
    local_ip: str
    node_id: int = 1
    learning_duration_us: int = 600_000_000
    delta: float = 0.3
    delta_arp: float = 1.0
    window: int = 16
    alpha: float = 1.0 / 256.0

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


class Engine:
    def __init__(self, config: EngineConfig):
        self.config = config
        self.table = FlowTable(config.local_ip)
        self.states: dict[FlowKey, FlowBaseline] = {}
        self.mode = Mode.LEARNING
        self.started_us: int | None = None

    # -- packet path ---------------------------------------------------

    def ingest(
        self, direction: Direction | None, frame: bytes, now_us: int
    ) -> tuple[Verdict, list[IntrusionEvent]]:
        """Run one frame through the detection path.

        Learning mode records and always passes. Active mode returns
        ALERT with one event per triggered cause, or PASS with none. A
        frame that cannot be parsed is itself suspicious and alerts
        rather than raising.

        A direction of None means the input does not say, as in a pcap
        capture: a frame whose IPv4 source or ARP sender is the node's
        own address counts as sent (TX), any other as received (RX).
        """
        self._note_time(now_us)
        try:
            meta = parse_frame(frame)
        except ParseError as exc:
            if self.mode is Mode.LEARNING:
                return Verdict.PASS, []
            return Verdict.ALERT, [
                IntrusionEvent(now_us, Cause.NEW_FLOW, None, "unparseable: %s" % exc)
            ]

        if direction is None:
            local_ip = self.config.local_ip
            sent = (meta.l3 is not None and meta.l3.src_ip == local_ip) or (
                meta.arp is not None and meta.arp.sender_ip == local_ip
            )
            direction = Direction.TX if sent else Direction.RX
        key = self.table.key_for(meta, direction)
        flow_verdict = self.table.observe(meta, self.mode, key)
        events: list[IntrusionEvent] = []
        if self.mode is Mode.ACTIVE and flow_verdict is not FlowVerdict.KNOWN:
            events.append(
                IntrusionEvent(now_us, _FLOW_CAUSE[flow_verdict], key, flow_verdict.value)
            )

        if flow_verdict is FlowVerdict.KNOWN:
            events.extend(self._track_timing(meta, key, now_us))

        if self.mode is Mode.LEARNING:
            return Verdict.PASS, []
        return (Verdict.ALERT if events else Verdict.PASS), events

    def _track_timing(
        self, meta: PacketMeta, key: FlowKey, now_us: int
    ) -> list[IntrusionEvent]:
        baseline = self.states.get(key)
        if baseline is None:
            if self.mode is not Mode.LEARNING:
                return []
            baseline = self.states[key] = self._new_baseline(key)
        baseline.last_arrival_us = now_us
        baseline.silent = False

        l4 = meta.l3.l4 if meta.l3 is not None else None
        if l4 is not None and l4.tcp_flags is not None and l4.tcp_flags & _NO_SAMPLE_FLAGS:
            return []

        previous = baseline.last_sample_us
        baseline.last_sample_us = now_us
        if previous is None:
            return []
        t_us = max(1, now_us - previous)  # capture-resolution ties clamp to 1 us
        if self.mode is Mode.LEARNING:
            baseline.record_learning_sample(t_us)
            return []
        if not baseline.ready:
            return []
        verdict = baseline.check(t_us)
        if verdict is TimingVerdict.OK:
            baseline.adjust(t_us, self.config.alpha)
            return []
        return [
            IntrusionEvent(
                now_us, _TIMING_CAUSE[verdict], key, "dt=%dus" % t_us
            )
        ]

    def _new_baseline(self, key: FlowKey, delta: float | None = None) -> FlowBaseline:
        """A flow's empty timing record; delta, when given, overrides
        the configured tolerance, as a model's TIMING line does."""
        if key.kind in IP_KINDS:
            return FlowBaseline(
                self.config.delta if delta is None else delta,
                ActiveWindow(self.config.window),
            )
        # ARP and MAC-level flows: cache-expiry superposition makes a
        # short-window mean meaningless, so only the min/max band and
        # the silence check apply to them.
        return FlowBaseline(self.config.delta_arp if delta is None else delta)

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
        for key, baseline in self.states.items():
            if not baseline.ready or baseline.silent:
                continue
            if baseline.last_arrival_us is None:
                # imported baseline: measure silence from detection start
                baseline.last_arrival_us = now_us
                continue
            if now_us - baseline.last_arrival_us >= baseline.high_us:
                baseline.silent = True
                events.append(
                    IntrusionEvent(
                        now_us,
                        Cause.HOST_SILENT,
                        key,
                        "silent since %dus" % baseline.last_arrival_us,
                    )
                )
        return events

    def _note_time(self, now_us: int) -> None:
        if self.started_us is None:
            self.started_us = now_us

    def _activate(self) -> None:
        self.mode = Mode.ACTIVE
        for baseline in self.states.values():
            baseline.activate()

    # -- model persistence ----------------------------------------------

    def export_model(self) -> bytes:
        """Serialize learned flows, bindings and timing baselines."""
        flow_list, bindings = self.table.export_records()
        lines = [MODEL_HEADER]
        for key in flow_list:
            lines.append("FLOW\t" + _key_columns(key))
        for ip, mac in bindings:
            lines.append("ARP\t%s\t%s" % (ip, mac))
        for key in flow_list:
            baseline = self.states.get(key)
            if baseline is None or baseline.n_l < 2:
                continue
            mean = baseline.mean_us if baseline.ready else baseline.learning_mean
            lines.append(
                "TIMING\t%s\t%d\t%d\t%d\t%d\t%d"
                % (
                    _key_columns(key),
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
            if _MODEL_FIELDS.get(fields[0]) != len(fields):
                raise MalformedModelLine(line)
            try:
                self._import_line(fields)
            except ValueError as exc:
                raise MalformedModelLine(line) from exc
        self.mode = Mode.ACTIVE

    def _import_line(self, fields: list[str]) -> None:
        """Apply one model line whose field count import_model checked."""
        tag = fields[0]
        if tag == "ARP":
            self.table.bindings[fields[1]] = fields[2]
            return
        key = _parse_flow_key(*fields[1:5])
        if tag == "FLOW":
            self.table.admit(key)
        else:
            baseline = self._new_baseline(key, int(fields[9]) / 1000.0)
            baseline.restore(
                mean_us=int(fields[5]),
                min_us=int(fields[6]),
                max_us=int(fields[7]),
                n_l=int(fields[8]),
            )
            self.states[key] = baseline


# fields per model line, the tag included
_MODEL_FIELDS = {"FLOW": 5, "ARP": 3, "TIMING": 10}


def _key_columns(key: FlowKey) -> str:
    """A flow key's four model columns: kind, peer, local address, port."""
    return "%s\t%s\t%s\t%d" % (
        key.kind.value, key.peer, key.local_ip or "-", key.service_port
    )


def _parse_flow_key(kind: str, peer: str, local: str, port: str) -> FlowKey:
    return FlowKey(FlowKind(kind), peer, "" if local == "-" else local, int(port))


def format_event(event: IntrusionEvent, node_id: int) -> str:
    """One event-log line: ISO8601 time, node, cause, flow, detail."""
    stamp = (_EPOCH + timedelta(microseconds=event.at_us)).strftime(
        "%Y-%m-%dT%H:%M:%S.%f"
    ) + "Z"
    flow = event.flow.render() if event.flow is not None else "-"
    return "%s\t%d\t%s\t%s\t%s" % (stamp, node_id, event.cause.value, flow, event.detail)


def replay(
    engine: Engine,
    frames: Iterable[tuple[int, Direction | None, bytes]],
    tail_us: int = 0,
) -> Iterator[IntrusionEvent]:
    """Drive an engine from a time-ordered frame stream, interleaving
    clock ticks every TICK_PERIOD_US, and yield each event as it is
    raised. tail_us extends ticking past the last frame so silence at
    the end of a capture is still seen. Nothing runs until the caller
    iterates."""
    next_tick: int | None = None
    last = None
    for at_us, direction, data in frames:
        if next_tick is None:
            next_tick = at_us
        while next_tick <= at_us:
            yield from engine.tick(next_tick)
            next_tick += TICK_PERIOD_US
        yield from engine.ingest(direction, data, at_us)[1]
        last = at_us
    if last is not None and next_tick is not None:
        end = last + tail_us
        while next_tick <= end:
            yield from engine.tick(next_tick)
            next_tick += TICK_PERIOD_US
