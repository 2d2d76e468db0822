"""Per-node detection engine: the RX/TX packet path.

The engine owns one flow table and one timing baseline per flow. It
starts in learning mode, where every packet is admitted and only
recorded; a clock tick past the configured learning duration, or a
model import, switches it to active mode, where the Cause that the flow
table or a timing baseline reports goes into an intrusion event as it
is, and ingest answers True for the frame that raised it.

Timing causes come in bursts: a flood breaks its flow's band on every
frame. The first TooFast, TooSlow or MeanDrift on a flow opens a burst
and raises an event whose detail names the band broken. Later frames
that break the flow's band with the same cause answer True and raise
nothing; the flow counts them. The burst closes, with one event of the
burst's cause giving its frame count and the time of its last flagged
frame, when the flow's next interarrival is judged clean, when another
timing cause opens a burst in its place, or when replay runs out of
input (close_bursts). A metadata cause or an unparseable frame raises
one event per frame, and HostSilent one per silence episode. counts()
gives the frames flagged per cause, in a burst or not, and the
silences raised.

Frames carrying a TCP SYN, FIN or RST are connection setup/teardown
and excluded from interarrival sampling in both modes; their timing is
irregular by nature. Packets with a metadata cause never touch timing
state: a hostile frame must not refresh liveness or adjust a baseline.
A capture record earlier than its flow's last one moves neither the
flow's last arrival nor its last sample back.

Events go back to the caller of ingest and tick; the engine keeps no
status summary of them beyond its counts, and no part of eids yet sends
an engine's findings to the central logger.

Callers serialize ingest and tick by timestamp.
"""

from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from math import inf
from socket import inet_aton
from typing import Iterable, Iterator, NamedTuple

from .flows import IP_KINDS, Cause, FlowKey, FlowKind, FlowTable, Mode
from .packet import (
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    Direction,
    PacketMeta,
    ParseError,
    format_ip,
    format_mac,
    header_signature,
    parse_frame,
)
from .timing import FlowBaseline

MODEL_HEADER = "EIDS-MODEL 1"
# header signatures an engine keeps the judgment of: a plant has tens
# of flows; a flood of fresh ports fills the table, which is then
# emptied and refills, so the flows that come back are kept again
SIGNATURE_CAPACITY = 4096

_NO_SAMPLE_FLAGS = TCP_SYN | TCP_FIN | TCP_RST
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


# the members the packet path reads on every frame, bound once: on CPython
# 3.11 reading an Enum member off its class takes about 0.1 us, a module
# global a tenth of that
_TX = Direction.TX
_LEARNING = Mode.LEARNING


# a frame's flow key, metadata cause, event detail and no-sample bit
Judgment = tuple[FlowKey, Cause | None, str, bool]


class BadModelVersion(ValueError):
    pass


class MalformedModelLine(ValueError):
    pass


class IntrusionEvent(NamedTuple):
    at_us: int
    cause: Cause
    flow: FlowKey | None
    detail: str = ""


def checked_delta_milli(delta_milli: int) -> int:
    """delta_milli if it is a tolerance in thousandths that eids runs with."""
    if not 0 <= delta_milli <= 2000:
        raise ValueError("delta out of [0, 2]")
    return delta_milli


@dataclass
class EngineConfig:
    local_ip: str
    node_id: int = 1
    learning_duration_us: int = 600_000_000
    delta: float = 0.3
    delta_arp: float = 1.0
    window: int = 16
    # delta and delta_arp rounded once to thousandths, as a model stores them
    delta_milli: int = field(init=False)
    delta_arp_milli: int = field(init=False)

    def __post_init__(self):
        if self.learning_duration_us <= 0:
            raise ValueError("learning duration must be positive")
        self.delta_milli = checked_delta_milli(round(self.delta * 1000))
        self.delta_arp_milli = checked_delta_milli(round(self.delta_arp * 1000))
        if self.window < 1:
            raise ValueError("window must hold at least one sample")
        if not 0 <= self.node_id <= 0xFFFF:
            raise ValueError("node id out of range")


class Engine:
    def __init__(self, config: EngineConfig):
        self.config = config
        self.table = FlowTable(config.local_ip)
        self.states: dict[FlowKey, FlowBaseline] = {}
        self.mode = Mode.LEARNING
        self.started_us: int | None = None
        # a lower bound on the earliest time a tick can act, inf while none
        # can: replay ticks when a frame or the tail's end reaches it
        self.due_us: int | float = inf
        # header signature -> judgment (see _judge), for sent frames and
        # for all others; see ingest
        self._judged_sent: dict[tuple, Judgment] = {}
        self._judged_other: dict[tuple, Judgment] = {}
        # flagged frames and raised silences per cause, bursts still open left out
        self._counts: dict[Cause, int] = dict.fromkeys(Cause, 0)

    # -- packet path ---------------------------------------------------

    def ingest(
        self, direction: Direction | None, frame: bytes, now_us: int
    ) -> tuple[bool, list[IntrusionEvent]]:
        """Run one frame through the detection path: whether it alerts,
        and the events it raises.

        Learning mode records and never alerts. Active mode returns True
        for a frame that breaks a rule and False for one that does not.
        An alert carries a metadata cause's event; or, for a timing
        cause, the event opening a burst, after the closing event of the
        flow's burst of another cause if one was open; or nothing inside
        the flow's open burst of that cause. A frame that passes carries
        the closing event of the burst it ends, if any. A frame that
        cannot be parsed is itself suspicious and alerts as UNPARSEABLE
        rather than raising. A direction of None means the input does
        not say, as in a pcap capture; the flow table decides the side.

        While the flow table is unchanged, a TCP or UDP frame's flow
        key, its metadata cause and whether it is an interarrival sample
        depend only on whether it is sent and on its
        packet.header_signature. The engine keeps this judgment in two
        tables keyed on the signature, one for sent frames and one for
        received frames and frames of unknown direction, which key a
        TCP/UDP frame alike (flows._endpoints). It keeps them in both
        modes; a frame whose signature is not kept in its direction's
        table, or that has none, is parsed once and judged. Active mode
        never changes the flow table. Learning mode grows it only when
        it admits a flow, which may re-key any signature: such a
        judgment empties both tables and is not kept. A kept learning
        judgment is for an admitted flow, which observe would leave as
        it is, so a hit skips observe. Entering active mode empties both
        tables, since learning judgments carry no cause. A table holding
        SIGNATURE_CAPACITY signatures is emptied before it stores the
        next one. The timing check runs on every frame that the
        metadata rules pass.
        """
        if self.started_us is None:
            self._start(now_us)
        # None, the signature of a frame no table admits, is never stored
        signature = header_signature(frame)
        judged = (self._judged_sent if direction is _TX else self._judged_other).get(signature)
        if judged is None:
            try:
                meta = parse_frame(frame)
            except ParseError as exc:
                if self.mode is _LEARNING:
                    return False, []
                self._counts[Cause.UNPARSEABLE] += 1
                return True, [IntrusionEvent(now_us, Cause.UNPARSEABLE, None, str(exc))]
            judged = self._judge(meta, direction, signature)
        key, cause, detail, unsampled = judged
        if cause is not None:
            self._counts[cause] += 1
            return True, [IntrusionEvent(now_us, cause, key, detail)]

        # the flow's timing
        baseline = self.states.get(key)
        if baseline is None:
            if self.mode is not _LEARNING:
                return False, []
            baseline = self.states[key] = self._new_baseline(key, last_arrival_us=now_us)
        # a record earlier than the flow's last one moves no flow time back
        # and is no sign of life now
        if now_us >= baseline.last_arrival_us:
            baseline.last_arrival_us = now_us
            if baseline.silent:
                # re-armed: the flow's deadline may now be the earliest
                baseline.silent = False
                self.due_us = min(self.due_us, now_us + baseline.high_us)

        if unsampled:
            return False, []

        previous = baseline.last_sample_us
        if previous is None:
            baseline.last_sample_us = now_us
            return False, []
        if now_us > previous:
            baseline.last_sample_us = now_us
        if self.mode is _LEARNING:
            # a reordered or tied capture record is no interarrival sample
            if now_us > previous:
                baseline.record_learning_sample(now_us - previous)
            return False, []
        # a reordered or tied record is 1 us
        t_us = now_us - previous if now_us > previous else 1
        cause = baseline.check(t_us)
        if cause is None:
            baseline.adjust(t_us)
            if baseline.burst is None:
                return False, []
            return False, [self._close_burst(key, baseline, now_us)]
        if cause is baseline.burst:
            # inside the burst: counted on the flow, no event
            baseline.burst_frames += 1
            baseline.burst_last_us = now_us
            return True, []
        events = [] if baseline.burst is None else [self._close_burst(key, baseline, now_us)]
        baseline.burst, baseline.burst_frames, baseline.burst_last_us = cause, 1, now_us
        events.append(IntrusionEvent(now_us, cause, key, baseline.band_detail(cause, t_us)))
        return True, events

    def _judge(
        self, meta: PacketMeta, direction: Direction | None, signature: tuple | None
    ) -> Judgment:
        """A frame's flow key, metadata cause, event detail, which names
        the cause in lower case (new-flow, l2l3-mismatch), and whether it
        is no interarrival sample. The judgment is kept under signature,
        unless None, in the table of the frame's direction, unless making
        it admitted a flow; one that did empties both signature tables."""
        flows = len(self.table.flows)
        key = self.table.key_for(meta, direction)
        # learning mode finds no cause
        cause = self.table.observe(meta, self.mode, key)
        detail = "" if cause is None else cause.name.lower().replace("_", "-")
        l4 = meta.l3.l4 if meta.l3 is not None else None
        # connection setup and teardown are no interarrival sample
        unsampled = l4 is not None and l4.tcp_flags is not None and (
            l4.tcp_flags & _NO_SAMPLE_FLAGS != 0)
        judged = key, cause, detail, unsampled
        if len(self.table.flows) != flows:
            # flows and services grew: key_for may key a kept signature anew
            self._forget_judgments()
        elif signature is not None:
            table = self._judged_sent if direction is _TX else self._judged_other
            if len(table) >= SIGNATURE_CAPACITY:
                table.clear()
            table[signature] = judged
        return judged

    def _forget_judgments(self) -> None:
        """Empty both signature tables."""
        self._judged_sent.clear()
        self._judged_other.clear()

    def _close_burst(self, key: FlowKey, baseline: FlowBaseline, now_us: int) -> IntrusionEvent:
        """The closing event at now_us of the flow's open burst, whose
        frames go into the engine's counts; the flow's latch is cleared."""
        cause, frames = baseline.burst, baseline.burst_frames
        self._counts[cause] += frames
        baseline.burst = None
        return IntrusionEvent(now_us, cause, key, "burst ended: frames=%d last=%dus"
                              % (frames, baseline.burst_last_us))

    def close_bursts(self, now_us: int) -> list[IntrusionEvent]:
        """The closing events at now_us of every open burst, in flow
        insertion order, as the input ends."""
        return [self._close_burst(key, baseline, now_us)
                for key, baseline in self.states.items() if baseline.burst is not None]

    def counts(self) -> dict[Cause, int]:
        """Per cause, the frames flagged, in an open or closed burst or
        alone, and the silences raised, every cause included."""
        counts = dict(self._counts)
        for baseline in self.states.values():
            if baseline.burst is not None:
                counts[baseline.burst] += baseline.burst_frames
        return counts

    def _new_baseline(
        self, key: FlowKey, delta_milli: int | None = None, **fields
    ) -> FlowBaseline:
        """A flow's timing record holding fields; delta_milli, when given,
        overrides the configured tolerance, as a model's TIMING line does."""
        ip = key.kind in IP_KINDS
        if delta_milli is None:
            delta_milli = self.config.delta_milli if ip else self.config.delta_arp_milli
        # ARP and MAC-level flows: cache-expiry superposition makes a
        # short-window mean meaningless, so only the min/max band and
        # the silence check apply to them.
        return FlowBaseline(
            delta_milli, deque(maxlen=self.config.window) if ip else None, **fields
        )

    # -- clock path ----------------------------------------------------

    def tick(self, now_us: int) -> list[IntrusionEvent]:
        """Advance the engine clock.

        Performs the learning-to-active transition and, in active mode,
        the per-flow silence checks. A silent flow is reported once per
        silence episode; traffic on the flow re-arms the check. Once
        active, due_us becomes the earliest deadline, last arrival plus
        the baseline's high edge, of the flows still not silent.
        """
        if self.started_us is None:
            self._start(now_us)
        if (
            self.mode is Mode.LEARNING
            and now_us - self.started_us >= self.config.learning_duration_us
        ):
            self._activate()
        if self.mode is not Mode.ACTIVE:
            return []
        events = []
        due_us = inf
        for key, baseline in self.states.items():
            if baseline.silent:
                continue
            deadline_us = baseline.last_arrival_us + baseline.high_us
            if now_us < deadline_us:
                if deadline_us < due_us:  # a compare, not a min() call per flow
                    due_us = deadline_us
            else:
                baseline.silent = True
                self._counts[Cause.HOST_SILENT] += 1
                events.append(
                    IntrusionEvent(
                        now_us,
                        Cause.HOST_SILENT,
                        key,
                        "silent since %dus" % baseline.last_arrival_us,
                    )
                )
        self.due_us = due_us
        return events

    def _start(self, now_us: int) -> None:
        """Take now_us, the first time the engine is shown, as its start."""
        self.started_us = now_us
        # learning ends a learning duration on; an imported model's flows'
        # silence is measured from the first time the engine is shown
        self.due_us = now_us + (0 if self.mode is Mode.ACTIVE
                                else self.config.learning_duration_us)
        for baseline in self.states.values():
            baseline.last_arrival_us = now_us

    def _activate(self) -> None:
        """Enter active mode, which never adds a baseline and judges timing
        only from a learned interval: flows below two samples lose theirs.
        The signature tables are emptied: learning judgments carry no cause."""
        self.mode = Mode.ACTIVE
        self._forget_judgments()
        self.states = {key: b for key, b in self.states.items() if b.n_l >= 2}
        for baseline in self.states.values():
            baseline.activate()

    # -- model persistence ----------------------------------------------

    def export_model(self) -> bytes:
        """Serialize the flows, bindings and timing envelopes learning found."""
        flow_list, bindings = self.table.export_records()
        lines = [MODEL_HEADER]
        lines.extend(_flow_line("FLOW", key) for key in flow_list)
        lines.extend(_ARP_LINE % binding for binding in bindings)
        for key in flow_list:
            baseline = self.states.get(key)
            if baseline is not None and baseline.n_l >= 2:
                lines.append(_timing_line(key, baseline))
        return ("\n".join(lines) + "\n").encode("ascii")

    def import_model(self, data: bytes) -> None:
        """Load a previously exported model and enter active mode as the
        learning tick does; only valid on an engine that has seen no
        traffic. A line loads only if export_model writes it back byte for
        byte; any other raises MalformedModelLine naming it."""
        if self.started_us is not None or self.states:
            raise RuntimeError("model import after traffic was processed")
        lines = data.decode("ascii", errors="replace").splitlines()
        if not lines or lines[0] != MODEL_HEADER:
            raise BadModelVersion(lines[0] if lines else "empty model")
        for line in lines[1:]:
            if not line:
                continue
            try:
                self._import_line(line)
            except (ValueError, OverflowError, OSError) as exc:
                raise MalformedModelLine(line) from exc
        # checked once all lines are read: FLOW lines may come after TIMING
        unadmitted = sorted(key.render() for key in self.states.keys() - self.table.flows)
        if unadmitted:
            raise MalformedModelLine("TIMING without FLOW: %s" % ", ".join(unadmitted))
        self._activate()

    def _import_line(self, line: str) -> None:
        """Apply one model line; ValueError (a wrong column count too),
        OverflowError or OSError unless export_model writes it back."""
        tag, *columns = line.split("\t")
        if tag == "ARP":
            ip, mac = columns
            ip, mac = format_ip(inet_aton(ip)), _model_mac(mac)
            self.table.bindings[ip] = mac
            written = _ARP_LINE % (ip, mac)
        else:
            kind, peer, local, port, *values = columns
            flow_kind = FlowKind(kind)
            if flow_kind in IP_KINDS:
                key = FlowKey(flow_kind, format_ip(inet_aton(peer)),
                              format_ip(inet_aton(local)), int(port))
            else:
                key = FlowKey(flow_kind, _model_mac(peer))
            if not 0 <= key.service_port <= 0xFFFF:
                raise ValueError("port out of range")
            if tag == "FLOW":
                self.table.flows.add(key)
                written = _flow_line(tag, key)
            elif tag == "TIMING":
                mean_us, min_us, max_us, n_l, delta_milli = map(int, values)
                # learn writes at least two samples and positive times with
                # the mean inside the extrema
                if n_l < 2 or not 1 <= min_us <= mean_us <= max_us:
                    raise ValueError("TIMING value out of range")
                baseline = self.states[key] = self._new_baseline(
                    key, checked_delta_milli(delta_milli), n_l=n_l, _sum_us=mean_us * n_l,
                    learned_min_us=min_us, learned_max_us=max_us)
                written = _timing_line(key, baseline)
            else:
                raise ValueError("unknown tag")
        if written != line:
            raise ValueError("not as learn writes it")


_ARP_LINE = "ARP\t%s\t%s"  # an IP address and the MAC bound to it


def _flow_line(tag: str, key: FlowKey, *values: int) -> str:
    """A FLOW or TIMING model line; a MAC kind's local address is "-"."""
    columns = (tag, key.kind.value, key.peer, key.local_ip or "-", key.service_port, *values)
    return "\t".join(map(str, columns))


def _timing_line(key: FlowKey, baseline: FlowBaseline) -> str:
    return _flow_line("TIMING", key, round(baseline.learning_mean), baseline.learned_min_us,
                      baseline.learned_max_us, baseline.n_l, baseline.delta_milli)


def _model_mac(text: str) -> str:
    """The MAC of six colon-separated octets as parse_frame writes one."""
    raw = bytes.fromhex(text.replace(":", ""))
    if len(raw) != 6:
        raise ValueError("not six octets")
    return format_mac(raw)


@lru_cache(maxsize=256)
def _stamp_second(seconds: int) -> str:
    return (_EPOCH + timedelta(seconds=seconds)).strftime("%Y-%m-%dT%H:%M:%S")


_render_flow = lru_cache(maxsize=1024)(FlowKey.render)


def format_event(event: IntrusionEvent, node_id: int) -> str:
    """One event-log line: ISO8601 time, node, cause, flow, detail."""
    seconds, micros = divmod(event.at_us, 1_000_000)
    flow = _render_flow(event.flow) if event.flow is not None else "-"
    # _value_, enum's documented member attribute, is a plain instance
    # read; .value goes through a Python-level descriptor on every line
    return "%s.%06dZ\t%d\t%s\t%s\t%s" % (
        _stamp_second(seconds), micros, node_id, event.cause._value_, flow, event.detail
    )


def replay(
    engine: Engine,
    frames: Iterable[tuple[int, Direction | None, bytes]],
    tail_us: int = 0,
) -> Iterator[IntrusionEvent]:
    """Drive an engine from a time-ordered frame stream and yield each
    event as it is raised. Before each frame, the engine is ticked at
    engine.due_us for as long as that is at or before the frame's time,
    so the learning end and every silence come at their own deadlines.
    tail_us extends ticking past the last frame so silence at the end of
    a capture is still seen. When the input runs out, after the tail's
    ticks, the bursts still open close at the last frame's time plus
    tail_us, in flow insertion order. Nothing runs until the caller
    iterates."""
    last = None
    for at_us, direction, data in frames:
        # inline, not a helper generator, on this per-frame path: most
        # frames tick nothing
        while engine.due_us <= at_us:
            yield from engine.tick(engine.due_us)
        yield from engine.ingest(direction, data, at_us)[1]
        last = at_us
    if last is not None:
        while engine.due_us <= last + tail_us:
            yield from engine.tick(engine.due_us)
        yield from engine.close_bursts(last + tail_us)
