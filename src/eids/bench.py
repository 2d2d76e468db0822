"""Scenario benchmark: runs each attack model against a monitored edge
node plus the central logger and reports whether it was detected.

Layout per run: 600 s of trusted learning, the attack starts at 650 s,
the simulation ends at 720 s. The engine runs on sensor S1; the logger
steps through the cloud host's view, as `eids logger` does through its
socket. A scenario counts as detected when the engine raised at least
one intrusion event or the logger marked some node down.
"""

import itertools
import time
from dataclasses import dataclass

from .central import CentralLogger
from .engine import Engine, EngineConfig, IntrusionEvent, replay
from .packet import PROTO_TCP, PROTO_UDP, Direction, ParseError, header_signature, parse_frame
from .sim import (
    AttackScenario,
    FrameTrace,
    Plant,
    ScenarioKind,
    Topology,
    TrafficProfile,
    run,
)

LEARNING_US = 600_000_000
ATTACK_START_US = 650_000_000
DURATION_US = 720_000_000
MONITOR = "S1"
LOGGER_HOST = "Cloud"

_DESCRIPTIONS = {
    ScenarioKind.NODE_REMOVED: "Node removed",
    ScenarioKind.ACTIVE_SNIFF: "Active sniffing",
    ScenarioKind.SPOOF: "Spoofing attack",
    ScenarioKind.INJECT: "Injection attack",
    ScenarioKind.DOS_FLOOD: "DoS attack",
    ScenarioKind.PASSIVE_SNIFF: "Passive sniffing",
    ScenarioKind.LEARNING_ATTACK: "Learning attack",
    ScenarioKind.CAPTURE_NODE: "Capture edge node",
}


@dataclass
class BenchRow:
    kind: ScenarioKind
    variant: str
    description: str
    detected: bool
    expected: bool

    @property
    def ok(self) -> bool:
        return self.detected == self.expected


def _scenario_matrix() -> list[tuple[AttackScenario, str, bool]]:
    s = ATTACK_START_US
    return [
        (AttackScenario(ScenarioKind.NODE_REMOVED, start_us=s, target="S2"), "", True),
        (AttackScenario(ScenarioKind.ACTIVE_SNIFF, start_us=s), "", True),
        (AttackScenario(ScenarioKind.SPOOF, start_us=s, target="S2"), "", True),
        (AttackScenario(ScenarioKind.INJECT, start_us=s, target=MONITOR), "", True),
        (AttackScenario(ScenarioKind.DOS_FLOOD, start_us=s, target=MONITOR), "", True),
        (AttackScenario(ScenarioKind.PASSIVE_SNIFF, start_us=s), "", False),
        (
            AttackScenario(ScenarioKind.LEARNING_ATTACK, target=MONITOR),
            "attacker continues",
            False,
        ),
        (
            AttackScenario(
                ScenarioKind.LEARNING_ATTACK, target=MONITOR, stop_us=LEARNING_US
            ),
            "attacker stops",
            True,
        ),
        (
            AttackScenario(ScenarioKind.CAPTURE_NODE, start_us=s, target="S2", peer=MONITOR),
            "",
            True,
        ),
    ]


@dataclass
class ScenarioResult:
    events: list[IntrusionEvent]
    downs: list[tuple[int, int]]  # (deadline us, node id)
    trace: FrameTrace
    engine: Engine


def run_scenario(
    scenario: AttackScenario | None, seed, profile: TrafficProfile | None = None
) -> ScenarioResult:
    """One full run: simulate, then observe the trace."""
    profile = profile or TrafficProfile()
    scenarios = [scenario] if scenario is not None else []
    trace = run(profile=profile, scenarios=scenarios, duration_us=DURATION_US, seed=seed)
    return _observe(trace, profile)


def _observe(trace: FrameTrace, profile: TrafficProfile) -> ScenarioResult:
    """Drive the monitored engine and the logger from the cloud host's
    view over one trace."""
    monitored = trace.topology.device(MONITOR)
    engine = Engine(
        EngineConfig(
            local_ip=monitored.ip,
            node_id=monitored.node_id,
            learning_duration_us=LEARNING_US,
        )
    )
    events = list(replay(engine, trace.frames_for(MONITOR)))
    downs = _feed_logger(CentralLogger(profile.psk), trace)
    return ScenarioResult(events, downs, trace, engine)


def _feed_logger(logger: CentralLogger, trace: FrameTrace) -> list[tuple[int, int]]:
    """Step the logger at each frame the logger host receives and at the end
    of the run; returns the (deadline us, node id) of each node down."""
    received = ((at_us, _udp_payload(data)) for at_us, direction, data
                in trace.frames_for(LOGGER_HOST) if direction is Direction.RX)
    downs: list[tuple[int, int]] = []
    for at_us, payload in itertools.chain(received, [(DURATION_US, None)]):
        transitions = logger.step(payload, at_us)[0]
        downs += [(t_us, node_id) for t_us, node_id, state in transitions if state == "down"]
    return downs


def _udp_payload(data: bytes) -> bytes | None:
    signature = header_signature(data)
    if signature is not None and signature[1] == PROTO_TCP:
        return None  # most of what the logger host receives: polls
    try:
        l3 = parse_frame(data).l3
    except ParseError:
        return None
    if l3 is None or l3.protocol != PROTO_UDP:
        return None
    end = l3.l4.payload_offset + l3.l4.payload_len
    return data[l3.l4.payload_offset:end] if end <= len(data) else None


def run_benchmark(seed=0) -> tuple[list[BenchRow], float]:
    """Run the full scenario matrix on one benign plant; returns the rows
    and wall seconds."""
    started = time.monotonic()
    profile = TrafficProfile()
    plant = Plant(Topology.default(), profile, DURATION_US, seed)
    rows = []
    for scenario, variant, expected in _scenario_matrix():
        result = _observe(plant.trace([scenario]), profile)
        rows.append(
            BenchRow(
                kind=scenario.kind,
                variant=variant,
                description=_DESCRIPTIONS[scenario.kind],
                detected=bool(result.events) or bool(result.downs),
                expected=expected,
            )
        )
    return rows, time.monotonic() - started


def format_table(rows: list[BenchRow]) -> str:
    lines = ["model  scenario                         detection  expected  result"]
    for row in rows:
        name = row.description
        if row.variant:
            name += " (%s)" % row.variant
        lines.append(
            "%-6d %-32s %-10s %-9s %s"
            % (
                row.kind.value,
                name,
                "detected" if row.detected else "silent",
                "detected" if row.expected else "silent",
                "ok" if row.ok else "MISMATCH",
            )
        )
    return "\n".join(lines) + "\n"
