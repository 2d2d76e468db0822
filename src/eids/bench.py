"""Scenario benchmark: runs each attack model against a monitored edge
node plus the central logger and reports whether it was detected.

Layout per run: 600 s of trusted learning, the attack starts at 650 s,
the simulation ends at 720 s. The engine runs on sensor S1; the logger
consumes the cloud host's view of the status broadcasts. A scenario
counts as detected when the engine raised at least one intrusion event
or the logger marked some node down.
"""

import time
from dataclasses import dataclass

from .central import CentralLogger
from .engine import Engine, EngineConfig, IntrusionEvent, replay
from .packet import PROTO_UDP, Direction, ParseError, parse_frame
from .sim import (
    AttackScenario,
    FrameTrace,
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
    engine_events: list[IntrusionEvent]
    logger_downs: list[int]

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
    downs: list[tuple[int, int]]  # (sweep time us, node id)
    trace: FrameTrace
    engine: Engine
    logger: CentralLogger


def run_scenario(
    scenario: AttackScenario | None,
    seed,
    topology: Topology | None = None,
    profile: TrafficProfile | None = None,
) -> ScenarioResult:
    """One full run: simulate, drive the monitored engine, drive the
    logger from the cloud host's view."""
    topology = topology or Topology.default()
    profile = profile or TrafficProfile()
    scenarios = [scenario] if scenario is not None else []
    trace = run(topology, profile, scenarios, duration_us=DURATION_US, seed=seed)

    monitored = topology.device(MONITOR)
    engine = Engine(
        EngineConfig(
            local_ip=monitored.ip,
            node_id=monitored.node_id,
            learning_duration_us=LEARNING_US,
        )
    )
    events = replay(engine, trace.frames_for(MONITOR))

    logger = CentralLogger(profile.psk)
    downs = _feed_logger(logger, trace)
    return ScenarioResult(events, downs, trace, engine, logger)


def _feed_logger(logger: CentralLogger, trace: FrameTrace) -> list[tuple[int, int]]:
    downs: list[tuple[int, int]] = []
    next_sweep = None
    for at_us, direction, data in trace.frames_for(LOGGER_HOST):
        if direction is not Direction.RX:
            continue
        if next_sweep is None:
            next_sweep = at_us
        while next_sweep <= at_us:
            downs.extend((next_sweep, r.node_id) for r in logger.sweep(next_sweep))
            next_sweep += 1_000_000
        try:
            l3 = parse_frame(data, at_us, direction).l3
        except ParseError:
            continue
        if l3 is None or l3.protocol != PROTO_UDP:
            continue
        start = l3.l4.payload_offset
        end = start + l3.l4.payload_len
        if end <= len(data):
            logger.on_datagram(data[start:end], at_us)
    if next_sweep is not None:
        while next_sweep <= DURATION_US:
            downs.extend((next_sweep, r.node_id) for r in logger.sweep(next_sweep))
            next_sweep += 1_000_000
    return downs


def run_benchmark(seed=0) -> tuple[list[BenchRow], float]:
    """Run the full scenario matrix; returns the rows and wall seconds."""
    started = time.monotonic()
    rows = []
    for scenario, variant, expected in _scenario_matrix():
        result = run_scenario(scenario, seed)
        detected = bool(result.events) or bool(result.downs)
        rows.append(
            BenchRow(
                kind=scenario.kind,
                variant=variant,
                description=_DESCRIPTIONS[scenario.kind],
                detected=detected,
                expected=expected,
                engine_events=result.events,
                logger_downs=[node for _t, node in result.downs],
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
