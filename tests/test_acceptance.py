"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line. Run with `pytest -s tests/test_acceptance.py` to see
the lines; tolerances are fixed here, not tuned elsewhere.
"""

import contextlib
import io
import math
import random
import statistics
from collections import deque
from fractions import Fraction

from eids import cli, sim
from eids.announce import (
    AnnounceError,
    ReplayState,
    StatusMessage,
    decode_verify,
    encode,
)
from eids.bench import ATTACK_START_US, run_benchmark, run_scenario
from eids.central import DEFAULT_TIMEOUT_US, CentralLogger
from eids.engine import Cause, Engine, EngineConfig, replay
from eids.packet import PROTO_UDP, parse_frame
from eids.timing import FlowBaseline

S = 1_000_000
S1_IP = "192.168.1.101"
PSK = b"acceptance-psk"


def _report(criterion: str, ok: bool, detail: str):
    print("[%s] criterion %s: %s" % ("PASS" if ok else "FAIL", criterion, detail))
    assert ok, "criterion %s failed: %s" % (criterion, detail)


# 1 -- detection matrix ------------------------------------------------


def test_criterion_1_detection_matrix():
    rows, elapsed = run_benchmark(seed=0)
    by_key = {(row.kind.value, row.variant): row.detected for row in rows}
    expected = {
        (1, ""): True,
        (2, ""): True,
        (3, ""): True,
        (4, ""): True,
        (5, ""): True,
        (6, ""): False,
        (7, "attacker continues"): False,
        (7, "attacker stops"): True,
        (8, ""): True,
    }
    matches = by_key == expected
    _report(
        "1 detection matrix",
        matches and elapsed < 60.0,
        "matrix %s, wall %.1fs (< 60s)" % ("exact" if matches else by_key, elapsed),
    )


# 2 -- benign false positives -----------------------------------------


def test_criterion_2_benign_false_positives(benign_trace_30m):
    engine = Engine(
        EngineConfig(local_ip=S1_IP, node_id=1, learning_duration_us=600 * S)
    )
    events = list(replay(engine, benign_trace_30m.frames_for("S1")))
    _report(
        "2 benign false positives",
        engine.mode.value == "active" and events == [],
        "30 min benign trace, 10 min learning: %d events" % len(events),
    )


# 3 -- timing statistics -----------------------------------------------


def test_criterion_3_timing_statistics(trace_2h):
    poll_groups = sim.interarrivals(trace_2h.records(), "tcp:%s:502:to" % S1_IP)
    poll_gaps = [gap for _t, gap in next(iter(poll_groups.values()))]
    poll_mean_ms = statistics.mean(poll_gaps) / 1000
    poll_ok = 95.0 <= poll_mean_ms <= 105.0

    arp_groups = sim.interarrivals(trace_2h.records(), "arp-req:%s" % S1_IP)
    arp_gaps = [gap for _t, gap in next(iter(arp_groups.values()))]
    arp_mean_s = statistics.mean(arp_gaps) / 1e6
    arp_ok = 270.0 * 0.85 <= arp_mean_s <= 270.0 * 1.15

    csv = sim.stats_csv(trace_2h.records(), "tcp:%s:502" % S1_IP)
    pooled = [int(line.rsplit(",", 1)[1]) for line in csv.strip().split("\n")[1:]]
    below_10ms = sum(1 for gap in pooled if gap < 10_000) / len(pooled)
    near_period = sum(1 for gap in pooled if 50_000 <= gap <= 150_000) / len(pooled)
    bimodal_ok = below_10ms >= 0.30 and near_period >= 0.30

    _report(
        "3 timing statistics",
        poll_ok and arp_ok and bimodal_ok,
        "poll mean %.2f ms (100 +/- 5), arp mean %.1f s (270 +/- 15%%), "
        "mass <10ms %.0f%%, near period %.0f%% (both >= 30%%)"
        % (poll_mean_ms, arp_mean_s, below_10ms * 100, near_period * 100),
    )


# 4 -- band arithmetic conformance -------------------------------------


class _ExactReference:
    """Recomputes the window sum from the raw samples on every packet and
    holds it against bands taken from the raw learning list, all in
    exact rational arithmetic."""

    def __init__(self, learning, delta_milli, capacity):
        delta = Fraction(delta_milli, 1000)
        learned_mean = Fraction(sum(learning), len(learning))
        self.lo = min(learning) * (1 - delta)
        self.hi = max(learning) * (1 + delta)
        self.sum_lo = capacity * learned_mean * (1 - delta)
        self.sum_hi = capacity * learned_mean * (1 + delta)
        self.capacity = capacity
        self.window = []

    def check(self, t):
        if t <= self.lo:
            return Cause.TOO_FAST
        if t >= self.hi:
            return Cause.TOO_SLOW
        self.window.append(t)
        self.window = self.window[-self.capacity :]
        if len(self.window) == self.capacity:
            window_sum = sum(self.window)
            if window_sum <= self.sum_lo or window_sum >= self.sum_hi:
                return Cause.MEAN_DRIFT
        return None


def test_criterion_4_band_conformance():
    rng = random.Random(0xEED5)
    disagreements = 0
    checked = 0
    for _ in range(1000):
        learning = [rng.randrange(1, 1_000_000) for _ in range(rng.randrange(2, 17))]
        delta_milli = rng.choice([0, 50, 300, 1000, 1500, rng.randrange(1000)])
        baseline = FlowBaseline(delta_milli=delta_milli, window=deque(maxlen=16))
        for sample in learning:
            baseline.record_learning_sample(sample)
        baseline.activate()
        reference = _ExactReference(learning, delta_milli, 16)
        for _ in range(1000):
            # a third of the values fall on or beside an exact min/max edge
            t = max(1, rng.choice((
                rng.randrange(1, 2_000_000),
                math.floor(reference.lo) + rng.randrange(-1, 2),
                math.ceil(reference.hi) + rng.randrange(-1, 2),
            )))
            checked += 1
            if baseline.check(t) is not reference.check(t):
                disagreements += 1
    _report(
        "4 band conformance",
        checked == 1_000_000 and disagreements == 0,
        "%d randomized checks, %d disagreements" % (checked, disagreements),
    )


# 5 -- announce protocol ------------------------------------------------


def test_criterion_5_announce_protocol():
    wire = encode(StatusMessage(2, 1_000, False, True, 0), PSK)
    rejections = 0
    for bit in range(128):
        mutated = bytearray(wire)
        mutated[bit // 8] ^= 1 << (bit % 8)
        try:
            decode_verify(bytes(mutated), PSK, ReplayState())
        except AnnounceError:
            rejections += 1
    sweep_ok = rejections == 128

    replay_state = ReplayState()
    decode_verify(wire, PSK, replay_state)
    try:
        decode_verify(wire, PSK, replay_state)
        replay_ok = False
    except AnnounceError:
        replay_ok = True

    logger = CentralLogger(PSK)
    for k in range(12):
        at = k * 10 * S
        logger.on_datagram(
            encode(StatusMessage(2, at // 1000 + 1, False, True, 0), PSK), at
        )
        logger.sweep(at + 9 * S)
    cadence_ok = logger.records[2].up

    last = 11 * 10 * S
    assert logger.sweep(last + 19 * S) == []
    down = logger.sweep(last + 20 * S)
    timeout_ok = [r.node_id for r in down] == [2]

    listing = CentralLogger(PSK)
    listing.on_datagram(encode(StatusMessage(1, 1, False, True, 0), PSK), 0)
    listing.on_datagram(encode(StatusMessage(2, 25_000, False, True, 0), PSK), 25 * S)
    listing.on_datagram(encode(StatusMessage(3, 25_001, True, True, 0), PSK), 25 * S)
    listing.sweep(26 * S)
    rendered = listing.render_status()
    render_ok = rendered == (
        "ID: 1 is down Intrusion: ???\n"
        "ID: 2 is up Intrusion: no\n"
        "ID: 3 is up Intrusion: yes\n"
    )

    _report(
        "5 announce protocol",
        sweep_ok and replay_ok and cadence_ok and timeout_ok and render_ok,
        "bit flips rejected %d/128, replay %s, 10s cadence up %s, "
        "20s silence down %s, reference rendering %s"
        % (rejections, replay_ok, cadence_ok, timeout_ok, render_ok),
    )


# 6 -- DoS detection latency --------------------------------------------


def test_criterion_6_dos_latency():
    flood = sim.AttackScenario(
        sim.ScenarioKind.DOS_FLOOD, start_us=ATTACK_START_US, target="S1",
        rate_pps=1000,
    )
    result = run_scenario(flood, seed=0)
    too_fast = [e.at_us for e in result.events if e.cause is Cause.TOO_FAST]
    first = min(too_fast) if too_fast else None
    ok = first is not None and first - ATTACK_START_US <= 10_000
    _report(
        "6 dos latency",
        ok,
        "first TooFast %.3f ms after attack start (<= 10 ms)"
        % ((first - ATTACK_START_US) / 1000 if first is not None else -1),
    )


# 7 -- node removal -----------------------------------------------------


def _is_udp(data):
    l3 = parse_frame(data).l3
    return l3 is not None and l3.protocol == PROTO_UDP


def test_criterion_7_node_removal():
    removal = sim.AttackScenario(
        sim.ScenarioKind.NODE_REMOVED, start_us=ATTACK_START_US, target="S2"
    )
    result = run_scenario(removal, seed=0)
    s2 = result.trace.topology.device("S2")

    silents = [
        e for e in result.events
        if e.cause is Cause.HOST_SILENT and e.flow is not None
        and e.flow.peer == s2.ip
    ]
    # S2's last status broadcast, which the engine and the logger both hear
    last_seen = max(
        time_us for time_us, src, _dst, data in result.trace.frames
        if src == "S2" and _is_udp(data)
    )
    engine_ok = False
    detail_engine = "no HostSilent for the removed node"
    if silents:
        event = min(silents, key=lambda e: e.at_us)
        baseline = result.engine.states[event.flow]
        bound = baseline.high_us
        latency = event.at_us - last_seen
        engine_ok = latency <= bound
        detail_engine = "HostSilent %.2f s after last status (bound %.2f s)" % (
            latency / 1e6, bound / 1e6,
        )

    down_times = [t for t, node in result.downs if node == s2.node_id]
    logger_ok = False
    detail_logger = "logger never marked the node down"
    if down_times:
        latency = min(down_times) - last_seen
        logger_ok = latency <= DEFAULT_TIMEOUT_US
        detail_logger = "logger down %.2f s after last status (timeout %.2f s)" % (
            latency / 1e6, DEFAULT_TIMEOUT_US / 1e6,
        )

    _report("7 node removal", engine_ok and logger_ok,
            detail_engine + "; " + detail_logger)


# 8 -- determinism ------------------------------------------------------


def _pipeline(seed, workdir):
    """simulate -> pcap -> `eids learn` and `eids detect --learn-first`."""
    scenario = sim.AttackScenario(
        sim.ScenarioKind.DOS_FLOOD, start_us=40 * S, target="S1", rate_pps=1000,
        stop_us=45 * S,
    )
    trace = sim.run(duration_us=60 * S, seed=seed, scenarios=[scenario])
    workdir.mkdir()
    pcap = workdir / "s1.pcap"
    with open(pcap, "wb") as handle:
        trace.write_pcap(handle, viewpoint="S1")
    model = workdir / "s1.model"
    cli.main(["learn", "--pcap", str(pcap), "-o", str(model)])
    lines = io.StringIO()
    with contextlib.redirect_stdout(lines):
        cli.main(["detect", "--learn-first", "30", "--pcap", str(pcap)])
    return pcap.read_bytes(), model.read_bytes(), lines.getvalue()


def test_criterion_8_determinism(tmp_path):
    first = _pipeline(7, tmp_path / "first")
    second = _pipeline(7, tmp_path / "second")
    stages_equal = [a == b for a, b in zip(first, second)]
    _report(
        "8 determinism",
        all(stages_equal) and first[2],  # the detect stage saw the flood
        "pcap/model/event-log byte equality: %s" % stages_equal,
    )
