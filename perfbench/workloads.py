"""The three workloads: input generation from a seed, timed passes, a
memory pass and the correctness checks counted into error_share.

Every workload is closed-loop and single-process: the next unit of
work starts when the previous one returns. Plant rates (about 21 fps
at S1, 220 fps at the PLC, 1000 pps for the flood) are far below what
the engine sustains, so an open loop at plant rate would time sleeps;
each workload instead reports work per second at a fixed input size,
plus a per-unit latency.

The program is driven only through public entry points:
``bench.run_scenario``, ``cli.main``, ``Engine.ingest``/``tick``/
``import_model`` and ``CentralLogger.on_datagram``/``sweep``. Inputs
come from ``sim.run`` (via ``bench.run_scenario`` for the flood) and
``announce.encode`` with the run's seed.
"""

import bisect
import contextlib
import io
import json
import os
import random
import struct
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from time import perf_counter, perf_counter_ns

from eids import announce, bench, cli, sim
from eids.central import CentralLogger
from eids.engine import Engine, EngineConfig
from eids.pcap import write_pcap

S = 1_000_000
TICK_US = 100_000  # the tick period engine.replay uses
PLC_IP = "192.168.1.50"
S1_IP = "192.168.1.101"
STORM_PSK = b"perfbench-storm-psk"
STORM_TIMEOUT_US = 20 * S
STORM_CADENCE_US = 10 * S
STORM_SILENT_SHARE = 0.1  # nodes that fall silent mid-run
STORM_HOSTILE_SHARE = 0.5  # of all datagrams
STORM_WINDOW = 1000  # datagrams per timed stretch of a logger pass
RECORD = struct.Struct("<qH")  # arrival us and length of a stored datagram
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Size:
    """Generator parameters. FULL is what the benchmark measures; the
    self-check runs a scaled-down copy. s1-flood's run length, learning
    phase and flood start are the scenario bench's own (720 s, 600 s,
    650 s). Each timed CLI call takes a slice of a fixed number of
    consecutive frames, so that a run holds many short timings."""

    plc_s: int = 240  # simulated seconds of the benign plant, PLC view
    plc_learn_s: int = 180  # its learning split
    plc_arp_expiry_s: tuple[int, int] = (45, 90)  # each binding refreshes 2-4 times in learning
    slice_frames: int = 500  # frames per timed `eids learn` or `eids detect --model` call
    slices: int = 20  # timed calls of each kind per pass
    inline_repeats: int = 2  # inline passes over the same frames per pass
    flood_pps: int = 1000
    flood_s: int = 20  # seconds of the flood the detector is given
    flood_arp_expiry_s: tuple[int, int] = (180, 360)  # TrafficProfile default
    storm_nodes: int = 500
    storm_s: int = 120
    setups: int = 3  # least set-ups per run; setup_s is their median


def profile(arp_expiry_s: tuple[int, int]) -> sim.TrafficProfile:
    lo, hi = arp_expiry_s
    return sim.TrafficProfile(arp_expiry_us=(lo * S, hi * S))


FULL = Size()


@dataclass
class Tally:
    """Judged units and wrong ones, against generator ground truth."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    tripped: set[str] = field(default_factory=set)

    def judge(self, what: str, units: int, wrong: int) -> None:
        self.attempted += units
        self.failed += wrong
        if wrong:
            self.problems.append("%s: %d wrong of %d" % (what, wrong, units))
            self.tripped.add(what)


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of sorted samples; with fewer than 100
    samples p99 is the maximum."""
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass
class Pass:
    """One timed pass of a workload's repeated job. Every pass makes the
    same timed calls on the same inputs, in the same order."""

    # (units of work, seconds) of each timed call, under the name of the
    # rate the calls make, such as learn_fps
    calls: dict[str, list[tuple[int, float]]]
    total_s: float  # every timed part, for the tracing overhead


class Workload:
    """Inputs from a seed (setup), what the timed calls need once per
    run (prepare), a repeated timed job (run_pass), one run of its
    commands in fresh interpreters for their peak memory (memory_pass)
    and checks of its outputs against ground truth (check)."""

    name = ""
    unit = "frame"
    wall_calls = ""  # the calls whose least time is wall_s
    rate_calls = ""  # the calls whose highest rate is throughput

    def __init__(self, seed, size: Size, workdir: str, src_dir: str):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.src_dir = src_dir
        self.best_ns: array | None = None  # each timed unit's least latency in any repeat
        self.repeats = 0

    def release(self) -> None:
        """Drop the inputs of the last set-up before the next one."""

    def prepare(self) -> None:
        """Untimed work after the first set-up; set-ups repeat the same
        inputs, so it holds for all of them."""

    def record_latencies(self, samples_ns) -> None:
        # every pass times the same frames or datagrams in the same order;
        # kept as a running minimum, so memory does not grow with the passes
        if self.best_ns is None:
            self.best_ns = array("q", samples_ns)
        else:
            self.best_ns = array("q", map(min, self.best_ns, samples_ns))
        self.repeats += 1

    def run_inline(self, tracer, frames, timed_from_us: int, local_ip: str, node_id: int):
        """size.inline_repeats inline passes over FRAMES, each by a fresh
        engine that loads the workload's model; returns their seconds
        and each one's events."""
        t0 = perf_counter()
        outcomes = []
        with _phase(tracer, "inline"):
            for _ in range(self.size.inline_repeats):
                engine = Engine(EngineConfig(local_ip=local_ip, node_id=node_id))
                with open(self.model, "rb") as handle:
                    engine.import_model(handle.read())
                samples, events = inline_pass(engine, frames, timed_from_us)
                self.record_latencies(samples)
                outcomes.append(events)
        return perf_counter() - t0, outcomes

    def write_slices(self, stem: str, frames) -> list[str]:
        """Write size.slices runs of size.slice_frames consecutive frames,
        spread evenly over FRAMES, to pcaps; returns their paths."""
        size, count = self.size.slice_frames, self.size.slices
        step = max(size, (len(frames) - size) // max(1, count - 1))
        paths = []
        for lo in range(0, len(frames) - size + 1, step)[:count]:
            paths.append(os.path.join(self.workdir, "%s-%d.pcap" % (stem, len(paths))))
            _write(paths[-1], ((t, d) for t, _dir, d in frames[lo:lo + size]))
        return paths


# Runs first in every child. A child's ru_maxrss reads the harness's own
# peak, which the child keeps across exec from the copy of the harness
# it starts as, so the child reports the high-water mark of its own
# memory (VmHWM, kB) when it exits.
_CHILD_PRELUDE = """\
import atexit, sys
def _write_peak(path={peak!r}):
    with open("/proc/self/status") as status, open(path, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
atexit.register(_write_peak)
sys.path[:0] = [{src!r}, {bench!r}]
"""


def child_peak_mb(code: str, argv: list[str], out_path: str, src_dir: str) -> tuple[int, float]:
    """Run CODE in a fresh interpreter that imports eids from SRC_DIR
    and perfbench from this directory, with ARGV as sys.argv[1:] and
    standard output going to OUT_PATH; returns its exit code and peak
    resident memory in MB (0 when the child did not exit normally)."""
    peak_path = out_path + ".peak"
    with contextlib.suppress(FileNotFoundError):
        os.remove(peak_path)
    prelude = _CHILD_PRELUDE.format(peak=peak_path, src=src_dir, bench=BENCH_DIR)
    with open(out_path, "w") as out:
        rc = subprocess.run([sys.executable, "-I", "-c", prelude + code] + argv,
                            stdout=out, stderr=subprocess.DEVNULL).returncode
    try:
        with open(peak_path) as handle:
            return rc, int(handle.read()) / 1024.0
    except (FileNotFoundError, ValueError):
        return rc, 0.0


def eids_command(argv: list[str], out_path: str, src_dir: str) -> tuple[int, float]:
    """`eids ARGV > OUT_PATH` in a fresh interpreter: exit code, peak MB."""
    return child_peak_mb("from eids.cli import main; sys.exit(main(sys.argv[1:]))", argv,
                         out_path, src_dir)


def run_cli(argv: list[str], out_path: str) -> int:
    """cli.main with the event log going to a file, as `eids ... > log`."""
    with open(out_path, "w") as out, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def event_lines(path: str) -> list[tuple[int, str]]:
    """(time us, cause) of each event line `eids detect` wrote."""
    events = []
    with open(path) as handle:
        for line in handle:
            stamp, _node, cause = line.split("\t", 3)[:3]
            at = datetime.fromisoformat(stamp.rstrip("Z")).replace(tzinfo=timezone.utc)
            delta = at - datetime(1970, 1, 1, tzinfo=timezone.utc)
            events.append((delta // datetime.resolution, cause))
    return events


def inline_pass(engine: Engine, frames, timed_from_us: int):
    """Drive ingest/tick per frame, as engine.replay does, timing each
    frame's verdict: its ingest call. Ticks are left out of the sample:
    at 1000 pps one frame in a hundred follows a tick, so a p99 that
    counted them would sit on the edge between the two kinds of frame.
    Frames before timed_from_us are not sampled."""
    samples = array("q")
    events = []
    next_tick = None
    for at_us, direction, data in frames:
        if next_tick is None:
            next_tick = at_us
        while next_tick <= at_us:
            events.extend(engine.tick(next_tick))
            next_tick += TICK_US
        t0 = perf_counter_ns()
        _verdict, new = engine.ingest(direction, data, at_us)
        t1 = perf_counter_ns()
        if at_us >= timed_from_us:
            samples.append(t1 - t0)
        events.extend(new)
    return samples, events


def _write(path: str, frames) -> int:
    with open(path, "wb") as handle:
        return write_pcap(handle, frames)


# -- plc-learn-detect -----------------------------------------------------


class PlcLearnDetect(Workload):
    """Benign plant from the PLC's view, split at the learning end. A
    pass times `eids learn` on each slice of the learning part and
    `eids detect --model` on each slice of the rest, with the model
    `eids learn` made from the whole learning part, then an inline
    ingest/tick pass over the rest."""

    name = "plc-learn-detect"
    wall_calls, rate_calls = "learn_fps", "detect_fps"

    def __init__(self, *args):
        super().__init__(*args)
        workdir = self.workdir
        self.learn_pcap = os.path.join(workdir, "plc-learn.pcap")
        self.detect_pcap = os.path.join(workdir, "plc-detect.pcap")
        self.full_pcap = os.path.join(workdir, "plc-full.pcap")
        self.model = os.path.join(workdir, "plc.model")
        self.slice_model = os.path.join(workdir, "plc-slice.model")
        self.log = os.path.join(workdir, "plc-events.log")
        self.argv = ["--local-ip", PLC_IP, "--node-id", "10"]
        self.expected_rc = 0
        self.expected_events = 0
        self.learned: list[int] = []  # exit codes of `eids learn`
        self.detected: list[tuple[int, int, int]] = []  # frames, exit code, event lines
        self.inline_events: list[int] = []
        self.cross_check: tuple[int, int] | None = None

    def release(self) -> None:
        self.inline_frames = None

    def setup(self) -> None:
        size = self.size
        trace = sim.run(sim.Topology.default(), profile(size.plc_arp_expiry_s), [],
                        duration_us=size.plc_s * S, seed=self.seed)
        view = list(trace.frames_for("PLC"))
        split = size.plc_learn_s * S
        learn = [f for f in view if f[0] < split]
        self.inline_frames = [f for f in view if f[0] >= split]
        self.n_learn = _write(self.learn_pcap, ((t, d) for t, _dir, d in learn))
        self.n_detect = _write(self.detect_pcap, ((t, d) for t, _dir, d in self.inline_frames))
        _write(self.full_pcap, ((t, d) for t, _dir, d in view))
        self.learn_slices = self.write_slices("plc-learn", learn)
        self.detect_slices = self.write_slices("plc-detect", self.inline_frames)

    def learn_argv(self, pcap: str, model: str) -> list[str]:
        return ["learn", "--pcap", pcap, "-o", model] + self.argv

    def detect_argv(self, pcap: str) -> list[str]:
        return ["detect", "--model", self.model, "--pcap", pcap] + self.argv

    def prepare(self) -> None:
        self.learned.append(run_cli(self.learn_argv(self.learn_pcap, self.model), self.log))

    def run_pass(self, tracer=None) -> Pass:
        size = self.size
        learn, detect = [], []
        with _phase(tracer, "learn"):
            for pcap in self.learn_slices:
                t0 = perf_counter()
                self.learned.append(run_cli(self.learn_argv(pcap, self.slice_model), self.log))
                learn.append((size.slice_frames, perf_counter() - t0))
        with _phase(tracer, "detect"):
            for pcap in self.detect_slices:
                t0 = perf_counter()
                rc = run_cli(self.detect_argv(pcap), self.log)
                detect.append((size.slice_frames, perf_counter() - t0))
                self.detected.append((size.slice_frames, rc, len(event_lines(self.log))))
        inline_s, outcomes = self.run_inline(tracer, self.inline_frames, 0, PLC_IP, 10)
        self.inline_events += [len(events) for events in outcomes]
        return Pass({"learn_fps": learn, "detect_fps": detect},
                    sum(t for _n, t in learn + detect) + inline_s)

    def memory_pass(self) -> float:
        rc, learn_mb = eids_command(self.learn_argv(self.learn_pcap, self.model), self.log,
                                    self.src_dir)
        self.learned.append(rc)
        rc, detect_mb = eids_command(self.detect_argv(self.detect_pcap), self.log, self.src_dir)
        self.detected.append((self.n_detect, rc, len(event_lines(self.log))))
        return max(learn_mb, detect_mb)

    def check(self, tally: Tally) -> None:
        rc_ok, events_ok = self.expected_rc, self.expected_events
        for rc in self.learned:
            tally.judge("learn exit code", 1, rc != rc_ok)
        for frames, rc, lines in self.detected:
            tally.judge("detect --model exit code", 1, rc != rc_ok)
            tally.judge("detect --model events on benign frames", frames, abs(lines - events_ok))
        for events in self.inline_events:
            tally.judge("inline events on benign frames", self.n_detect, abs(events - events_ok))
        if self.cross_check is None:
            # learning on the first part of the full capture must judge
            # the rest as the exported model did
            rc = run_cli(["detect", "--learn-first", str(self.size.plc_learn_s), "--pcap",
                          self.full_pcap] + self.argv, self.log)
            self.cross_check = (rc, len(event_lines(self.log)))
        rc, lines = self.cross_check
        tally.judge("detect --learn-first exit code", 1, rc != rc_ok)
        tally.judge("detect --learn-first events on benign frames", self.n_detect,
                    abs(lines - events_ok))


# -- s1-flood -------------------------------------------------------------


class S1Flood(Workload):
    """Scenario 5 (DoS flood on S1), set up as the scenario bench runs
    it. `eids learn` on S1's view of the learning phase makes the
    model; a pass times `eids detect --model` on each slice of the
    flood's first seconds, then runs the same inline pass as
    plc-learn-detect from the learning end, timing the flood's frames.
    `eids detect --learn-first` over the whole view is the memory pass."""

    name = "s1-flood"
    wall_calls = rate_calls = "detect_fps"

    def __init__(self, *args):
        super().__init__(*args)
        self.pcap = os.path.join(self.workdir, "s1-flood.pcap")
        self.learn_pcap = os.path.join(self.workdir, "s1-learn.pcap")
        self.model = os.path.join(self.workdir, "s1.model")
        self.log = os.path.join(self.workdir, "s1-events.log")
        self.argv = ["--local-ip", S1_IP, "--node-id", "1"]
        self.learn_us = bench.LEARNING_US
        self.attack_us = bench.ATTACK_START_US
        self.expected_rc = 1
        self.expected_learn_rc = 0
        self.expected_row = True  # scenario 5 is detected
        self.max_latency_us = 10_000
        self.rows: list[bool] = []  # the scenario bench's verdict per set-up
        self.learned: list[int] = []  # exit codes of `eids learn`
        # (path, exit codes or None, event times, first TooFast time)
        self.observed: list[tuple[str, list | None, array, int | None]] = []

    def release(self) -> None:
        self.frames = None

    def setup(self) -> None:
        size = self.size
        flood = sim.AttackScenario(sim.ScenarioKind.DOS_FLOOD, start_us=self.attack_us,
                                   target="S1", rate_pps=size.flood_pps)
        result = bench.run_scenario(flood, self.seed, profile=profile(size.flood_arp_expiry_s))
        self.rows.append(bool(result.events) or bool(result.downs))
        end_us = self.attack_us + size.flood_s * S
        view = [f for f in result.trace.frames_for("S1") if f[0] < end_us]
        del result
        self.n_frames = _write(self.pcap, ((t, d) for t, _dir, d in view))
        _write(self.learn_pcap, ((t, d) for t, _dir, d in view if t < self.learn_us))
        self.frames = [f for f in view if f[0] >= self.learn_us]
        # the timed calls see the flood only, so that every slice holds
        # the same kind of traffic
        self.slices = self.write_slices("s1-detect",
                                        [f for f in self.frames if f[0] >= self.attack_us])
        self.n_benign_active = sum(1 for f in self.frames if f[0] < self.attack_us)

    def prepare(self) -> None:
        self.learned.append(run_cli(["learn", "--pcap", self.learn_pcap, "-o", self.model]
                                    + self.argv, self.log))

    def run_pass(self, tracer=None) -> Pass:
        size = self.size
        detect, codes, events = [], [], []
        with _phase(tracer, "detect"):
            for pcap in self.slices:
                t0 = perf_counter()
                codes.append(run_cli(["detect", "--model", self.model, "--pcap", pcap]
                                     + self.argv, self.log))
                detect.append((size.slice_frames, perf_counter() - t0))
                events += event_lines(self.log)
        self.observed.append(("detect", codes) + _event_times(events))
        inline_s, outcomes = self.run_inline(tracer, self.frames, self.attack_us, S1_IP, 1)
        self.observed += [("inline", None) + _event_times((e.at_us, e.cause.value) for e in events)
                          for events in outcomes]
        return Pass({"detect_fps": detect}, sum(t for _n, t in detect) + inline_s)

    def learn_first_argv(self) -> list[str]:
        return ["detect", "--learn-first", str(self.learn_us // S), "--pcap", self.pcap] + self.argv

    def _observe_learn_first(self, rc: int) -> None:
        self.observed.append(("detect --learn-first", [rc]) + _event_times(event_lines(self.log)))

    def memory_pass(self) -> float:
        rc, peak_mb = eids_command(self.learn_first_argv(), self.log, self.src_dir)
        self._observe_learn_first(rc)
        return peak_mb

    def check(self, tally: Tally) -> None:
        if not any(path == "detect --learn-first" for path, *_rest in self.observed):
            # a traced run makes no memory pass
            self._observe_learn_first(run_cli(self.learn_first_argv(), self.log))
        for detected in self.rows:
            tally.judge("scenario bench verdict", 1, detected != self.expected_row)
        for rc in self.learned:
            tally.judge("learn exit code", 1, rc != self.expected_learn_rc)
        for path, codes, times, first_too_fast in self.observed:
            for rc in codes or ():
                tally.judge("%s exit code" % path, 1, rc != self.expected_rc)
            early = bisect.bisect_left(times, self.attack_us)
            tally.judge("%s events before the flood" % path, self.n_benign_active, early)
            late = first_too_fast is None or not (
                0 <= first_too_fast - self.attack_us <= self.max_latency_us)
            tally.judge("%s first TooFast within 10 ms" % path, 1, int(late))


def _event_times(events) -> tuple[array, int | None]:
    """Sorted event times, and the first TooFast time or None."""
    times = array("q")
    first_too_fast = None
    for at_us, cause in events:
        times.append(at_us)
        if cause == "TooFast" and (first_too_fast is None or at_us < first_too_fast):
            first_too_fast = at_us
    return array("q", sorted(times)), first_too_fast


# -- status-storm ---------------------------------------------------------


def feed_logger(stream, horizon_us: int, samples=None,
                windows=None) -> tuple[int, Counter, set]:
    """Feed (arrival us, datagram) pairs to a fresh logger, sweeping once
    a second up to horizon_us. When given, samples gets each
    on_datagram call's time in ns and windows the (datagrams, seconds)
    of each run of STORM_WINDOW datagrams with the sweeps due before
    them. Returns the accepted count, the rejects per cause and the
    (sweep time, node) up->down transitions."""
    logger = CentralLogger(STORM_PSK, timeout_us=STORM_TIMEOUT_US)
    downs = set()
    accepted = 0
    next_sweep = 0
    window_start = perf_counter()
    for n, (at_us, data) in enumerate(stream, 1):
        while next_sweep <= at_us:
            downs.update((next_sweep, r.node_id) for r in logger.sweep(next_sweep))
            next_sweep += S
        t0 = perf_counter_ns()
        record = logger.on_datagram(data, at_us)
        t1 = perf_counter_ns()
        if samples is not None:
            samples.append(t1 - t0)
        if record is not None:
            accepted += 1
        if windows is not None and n % STORM_WINDOW == 0:
            now = perf_counter()
            windows.append((STORM_WINDOW, now - window_start))
            window_start = now
    while next_sweep <= horizon_us:
        downs.update((next_sweep, r.node_id) for r in logger.sweep(next_sweep))
        next_sweep += S
    return accepted, Counter(logger.rejected), downs


def stored_stream(path: str):
    """The (arrival us, datagram) pairs a set-up stored, read one by one."""
    with open(path, "rb") as handle:
        while head := handle.read(RECORD.size):
            at_us, length = RECORD.unpack(head)
            yield at_us, handle.read(length)


def _memory_pass_main(path: str, horizon_us: str) -> None:
    accepted, rejected, downs = feed_logger(stored_stream(path), int(horizon_us))
    print(json.dumps([accepted, rejected, sorted(downs)]))


class StatusStorm(Workload):
    """A central logger fed by many nodes at the 10 s status cadence,
    mixed with hostile datagrams; some nodes fall silent mid-run."""

    name = "status-storm"
    unit = "datagram"
    wall_calls = rate_calls = "status_dps"
    HOSTILE = ("BadHmac", "ReplayRejected", "BadLength", "BadMagic", "BadVersion",
               "SkewRejected")

    def __init__(self, *args):
        super().__init__(*args)
        self.stored = os.path.join(self.workdir, "storm.bin")
        self.results: list[tuple[int, Counter, set]] = []

    def release(self) -> None:
        self.stream = None

    def setup(self) -> None:
        """Build the datagram stream and its ground truth: accepted
        count, rejects per cause and the up->down transitions."""
        size = self.size
        rng = random.Random("storm:%s" % self.seed)
        horizon = size.storm_s * S
        good: list[tuple[int, int, bytes]] = []  # (arrival, node, datagram)
        last_arrival: dict[int, int] = {}
        for node in range(1, size.storm_nodes + 1):
            offset_ms = rng.randrange(-2_000, 2_001)
            silent_at = horizon + 1
            if rng.random() < STORM_SILENT_SHARE:
                silent_at = rng.randrange(horizon // 5, horizon * 7 // 10)
            t = rng.randrange(1, STORM_CADENCE_US)
            while t <= horizon and t < silent_at:
                msg = announce.StatusMessage(node, max(0, t // 1000 + offset_ms),
                                             rng.random() < 0.05, True, rng.randrange(0, 4))
                good.append((t, node, announce.encode(msg, STORM_PSK)))
                last_arrival[node] = t
                t += STORM_CADENCE_US + rng.randrange(-200_000, 200_001)
        good.sort()
        n_hostile = round(len(good) * STORM_HOSTILE_SHARE / (1.0 - STORM_HOSTILE_SHARE))
        hostile = sorted((rng.randrange(STORM_CADENCE_US, horizon), rng.choice(self.HOSTILE))
                         for _ in range(n_hostile))
        self.stream = self._merge(rng, good, hostile)
        with open(self.stored, "wb") as handle:
            for at_us, data in self.stream:
                handle.write(RECORD.pack(at_us, len(data)) + data)
        self.expected_accepted = len(good)
        self.expected_rejected = Counter(kind for _t, kind in hostile)
        # the harness sweeps once a second; a node goes down at the first
        # sweep at least the timeout after its last accepted datagram
        self.expected_downs = {
            (-(-(last + STORM_TIMEOUT_US) // S) * S, node)
            for node, last in last_arrival.items()
            if last + STORM_TIMEOUT_US <= horizon
        }
        self.horizon = horizon
        self.n_stream = len(self.stream)

    def _merge(self, rng, good, hostile) -> list[tuple[int, bytes]]:
        stream = []
        latest: dict[int, bytes] = {}
        g = 0
        for at, kind in hostile:
            while g < len(good) and good[g][0] < at:
                arrival, node, data = good[g]
                stream.append((arrival, data))
                latest[node] = data
                g += 1
            stream.append((at, self._hostile(rng, kind, at, latest)))
        stream.extend((arrival, data) for arrival, _node, data in good[g:])
        return stream

    def _hostile(self, rng, kind: str, at_us: int, latest: dict[int, bytes]) -> bytes:
        node = rng.randrange(1, 2 * self.size.storm_nodes)
        msg = announce.StatusMessage(node, at_us // 1000, False, True, 0)
        if kind == "BadHmac":
            return announce.encode(msg, b"forged-" + STORM_PSK)
        if kind == "ReplayRejected":
            # the most recent datagram a node had accepted, sent again
            return latest[rng.choice(sorted(latest))]
        if kind == "SkewRejected":
            ahead = at_us // 1000 + 120_001 + rng.randrange(0, 3_600_000)
            return announce.encode(announce.StatusMessage(node, ahead, False, True, 0),
                                   STORM_PSK)
        wire = announce.encode(msg, STORM_PSK)
        if kind == "BadLength":
            length = rng.choice([n for n in range(0, 97) if n != announce.WIRE_LEN])
            return (wire * 3)[:length]
        if kind == "BadMagic":
            return b"EIDZ" + wire[4:]
        return wire[:4] + bytes([announce.VERSION + 1]) + wire[5:]  # BadVersion

    def run_pass(self, tracer=None) -> Pass:
        samples, windows = array("q"), []
        t0 = perf_counter()
        with _phase(tracer, "logger"):
            result = feed_logger(self.stream, self.horizon, samples, windows)
        wall = perf_counter() - t0
        self.results.append(result)
        self.record_latencies(samples)
        return Pass({"status_dps": windows}, wall)

    def memory_pass(self) -> float:
        out = os.path.join(self.workdir, "storm-memory.out")
        code = "import workloads; workloads._memory_pass_main(*sys.argv[1:])"
        rc, peak_mb = child_peak_mb(code, [self.stored, str(self.horizon)], out, self.src_dir)
        accepted, rejected, downs = -1, {}, []  # all wrong if the child failed
        if rc == 0:
            with open(out) as handle:
                accepted, rejected, downs = json.load(handle)
        self.results.append((accepted, Counter(rejected), set(map(tuple, downs))))
        return peak_mb

    def check(self, tally: Tally) -> None:
        for accepted, rejected, downs in self.results:
            tally.judge("accepted datagrams", self.n_stream,
                        abs(accepted - self.expected_accepted))
            causes = set(rejected) | set(self.expected_rejected)
            tally.judge("rejects per cause", self.n_stream,
                        sum(abs(rejected[c] - self.expected_rejected[c]) for c in causes))
            tally.judge("up->down transitions", len(self.expected_downs),
                        len(downs ^ self.expected_downs))


WORKLOADS = {w.name: w for w in (PlcLearnDetect, S1Flood, StatusStorm)}


def _phase(tracer, name: str):
    """A phase span in a traced pass; nothing otherwise."""
    return contextlib.nullcontext() if tracer is None else tracer.span("phase." + name)
