"""Timing bursts: one opening and one closing event per run of a flow's
timing violations, and the engine's per-cause counts of flagged frames."""

import io

import pytest

from eids import bench, frames, sim
from eids.cli import main
from eids.engine import Cause, Engine, EngineConfig, format_event, replay
from eids.packet import Direction
from eids.pcap import read_pcap, write_pcap

S = 1_000_000
MS = 1000
LOCAL = "192.168.1.101"
LOCAL_MAC = "02:00:ac:10:01:65"
PLC = "192.168.1.50"
PLC_MAC = "02:00:ac:10:01:32"
HMI = "192.168.1.40"
HMI_MAC = "02:00:ac:10:01:28"
POLLS = "tcp/%s->%s:502" % (PLC, LOCAL)
HMI_POLLS = "tcp/%s->%s:502" % (HMI, LOCAL)
BAND = "outside (70000us, 130000us)"  # 100 ms learned, widened by 0.3


def _model(*peers):
    """A model of polls to LOCAL:502 from each peer, exactly 100 ms apart."""
    lines = ["EIDS-MODEL 1"]
    for peer in peers:
        lines.append("FLOW\tTcp\t%s\t%s\t502" % (peer, LOCAL))
    for peer in peers:
        lines.append("TIMING\tTcp\t%s\t%s\t502\t100000\t100000\t100000\t50\t300" % (peer, LOCAL))
    return ("\n".join(lines) + "\n").encode()


def _engine(*peers):
    engine = Engine(EngineConfig(local_ip=LOCAL))
    engine.import_model(_model(*(peers or (PLC,))))
    return engine


def _poll(peer_mac=PLC_MAC, peer=PLC):
    return frames.tcp_frame(peer_mac, LOCAL_MAC, peer, LOCAL, 49152, 502, 0x18,
                            frames.modbus_read_request(1, 1))


def _ingest(engine, times_ms, frame=None):
    """The verdicts and the event lines of polls at times_ms."""
    frame = frame or _poll()
    verdicts, lines = [], []
    for at_ms in times_ms:
        verdict, events = engine.ingest(Direction.RX, frame, at_ms * MS)
        verdicts.append(verdict)
        lines += [format_event(event, 1) for event in events]
    return verdicts, lines


@pytest.mark.parametrize("n", [1, 2, 500])
def test_n_too_fast_frames_give_one_opening_and_one_closing_event(n):
    engine = _engine()
    flood = [1100 + k for k in range(1, n + 1)]  # 1 ms apart after an on-time poll
    verdicts, lines = _ingest(engine, [1000, 1100] + flood + [flood[-1] + 100])
    assert verdicts == [False] * 2 + [True] * n + [False]
    assert lines == [
        "1970-01-01T00:00:01.101000Z\t1\tTooFast\t%s\tdt=1000us %s" % (POLLS, BAND),
        "1970-01-01T00:00:%06.3f000Z\t1\tTooFast\t%s\tburst ended: frames=%d last=%dus"
        % ((flood[-1] + 100) / 1000, POLLS, n, flood[-1] * MS),
    ]
    assert engine.counts()[Cause.TOO_FAST] == n


def test_frames_inside_a_burst_answer_alert_with_no_event_and_are_counted():
    engine = _engine()
    _ingest(engine, [1000, 1100, 1101])  # on time, on time, the burst opens
    baseline = next(iter(engine.states.values()))
    for k in range(2, 12):
        verdict, events = engine.ingest(Direction.RX, _poll(), (1100 + k) * MS)
        assert (verdict, events) == (True, [])
        assert (baseline.burst, baseline.burst_frames, baseline.burst_last_us) == (
            Cause.TOO_FAST, k, (1100 + k) * MS)
        # an open burst's frames are in the counts already
        assert engine.counts()[Cause.TOO_FAST] == k


def test_a_change_of_cause_closes_one_burst_and_opens_the_next():
    engine = _engine()
    verdicts, lines = _ingest(engine, [1000, 1100, 1101, 1102, 1302, 1402])
    assert verdicts == [False] * 2 + [True] * 3 + [False]
    assert lines == [
        "1970-01-01T00:00:01.101000Z\t1\tTooFast\t%s\tdt=1000us %s" % (POLLS, BAND),
        "1970-01-01T00:00:01.302000Z\t1\tTooFast\t%s\tburst ended: frames=2 last=1102000us"
        % POLLS,
        "1970-01-01T00:00:01.302000Z\t1\tTooSlow\t%s\tdt=200000us %s" % (POLLS, BAND),
        "1970-01-01T00:00:01.402000Z\t1\tTooSlow\t%s\tburst ended: frames=1 last=1302000us"
        % POLLS,
    ]
    counts = engine.counts()
    assert (counts[Cause.TOO_FAST], counts[Cause.TOO_SLOW]) == (2, 1)


def test_the_end_of_replay_closes_open_bursts_after_the_tail_ticks():
    engine = _engine(PLC, HMI)  # the PLC's flow comes first in the engine
    plc, hmi = _poll(), _poll(HMI_MAC, HMI)
    stream = [(at_ms * MS, Direction.RX, frame) for at_ms, frame in [
        (1000, plc), (1000, hmi), (1100, plc), (1100, hmi),
        (1101, hmi), (1102, plc), (1103, hmi), (1104, plc),  # the HMI's burst opens first
    ]]
    lines = [format_event(event, 1) for event in replay(engine, stream, tail_us=1 * S)]
    assert lines == [
        "1970-01-01T00:00:01.101000Z\t1\tTooFast\t%s\tdt=1000us %s" % (HMI_POLLS, BAND),
        "1970-01-01T00:00:01.102000Z\t1\tTooFast\t%s\tdt=2000us %s" % (POLLS, BAND),
        # the tail's ticks run first: each flow falls silent at its own
        # deadline, its last frame plus the 130 ms high edge
        "1970-01-01T00:00:01.233000Z\t1\tHostSilent\t%s\tsilent since 1103000us" % HMI_POLLS,
        "1970-01-01T00:00:01.234000Z\t1\tHostSilent\t%s\tsilent since 1104000us" % POLLS,
        # then the bursts close at the last frame's time plus the tail, in
        # the engine's flow order
        "1970-01-01T00:00:02.104000Z\t1\tTooFast\t%s\tburst ended: frames=2 last=1104000us"
        % POLLS,
        "1970-01-01T00:00:02.104000Z\t1\tTooFast\t%s\tburst ended: frames=2 last=1103000us"
        % HMI_POLLS,
    ]
    # closed, the bursts leave their frames in the counts, once
    assert engine.close_bursts(3 * S) == []
    assert engine.counts()[Cause.TOO_FAST] == 4


def test_metadata_causes_and_unparseable_frames_raise_an_event_each():
    engine = _engine()
    stranger = frames.tcp_frame("02:00:ac:10:01:c8", LOCAL_MAC, "192.168.1.200", LOCAL,
                                51000, 502, 0x18)
    raised = [engine.ingest(Direction.RX, frame, (1000 + k) * MS)
              for k, frame in enumerate([stranger, stranger, b"\x00" * 9, b"\x00" * 9])]
    assert [(verdict, [e.cause for e in events]) for verdict, events in raised] == [
        (True, [Cause.NEW_FLOW])] * 2 + [(True, [Cause.UNPARSEABLE])] * 2
    counts = engine.counts()
    assert {cause: n for cause, n in counts.items() if n} == {
        Cause.NEW_FLOW: 2, Cause.UNPARSEABLE: 2}
    assert set(counts) == set(Cause)


def test_detect_prints_its_counts_on_stderr_and_nothing_new_on_stdout(tmp_path, capsys):
    model, pcap = tmp_path / "m.model", tmp_path / "polls.pcap"
    model.write_bytes(_model(PLC))
    times_ms = [1000, 1100, 1101, 1102, 1103, 1203]
    with open(pcap, "wb") as handle:
        write_pcap(handle, [(at_ms * MS, _poll()) for at_ms in times_ms] + [(1204 * MS, b"\0" * 9)])
    assert main(["detect", "--model", str(model), "--pcap", str(pcap)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "1970-01-01T00:00:01.101000Z\t1\tTooFast\t%s\tdt=1000us %s" % (POLLS, BAND),
        "1970-01-01T00:00:01.203000Z\t1\tTooFast\t%s\tburst ended: frames=3 last=1103000us"
        % POLLS,
        "1970-01-01T00:00:01.204000Z\t1\tUnparseable\t-\t"
        "frame of 9 bytes is below the 14-byte Ethernet header",
    ]
    assert err == "flagged: TooFast=3 Unparseable=1\n"

    with open(pcap, "wb") as handle:
        write_pcap(handle, [(at_ms * MS, _poll()) for at_ms in (1000, 1100, 1200)])
    assert main(["detect", "--model", str(model), "--pcap", str(pcap)]) == 0
    assert capsys.readouterr() == ("", "flagged: none\n")


@pytest.fixture
def short_plant(monkeypatch):
    """The 100 s matrix at seed 3 of the golden test: learning to 60 s,
    attacks from 65 s."""
    monkeypatch.setattr(bench, "LEARNING_US", 60 * S)
    monkeypatch.setattr(bench, "ATTACK_START_US", 65 * S)
    monkeypatch.setattr(bench, "DURATION_US", 100 * S)
    return sim.Plant(sim.Topology.default(), sim.TrafficProfile(), bench.DURATION_US, 3)


MATRIX_ROWS = ["removed", "active-sniff", "spoof", "inject", "flood", "passive-sniff",
               "learning-continues", "learning-stops", "capture"]


@pytest.mark.parametrize("row", range(len(MATRIX_ROWS)), ids=MATRIX_ROWS)
def test_every_matrix_row_gives_the_same_lines_from_a_pcap(short_plant, row):
    matrix = bench._scenario_matrix()  # read after the fixture shortens the plant
    assert len(matrix) == len(MATRIX_ROWS)
    scenario, _variant, detected = matrix[row]
    trace = short_plant.trace([scenario])
    capture = io.BytesIO()
    trace.write_pcap(capture, viewpoint=bench.MONITOR)
    capture.seek(0)

    def lines(stream):
        engine = Engine(EngineConfig(local_ip=LOCAL, learning_duration_us=bench.LEARNING_US))
        return [format_event(event, 1) for event in replay(engine, stream)]

    simulated = lines(trace.frames_for(bench.MONITOR))
    assert lines((at, None, data) for at, data in read_pcap(capture)) == simulated
    # a row the matrix expects caught adds lines to the benign run's; the
    # short plant's benign run has one of its own, a HostSilent on the
    # PLC's ARP, whose 60 s learning saw one request
    benign = lines(short_plant.trace([]).frames_for(bench.MONITOR))
    assert (simulated != benign) is detected
    if scenario.kind is sim.ScenarioKind.DOS_FLOOD:
        assert any(line.rsplit("\t", 1)[1].startswith("burst ended") for line in simulated)


# per matrix row at seed 0: the events per cause raised when every flagged
# frame raised one event, before bursts were latched
EVENTS_PER_CAUSE = [
    {Cause.HOST_SILENT: 1},
    {Cause.BINDING_CONFLICT: 71},
    {Cause.L2L3_MISMATCH: 8},
    {Cause.NEW_FLOW: 25},
    {Cause.HOST_SILENT: 1, Cause.TOO_FAST: 60_599, Cause.TOO_SLOW: 1},
    {},
    {},
    {Cause.HOST_SILENT: 1},
    {Cause.NEW_FLOW: 143},
]


def test_matrix_rows_count_every_frame_that_raised_an_event_before_bursts():
    profile = sim.TrafficProfile()
    plant = sim.Plant(sim.Topology.default(), profile, bench.DURATION_US, 0)
    counted = []
    for scenario, _variant, _expected in bench._scenario_matrix():
        result = bench._observe(plant.trace([scenario]), profile)
        counted.append({cause: n for cause, n in result.engine.counts().items() if n})
    assert counted == EVENTS_PER_CAUSE
