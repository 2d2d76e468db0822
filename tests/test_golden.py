"""Golden outputs: sha256 digests of the command-line pipeline's bytes.

Determinism (criterion 8) compares two runs of the same code, so it
cannot see a change that alters output. The pipeline digests were taken
from the release before the per-frame data model became plain tuples and
pin the simulator's capture, the learned model and both detect modes'
event logs across refactors of the hot path. The simulator digests were
taken before frame construction was made cheaper and pin the full-domain
trace of every scenario kind plus two device views of one run. The
720 s flood trace digest was taken from an unmodified archive of the
release before TCP frames were built from cached per-connection
templates; it pins long-run sequence number growth and tens of thousands
of identical flood frames. A deliberate change of behaviour updates them
in the same commit and says why: the two detect digests and the matrix
observation digest were taken again when a flow's run of timing
violations became one opening event naming the band broken and one
closing event with the run's frame count, and unparseable frames got a
cause of their own; every simulator, pcap and model digest stayed. The
detect --model digest and the matrix observation digest were taken
again when the engine and the logger stopped acting on 100 ms and 1 s
grids: each HostSilent now comes at its flow's last arrival plus the
high edge, and each logger down at its node's last status plus the
timeout. The learn-first digest stayed: its one silence is raised at
the learning end, where the grid ticked too.
"""

import contextlib
import hashlib
import io

import pytest

from eids import bench, sim
from eids.cli import main
from eids.engine import format_event

PCAP_SHA256 = "3b733a63af9333b94798fcd496641d1e2de1f5e6e72241072e13b32d9f9948b7"
MODEL_SHA256 = "f2e818dda414abc13bd793eaaccd8515a67e9f109d2ad1437f71c41620d1049f"
DETECT_MODEL_SHA256 = "f47e25087b99b0dfda7b10428b050eb9ebe8d6bf071452e26afaf671f98dd3bf"
DETECT_LEARN_FIRST_SHA256 = "71a259defce7bdb8ce9520089a2e23e35745fff921fb67a67a980b7d5181e94f"

S = 1_000_000
# scenario kind -> (scenario arguments, sha256 of the full-domain trace)
# for a 40 s run at seed 11; every attack starts (or, for the learning
# attack, stops) at 25 s
TRACE_SHA256 = {
    1: ({"start_us": 25 * S}, "e2ab379df517fbaef60f63b55a9dc67d7cb3bb4bf7fce995ae612eb144ae9921"),
    2: ({"start_us": 25 * S}, "8797359b6df7d10bc4a6e4e9a939b05aa4ae4a02ee9f4cc760a4fce69b00d4f1"),
    3: ({"start_us": 25 * S}, "712147fe3dcefba90683f0460f8c7428683fb1b6efbfc58bb939696ff6ed8e71"),
    4: ({"start_us": 25 * S}, "f3708f631d65693b057553066ce9e1fbefff440e2fd8e702dfec9335e4c1e88c"),
    5: ({"start_us": 25 * S}, "a08ed4a8100ef27dcb888b1ac788a722dea72076a94dec84bfbb7d970cc3ca7e"),
    6: ({"start_us": 25 * S}, "9b031324efa272f7afc8fada45e4103e066063170d1b46013ca15683fddeb852"),
    7: ({"stop_us": 25 * S}, "e98c8bbdbd6e0eac68423f37fb91da2c464de8c6324cb8fb150a8b17b91c1fde"),
    8: ({"start_us": 25 * S}, "e1bb8de898195b31dba28b1a8cc0c5a96f13c7e7261c79857487d2f72ba794a6"),
}
# the full-domain trace of the s1-flood benchmark input: 720 s at seed 0,
# the 1000 pps flood on S1 from 650 s; 218,565 frames
FLOOD_TRACE_SHA256 = "9e6e1e884c43d892a5e5b02040b8f3b38fa3479f2a636b19d64ad588f0dea45c"
# the learning-attack run's write_pcap views
VIEW_PCAP_SHA256 = {
    "S1": "0ef45b68d3cffa7a85b09d88eaac9ea1773425ddf34184c878fb14b911839316",
    "PLC": "9821be2e18bf5c006a1754e0d58217739211083451dcfba1124c0e947b6f9c65",
}
# sha256 of every scenario matrix row's event log lines and logger
# downs, on one shared 100 s plant at seed 3 with the bench shrunk as
# perfbench/selfcheck.py shrinks it
OBSERVE_SHA256 = "d6a060af942a0b24af3e2ec390457b87e098c3dd2780fa432bdab55f11c94d10"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trace_sha256(trace: sim.FrameTrace) -> str:
    digest = hashlib.sha256()
    for time_us, src, dst, data in trace.frames:
        digest.update(repr((time_us, src, dst, data)).encode())
    return digest.hexdigest()


def _simulate(kind: int) -> sim.FrameTrace:
    kwargs, _digest = TRACE_SHA256[kind]
    scenario = sim.AttackScenario(sim.ScenarioKind(kind), **kwargs)
    return sim.run(scenarios=[scenario], duration_us=40 * S, seed=11)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def flood_capture(tmp_path_factory):
    """S1's view of 120 s at seed 9, with the 1000 pps flood on S1 from
    110 s: about 11k benign and flood frames."""
    path = tmp_path_factory.mktemp("golden") / "flood.pcap"
    code, _ = _run(["simulate", "--duration", "120", "--seed", "9",
                    "--scenario", "5:start=110,target=S1", "--viewpoint", "S1",
                    "--pcap-out", str(path)])
    assert code == 0
    return path


def test_simulated_capture(flood_capture):
    assert _sha256(flood_capture.read_bytes()) == PCAP_SHA256


def test_learned_model_and_detect_outputs(flood_capture, tmp_path):
    model = tmp_path / "plant.model"
    code, _ = _run(["learn", "--pcap", str(flood_capture), "--learning-duration", "90",
                    "-o", str(model)])
    assert code == 0
    assert _sha256(model.read_bytes()) == MODEL_SHA256

    code, out = _run(["detect", "--model", str(model), "--pcap", str(flood_capture)])
    assert code == 1
    assert _sha256(out.encode()) == DETECT_MODEL_SHA256

    code, out = _run(["detect", "--learn-first", "90", "--pcap", str(flood_capture)])
    assert code == 1
    assert _sha256(out.encode()) == DETECT_LEARN_FIRST_SHA256


@pytest.mark.parametrize("kind", sorted(TRACE_SHA256))
def test_simulated_trace_per_scenario_kind(kind):
    assert _trace_sha256(_simulate(kind)) == TRACE_SHA256[kind][1]


def test_long_flood_trace():
    flood = sim.AttackScenario(sim.ScenarioKind.DOS_FLOOD, start_us=650 * S, target="S1")
    assert _trace_sha256(sim.run(scenarios=[flood], duration_us=720 * S, seed=0)) \
        == FLOOD_TRACE_SHA256


@pytest.mark.parametrize("viewpoint", sorted(VIEW_PCAP_SHA256))
def test_simulated_view_pcaps(viewpoint):
    stream = io.BytesIO()
    _simulate(sim.ScenarioKind.LEARNING_ATTACK).write_pcap(stream, viewpoint=viewpoint)
    assert _sha256(stream.getvalue()) == VIEW_PCAP_SHA256[viewpoint]


def test_one_shared_plant_gives_every_scenario_kind_trace():
    # the last kind first: overlaying a scenario leaves the plant as it
    # was, so every row of a matrix can share one benign plant
    plant = sim.Plant(sim.Topology.default(), sim.TrafficProfile(), 40 * S, 11)
    for kind in sorted(TRACE_SHA256, reverse=True):
        kwargs, expected = TRACE_SHA256[kind]
        trace = plant.trace([sim.AttackScenario(sim.ScenarioKind(kind), **kwargs)])
        assert _trace_sha256(trace) == expected, kind


def test_observe_matrix_rows_on_a_short_shared_plant(monkeypatch):
    monkeypatch.setattr(bench, "LEARNING_US", 60 * S)
    monkeypatch.setattr(bench, "ATTACK_START_US", 65 * S)
    monkeypatch.setattr(bench, "DURATION_US", 100 * S)
    profile = sim.TrafficProfile()
    plant = sim.Plant(sim.Topology.default(), profile, bench.DURATION_US, 3)
    digest = hashlib.sha256()
    for scenario, _variant, _expected in bench._scenario_matrix():
        result = bench._observe(plant.trace([scenario]), profile)
        for event in result.events:
            digest.update((format_event(event, result.engine.config.node_id) + "\n").encode())
        digest.update((repr(result.downs) + "\n").encode())
    assert digest.hexdigest() == OBSERVE_SHA256
