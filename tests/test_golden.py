"""Golden outputs: sha256 digests of the command-line pipeline's bytes.

Determinism (criterion 8) compares two runs of the same code, so it
cannot see a change that alters output. These digests were taken from
the release before the per-frame data model became plain tuples and
pin the simulator's capture, the learned model and both detect modes'
event logs across refactors of the hot path. A deliberate change of
behaviour updates them in the same commit and says why.
"""

import contextlib
import hashlib
import io

import pytest

from eids.cli import main

PCAP_SHA256 = "3b733a63af9333b94798fcd496641d1e2de1f5e6e72241072e13b32d9f9948b7"
MODEL_SHA256 = "01bda656c7a6a2beea3454d7d3e872e5babf474f1375e78eeac078087cd34a5b"
DETECT_MODEL_SHA256 = "48bedb8ec8abbfd10d730da7013a3aeeaab485c954b2325f7a934ab071981db8"
DETECT_LEARN_FIRST_SHA256 = "4c86bd1cfe3f8488f52776b453ce84f68b0edfdb7970dd07871583a10c871ea5"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
