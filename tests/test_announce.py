"""Status datagram wire format, authentication, replay protection."""

import hmac
import importlib.util
import json
import os
import subprocess
import sys
from hashlib import sha256
from pathlib import Path

import pytest

import eids
from eids import announce, cli, sim
from eids.announce import (
    FLAG_ACTIVE,
    FLAG_INTRUSION,
    HEADER_LEN,
    WIRE_LEN,
    BadHmac,
    BadLength,
    BadMagic,
    BadVersion,
    AnnounceError,
    ReplayRejected,
    ReplayState,
    SkewRejected,
    StatusMessage,
    decode_verify,
    encode,
)

PSK = b"unit-test-psk"


def _msg(node_id=2, time_ms=1_000, intrusion=False, active=True, events=0):
    return StatusMessage(node_id, time_ms, intrusion, active, events)


def test_wire_length_and_determinism():
    wire = encode(_msg(), PSK)
    assert len(wire) == WIRE_LEN == 48
    assert wire == encode(_msg(), PSK)
    assert wire[:4] == b"EIDS"
    assert wire[4] == 1


def test_flag_bits():
    clean = encode(_msg(node_id=2, intrusion=False), PSK)
    assert clean[13] & FLAG_INTRUSION == 0
    assert clean[13] & FLAG_ACTIVE
    alarmed = encode(_msg(node_id=3, intrusion=True), PSK)
    assert alarmed[13] & FLAG_INTRUSION


def test_round_trip():
    message = _msg(node_id=9, time_ms=123_456_789, intrusion=True, events=7)
    decoded = decode_verify(encode(message, PSK), PSK, ReplayState())
    assert decoded == message


def test_bad_length():
    wire = encode(_msg(), PSK)
    with pytest.raises(BadLength):
        decode_verify(wire[:47], PSK, ReplayState())
    with pytest.raises(BadLength):
        decode_verify(wire + b"\x00", PSK, ReplayState())


def test_bad_magic_and_version():
    wire = bytearray(encode(_msg(), PSK))
    tampered = b"XIDS" + bytes(wire[4:])
    with pytest.raises(BadMagic):
        decode_verify(tampered, PSK, ReplayState())
    wire[4] = 2
    with pytest.raises((BadVersion, BadHmac)):
        decode_verify(bytes(wire), PSK, ReplayState())


def test_single_flipped_flag_bit_fails_hmac():
    wire = bytearray(encode(_msg(), PSK))
    wire[13] ^= FLAG_INTRUSION
    with pytest.raises(BadHmac):
        decode_verify(bytes(wire), PSK, ReplayState())


def test_wrong_psk_fails_hmac():
    wire = encode(_msg(), PSK)
    with pytest.raises(BadHmac):
        decode_verify(wire, b"other-key", ReplayState())


def test_full_bit_flip_sweep():
    wire = encode(_msg(), PSK)
    rejections = 0
    for bit in range(HEADER_LEN * 8):
        mutated = bytearray(wire)
        mutated[bit // 8] ^= 1 << (bit % 8)
        try:
            decode_verify(bytes(mutated), PSK, ReplayState())
        except AnnounceError:
            rejections += 1
    assert rejections == 128


def test_byte_identical_replay_rejected():
    replay = ReplayState()
    wire = encode(_msg(time_ms=5_000), PSK)
    decode_verify(wire, PSK, replay)
    with pytest.raises(ReplayRejected):
        decode_verify(wire, PSK, replay)


def test_non_increasing_times_accept_only_first():
    replay = ReplayState()
    accepted = 0
    for time_ms in (9_000, 9_000, 8_000, 7_500):
        try:
            decode_verify(encode(_msg(time_ms=time_ms), PSK), PSK, replay)
            accepted += 1
        except ReplayRejected:
            pass
    assert accepted == 1


def test_replay_state_is_per_node():
    replay = ReplayState()
    decode_verify(encode(_msg(node_id=1, time_ms=100), PSK), PSK, replay)
    decode_verify(encode(_msg(node_id=2, time_ms=50), PSK), PSK, replay)
    for node_id, time_ms in ((1, 100), (2, 50)):
        with pytest.raises(ReplayRejected):
            decode_verify(encode(_msg(node_id=node_id, time_ms=time_ms), PSK), PSK, replay)
    # node 2's floor is its own: a time below node 1's last one is accepted
    decode_verify(encode(_msg(node_id=2, time_ms=60), PSK), PSK, replay)
    with pytest.raises(ReplayRejected):
        decode_verify(encode(_msg(node_id=1, time_ms=60), PSK), PSK, replay)


def test_future_skew_rejected_only_with_clock():
    wire = encode(_msg(time_ms=10_000_000), PSK)
    decode_verify(wire, PSK, ReplayState())  # no clock, no skew check
    with pytest.raises(SkewRejected):
        decode_verify(wire, PSK, ReplayState(), now_ms=0)


def test_encode_validation():
    with pytest.raises(ValueError):
        encode(_msg(), b"")
    with pytest.raises(ValueError):
        encode(_msg(node_id=70_000), PSK)
    with pytest.raises(ValueError):
        encode(_msg(time_ms=1 << 48), PSK)


def test_empty_key_is_refused_for_both_directions():
    # anyone can sign under the empty key: a tag made with it must not verify
    header = encode(_msg(node_id=7), PSK)[:HEADER_LEN]
    wire = header + hmac.new(b"", header, sha256).digest()
    with pytest.raises(ValueError, match="empty PSK"):
        decode_verify(wire, b"", ReplayState())
    with pytest.raises(ValueError, match="empty PSK"):
        encode(_msg(node_id=7), b"")


@pytest.mark.parametrize("psk_len", [1, 32, 63, 64, 65, 200])
def test_tag_equals_hmac_new_on_both_sides_of_the_block(psk_len):
    psk = bytes((7 * k + psk_len) % 256 for k in range(psk_len))
    wire = encode(_msg(node_id=psk_len, time_ms=123_456_789, intrusion=True, events=3), psk)
    assert wire[HEADER_LEN:] == hmac.new(psk, wire[:HEADER_LEN], sha256).digest()
    assert decode_verify(wire, psk, ReplayState()).node_id == psk_len
    with pytest.raises(BadHmac):
        decode_verify(wire, psk[:-1] + bytes([psk[-1] ^ 1]), ReplayState())


# RFC 4231 section 4, HMAC-SHA-256 test cases 1-4, 6 and 7 (case 5
# truncates its output): key, data, tag
_RFC4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    (b"\xaa" * 131,
     b"This is a test using a larger than block-size key and a larger than "
     b"block-size data. The key needs to be hashed before being used by the "
     b"HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
]


@pytest.mark.parametrize("key, data, tag", _RFC4231, ids=["1", "2", "3", "4", "6", "7"])
def test_tag_matches_rfc4231(key, data, tag):
    assert announce._tag(*announce._key(key), data).hex() == tag


def test_more_keys_than_the_pad_cache_sign_as_a_fresh_process():
    n_keys = 2 * announce._key.cache_info().maxsize + 1
    psks = [b"key-%d-" % k * (k % 9 + 1) for k in range(n_keys)]
    replay = ReplayState()
    wires = {}
    for time_ms in (1_000, 2_000):  # the second round finds each key evicted
        for node_id, psk in enumerate(psks):
            wire = encode(_msg(node_id=node_id, time_ms=time_ms), psk)
            assert decode_verify(wire, psk, replay) == _msg(node_id=node_id, time_ms=time_ms)
            wires[node_id, time_ms] = wire
    script = (
        "from eids.announce import StatusMessage, encode\n"
        "for node_id, psk in enumerate(%r):\n"
        "    for time_ms in (1_000, 2_000):\n"
        "        print(encode(StatusMessage(node_id, time_ms, False, True, 0), psk).hex())\n"
        % psks
    )
    env = dict(os.environ, PYTHONPATH=str(Path(eids.__file__).resolve().parents[1]))
    fresh = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert fresh == [wires[node_id, t].hex() for node_id in range(n_keys) for t in (1_000, 2_000)]


_SRC = str(Path(eids.__file__).resolve().parents[1])
_HASH_MODULES = ("_hashlib", "hashlib", "hmac")


def _fresh_process(code: str, *argv: str):
    """Run code in an interpreter that imports only the standard library
    and eids; returns the JSON it prints on its last line."""
    script = "import json, sys\nsys.path.insert(0, %r)\n%s" % (_SRC, code)
    out = subprocess.run([sys.executable, "-I", "-S", "-c", script, *argv], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


_LOADED = "[m for m in %r if m in sys.modules]" % (_HASH_MODULES,)


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    """A benign 400 s capture at S1, its status datagrams signed, and a
    model learned on its first 300 s, under which it raises no event."""
    root = tmp_path_factory.mktemp("capture")
    pcap, model = root / "plant.pcap", root / "plant.model"
    with open(pcap, "wb") as handle:
        sim.run(duration_us=400_000_000, seed=3).write_pcap(handle, viewpoint="S1")
    assert cli.main(["learn", "--pcap", str(pcap), "--learning-duration", "300",
                     "-o", str(model)]) == 0
    return pcap, model


@pytest.mark.parametrize("command", ["learn", "detect-model", "detect-learn-first", "stats"])
def test_agent_commands_on_a_capture_never_load_openssl(capture, tmp_path, command):
    pcap, model = map(str, capture)
    argv = {
        "learn": ["learn", "--pcap", pcap, "--learning-duration", "300",
                  "-o", str(tmp_path / "m")],
        "detect-model": ["detect", "--model", model, "--pcap", pcap],
        "detect-learn-first": ["detect", "--learn-first", "300", "--pcap", pcap],
        "stats": ["stats", "--pcap", pcap, "--flow", "tcp:192.168.1.101:502",
                  "-o", str(tmp_path / "csv")],
    }[command]
    code = ("from eids import cli\nrc = cli.main(sys.argv[1:])\n"
            "print(json.dumps([rc, %s]))" % _LOADED)
    assert _fresh_process(code, *argv) == [0, []]


_BUILTIN_SHA256 = pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this interpreter has no built-in SHA-256 module, so announce signs "
           "on hashlib and with it OpenSSL",
)


@_BUILTIN_SHA256
def test_signing_and_verifying_never_load_openssl():
    code = (
        "from eids.announce import StatusMessage, encode\n"
        "from eids.central import CentralLogger\n"
        "before = %s\n"
        "wire = encode(StatusMessage(7, 1_000, False, True, 0), b'k')\n"
        "accepted = CentralLogger(b'k').on_datagram(wire, 1_000_000) is not None\n"
        "print(json.dumps([before, accepted, %s]))" % (_LOADED, _LOADED)
    )
    assert _fresh_process(code) == [[], True, []]


@_BUILTIN_SHA256
@pytest.mark.parametrize("command", ["simulate", "logger-step"])
def test_simulator_and_logger_never_load_openssl(tmp_path, command):
    code = {
        "simulate": "from eids import cli\n"
                    "result = cli.main(['simulate', '--duration', '60', '--pcap-out', %r])\n"
                    % str(tmp_path / "plant.pcap"),
        "logger-step": "from eids.announce import StatusMessage, encode\n"
                       "from eids.central import CentralLogger\n"
                       "wire = encode(StatusMessage(7, 1_000, False, True, 0), b'k')\n"
                       "result = CentralLogger(b'k').step(wire, 1_000_000)[0]\n",
    }[command]
    expected = {"simulate": 0, "logger-step": [[1_000_000, 7, "up"]]}[command]
    assert _fresh_process(code + "print(json.dumps([result, %s]))" % _LOADED) == [expected, []]


def test_hashlib_fallback_signs_the_same_bytes():
    # a build without the built-in SHA-256 module signs on hashlib
    psks = [bytes((7 * k + n) % 256 for k in range(n)) for n in (1, 64, 65, 200)]
    msgs = [tuple(_msg(node_id=n, time_ms=1_000 * n, intrusion=True, events=n))
            for n in range(len(psks))]
    code = (
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from eids.announce import BadHmac, ReplayState, StatusMessage, decode_verify, encode\n"
        "wires, verdicts = [], []\n"
        "for m, psk in zip(%r, %r):\n"
        "    wire = encode(StatusMessage(*m), psk)\n"
        "    wires.append(wire.hex())\n"
        "    verdicts.append(tuple(decode_verify(wire, psk, ReplayState())) == m)\n"
        "    try:\n"
        "        decode_verify(wire[:20] + bytes([wire[20] ^ 1]) + wire[21:], psk, ReplayState())\n"
        "    except BadHmac:\n"
        "        verdicts.append('BadHmac')\n"
        "print(json.dumps([wires, verdicts, 'hashlib' in sys.modules]))" % (msgs, psks)
    )
    wires = [encode(StatusMessage(*m), psk).hex() for m, psk in zip(msgs, psks)]
    assert _fresh_process(code) == [wires, [True, "BadHmac"] * len(psks), True]
