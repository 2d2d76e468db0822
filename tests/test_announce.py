"""Status datagram wire format, authentication, replay protection."""

import hmac
import os
import subprocess
import sys
from hashlib import sha256
from pathlib import Path

import pytest

import eids
from eids import announce
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


@pytest.mark.parametrize("psk_len", [1, 32, 63, 64, 65, 200])
def test_tag_equals_hmac_new_on_both_sides_of_the_block(psk_len):
    psk = bytes((7 * k + psk_len) % 256 for k in range(psk_len))
    wire = encode(_msg(node_id=psk_len, time_ms=123_456_789, intrusion=True, events=3), psk)
    assert wire[HEADER_LEN:] == hmac.new(psk, wire[:HEADER_LEN], sha256).digest()
    assert decode_verify(wire, psk, ReplayState()).node_id == psk_len
    with pytest.raises(BadHmac):
        decode_verify(wire, psk[:-1] + bytes([psk[-1] ^ 1]), ReplayState())


def test_more_keys_than_the_pad_cache_sign_as_a_fresh_process():
    n_keys = 2 * announce._pads.cache_info().maxsize + 1
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
