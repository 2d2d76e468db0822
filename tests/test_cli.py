"""Command-line behavior: exit codes, outputs, pipelines."""

import socket
import struct
import threading
import time
import tracemalloc

import pytest

from eids import sim
from eids.announce import StatusMessage, encode
from eids.cli import ArpRequestGaps, main
from eids.packet import ArpOp, parse_frame
from eids.pcap import write_pcap

S = 1_000_000


def _write_viewpoint_pcap(tmp_path, name, duration_s=120, seed=3, scenarios=()):
    trace = sim.run(duration_us=duration_s * S, seed=seed, scenarios=list(scenarios))
    path = tmp_path / name
    with open(path, "wb") as handle:
        trace.write_pcap(handle, viewpoint="S1")
    return path, trace


def test_learn_is_deterministic(tmp_path, capsys):
    pcap, _ = _write_viewpoint_pcap(tmp_path, "benign.pcap")
    model_a = tmp_path / "a.model"
    model_b = tmp_path / "b.model"
    assert main(["learn", "--pcap", str(pcap), "-o", str(model_a)]) == 0
    assert main(["learn", "--pcap", str(pcap), "-o", str(model_b)]) == 0
    assert model_a.read_bytes() == model_b.read_bytes()
    assert model_a.read_bytes().startswith(b"EIDS-MODEL 1\n")
    err = capsys.readouterr().err
    assert "flows learned:" in err


def test_learn_summary_matches_independent_arp_scan(tmp_path, capsys):
    pcap, trace = _write_viewpoint_pcap(tmp_path, "long.pcap", duration_s=1200, seed=4)
    assert main(["learn", "--pcap", str(pcap), "-o", str(tmp_path / "m.model")]) == 0
    err = capsys.readouterr().err

    # independent scan: longest gap between ARP requests of one sender
    last, longest = {}, None
    for at, direction, data in trace.frames_for("S1"):
        meta = parse_frame(data, at, direction)
        if meta.arp is None or meta.arp.op is not ArpOp.REQUEST:
            continue
        prev = last.get(meta.arp.sender_mac)
        last[meta.arp.sender_mac] = at
        if prev is not None and (longest is None or at - prev > longest):
            longest = at - prev
    assert longest is not None
    expected = "suggested learning duration: %.1f s" % (2 * longest / 1e6)
    assert expected in err

    gaps = ArpRequestGaps()
    assert list(gaps.watch(trace.frames_for("S1"))) == list(trace.frames_for("S1"))
    assert gaps.longest == longest


def test_learn_memory_does_not_grow_with_capture_length(tmp_path, capsys):
    short, _ = _write_viewpoint_pcap(tmp_path, "short.pcap", duration_s=60, seed=4)
    long, _ = _write_viewpoint_pcap(tmp_path, "long.pcap", duration_s=600, seed=4)

    def peak_bytes(pcap):
        tracemalloc.start()
        try:
            assert main(["learn", "--pcap", str(pcap), "-o", str(tmp_path / "m")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(short)  # warm-up: first-call allocations are not per frame
    assert peak_bytes(long) <= 1.5 * peak_bytes(short)


def test_learn_empty_pcap_fails(tmp_path, capsys):
    empty = tmp_path / "empty.pcap"
    with open(empty, "wb") as handle:
        write_pcap(handle, [])
    assert main(["learn", "--pcap", str(empty), "-o", str(tmp_path / "x")]) == 2
    assert "no frames" in capsys.readouterr().err


def test_learn_garbage_file_fails(tmp_path, capsys):
    bad = tmp_path / "bad.pcap"
    bad.write_bytes(b"this is not a capture")
    assert main(["learn", "--pcap", str(bad), "-o", str(tmp_path / "x")]) == 2


def test_detect_benign_replay_exits_zero(tmp_path, capsys):
    pcap, _ = _write_viewpoint_pcap(tmp_path, "benign.pcap", duration_s=900, seed=7)
    code = main(["detect", "--learn-first", "600", "--pcap", str(pcap)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == ""


def test_detect_flood_exits_one_with_events(tmp_path, capsys):
    flood = sim.AttackScenario(sim.ScenarioKind.DOS_FLOOD, start_us=650 * S,
                               target="S1")
    pcap, _ = _write_viewpoint_pcap(tmp_path, "flood.pcap", duration_s=680,
                                    seed=7, scenarios=[flood])
    code = main(["detect", "--learn-first", "600", "--pcap", str(pcap)])
    out = capsys.readouterr().out
    assert code == 1
    assert "TooFast" in out or "NewFlow" in out


def test_detect_passive_sniffing_exits_zero(tmp_path, capsys):
    passive = sim.AttackScenario(sim.ScenarioKind.PASSIVE_SNIFF, start_us=650 * S)
    pcap, _ = _write_viewpoint_pcap(tmp_path, "passive.pcap", duration_s=680,
                                    seed=7, scenarios=[passive])
    assert main(["detect", "--learn-first", "600", "--pcap", str(pcap)]) == 0
    assert capsys.readouterr().out == ""


def test_detect_with_model_file(tmp_path, capsys):
    pcap, _ = _write_viewpoint_pcap(tmp_path, "benign.pcap", duration_s=700, seed=9)
    model = tmp_path / "plant.model"
    assert main(["learn", "--pcap", str(pcap), "-o", str(model)]) == 0
    assert main(["detect", "--model", str(model), "--pcap", str(pcap)]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("case", [
    "missing-pcap", "not-a-pcap", "raw-ip-pcap", "missing-model", "bad-model-header",
])
def test_detect_bad_input_exits_two(tmp_path, capsys, case):
    pcap, _ = _write_viewpoint_pcap(tmp_path, "good.pcap", duration_s=5)
    model = tmp_path / "plant.model"
    mode = ["--learn-first", "30"]
    if case == "missing-pcap":
        pcap = tmp_path / "absent.pcap"
    elif case == "not-a-pcap":
        pcap.write_bytes(b"this is not a capture")
    elif case == "raw-ip-pcap":
        data = bytearray(pcap.read_bytes())
        data[20:24] = struct.pack("<I", 101)  # global header link type: raw IP
        pcap.write_bytes(bytes(data))
    elif case == "missing-model":
        mode = ["--model", str(model)]
    else:
        model.write_bytes(b"NOT-A-MODEL\n")
        mode = ["--model", str(model)]
    assert main(["detect", "--pcap", str(pcap)] + mode) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("eids: ")


def test_simulate_writes_pcap(tmp_path, capsys):
    out = tmp_path / "sim.pcap"
    code = main([
        "simulate", "--duration", "30", "--seed", "5",
        "--scenario", "5:start=10,target=S1,rate=500",
        "--pcap-out", str(out),
    ])
    assert code == 0
    assert out.stat().st_size > 24
    assert "wrote" in capsys.readouterr().err


def test_stats_csv_to_stdout(tmp_path, capsys):
    code = main([
        "stats", "--sim", "--duration", "30", "--seed", "2",
        "--flow", "tcp:192.168.1.101:502",
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "flow,timestamp_us,interarrival_us"
    assert len(lines) > 50


def test_stats_unmatched_filter_header_only(capsys):
    code = main([
        "stats", "--sim", "--duration", "5", "--seed", "2",
        "--flow", "udp:10.0.0.1:9",
    ])
    assert code == 0
    assert capsys.readouterr().out == "flow,timestamp_us,interarrival_us\n"


def test_stats_bad_filter_exits_two(capsys):
    assert main(["stats", "--sim", "--duration", "1", "--flow", "nope"]) == 2


def test_logger_over_loopback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EIDS_PSK", "loopback-psk")
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    result = {}

    log_file = tmp_path / "transitions.log"

    def serve():
        result["code"] = main([
            "logger", "--bind", "127.0.0.1", "--port", str(port),
            "--duration", "2.5", "--log-file", str(log_file),
        ])

    thread = threading.Thread(target=serve)
    thread.start()
    time.sleep(0.4)
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    now_ms = int(time.time() * 1000)
    sender.sendto(encode(StatusMessage(2, now_ms, False, True, 0), b"loopback-psk"),
                  ("127.0.0.1", port))
    sender.sendto(encode(StatusMessage(3, now_ms, True, True, 0), b"loopback-psk"),
                  ("127.0.0.1", port))
    sender.sendto(b"junk-datagram", ("127.0.0.1", port))
    thread.join(timeout=10)
    sender.close()

    assert result.get("code") == 0
    out = capsys.readouterr().out
    assert "ID: 2 is up Intrusion: no" in out
    assert "ID: 3 is up Intrusion: yes" in out
    transitions = log_file.read_text().splitlines()
    assert any(line.endswith("\t2\tup") for line in transitions)


def test_config_file_drives_simulation(tmp_path, capsys):
    config = tmp_path / "plant.ini"
    config.write_text(
        "[profile]\n"
        "poll_period_ms = 100\n"
        "response_delay_ms = 2,5\n"
        "[engine]\n"
        "delta = 0.3\n"
        "[scenarios]\n"
        "attack = 5:start=40,target=S1,stop=50\n"
    )
    code = main([
        "detect", "--learn-first", "30", "--sim", "--duration", "60",
        "--seed", "3", "--config", str(config),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "TooFast" in out
