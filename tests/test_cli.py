"""Command-line behavior: exit codes, outputs, pipelines."""

import contextlib
import os
import re
import socket
import struct
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from eids import sim
from eids.announce import StatusMessage, encode
from eids.central import CentralLogger
from eids.cli import ArpRequestGaps, build_parser, load_config, main
from eids.packet import ArpOp, parse_frame
from eids.pcap import read_pcap, write_pcap

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
    # for one target
    last, longest = {}, None
    for at, direction, data in trace.frames_for("S1"):
        meta = parse_frame(data)
        if meta.arp is None or meta.arp.op is not ArpOp.REQUEST:
            continue
        pair = (meta.arp.sender_mac, meta.arp.target_ip)
        prev = last.get(pair)
        last[pair] = at
        if prev is not None and (longest is None or at - prev > longest):
            longest = at - prev
    assert longest is not None
    expected = "suggested learning duration: %.1f s" % (2 * longest / 1e6)
    assert expected in err

    gaps = ArpRequestGaps()
    assert list(gaps.watch(trace.frames_for("S1"))) == list(trace.frames_for("S1"))
    assert gaps.longest == longest


def test_learn_suggests_nothing_without_a_repeated_arp_request(tmp_path, capsys):
    # 120 s is shorter than any host's ARP refresh cycle (180-360 s), so
    # no sender asks for the same target twice; the PLC's requests for
    # its eleven peers, 2.5 ms apart, are not a refresh gap
    pcap, _ = _write_viewpoint_pcap(tmp_path, "short.pcap", duration_s=120, seed=9)
    assert main(["learn", "--pcap", str(pcap), "--learning-duration", "90",
                 "-o", str(tmp_path / "m.model")]) == 0
    err = capsys.readouterr().err
    assert "suggested learning duration: n/a (no repeated ARP requests)" in err


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


def test_detect_memory_does_not_grow_with_event_count(tmp_path, capsys):
    def flood_pcap(name, flood_s):
        flood = sim.AttackScenario(sim.ScenarioKind.DOS_FLOOD, start_us=70 * S,
                                   target="S1")
        pcap, _ = _write_viewpoint_pcap(tmp_path, name, duration_s=70 + flood_s,
                                        seed=4, scenarios=[flood])
        return pcap

    short, long = flood_pcap("short.pcap", 5), flood_pcap("long.pcap", 20)

    def peak_bytes(pcap):
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                assert main(["detect", "--learn-first", "60", "--pcap", str(pcap)]) == 1
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(short)  # warm-up: first-call allocations are not per event
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


_TAIL_SILENT = {
    "arp": "1970-01-01T00:00:30.003037Z\t1\tHostSilent\tarp/02:00:ac:10:01:32"
           "\tsilent since 68885us\n",
    # after the last frame (59.909531 s), seen only by ticking past it
    "tcp": "1970-01-01T00:01:00.103037Z\t1\tHostSilent"
           "\ttcp/192.168.1.50->192.168.1.101:502\tsilent since 59909531us\n",
}


@pytest.mark.parametrize("tail, expected", [
    ([], _TAIL_SILENT["arp"]),
    (["--tail-us", "1000000"], _TAIL_SILENT["arp"] + _TAIL_SILENT["tcp"]),
], ids=["default", "one-second-tail"])
def test_detect_tail_us_reports_silence_after_last_frame(tmp_path, capsys, tail, expected):
    pcap, _ = _write_viewpoint_pcap(tmp_path, "s1.pcap", duration_s=60, seed=3)
    code = main(["detect", "--learn-first", "30", "--pcap", str(pcap)] + tail)
    assert (code, capsys.readouterr().out) == (1, expected)


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


@pytest.mark.parametrize("case", [
    "sim-unknown-local-ip", "learn-bad-config", "detect-bad-config", "stats-bad-config",
    "learn-unwritable-out", "simulate-unwritable-out", "simulate-unknown-scenario",
    "detect-learn-first-zero", "simulate-duration-inf", "simulate-scenario-start-inf",
    "detect-learn-first-inf", "stats-duration-inf",
])
def test_input_error_exits_two(tmp_path, capsys, case):
    config = tmp_path / "plant.ini"
    config.write_text("[profile]\npoll_period_ms = abc\n")
    sim_input = ["--sim", "--duration", "5"]
    absent_dir = tmp_path / "absent"
    argv = {
        "sim-unknown-local-ip":
            ["detect", "--learn-first", "30", "--local-ip", "10.9.9.9"] + sim_input,
        "learn-bad-config": ["learn", "--config", str(config), "-o", "m"] + sim_input,
        "detect-bad-config": ["detect", "--learn-first", "30", "--config", str(config)]
            + sim_input,
        "stats-bad-config": ["stats", "--config", str(config), "--flow", "udp:10.0.0.1:9"]
            + sim_input,
        "learn-unwritable-out": ["learn", "-o", str(absent_dir / "m")] + sim_input,
        "simulate-unwritable-out":
            ["simulate", "--duration", "5", "--pcap-out", str(absent_dir / "x.pcap")],
        "simulate-unknown-scenario": ["simulate", "--duration", "5", "--scenario", "9",
                                      "--pcap-out", str(tmp_path / "x.pcap")],
        "detect-learn-first-zero": ["detect", "--learn-first", "0"] + sim_input,
        "simulate-duration-inf":
            ["simulate", "--duration", "inf", "--pcap-out", str(tmp_path / "x.pcap")],
        "simulate-scenario-start-inf": ["simulate", "--duration", "10", "--scenario",
                                        "5:start=inf", "--pcap-out", str(tmp_path / "x.pcap")],
        "detect-learn-first-inf": ["detect", "--learn-first", "inf", "--duration", "1"],
        "stats-duration-inf": ["stats", "--duration", "inf", "--flow", "tcp:1.2.3.4:5"],
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("eids: ")


@pytest.mark.parametrize("line, key", [
    ("poll_period_ms = abc", "poll_period_ms"),
    ("response_delay_ms = 2", "response_delay_ms"),
], ids=["not-a-number", "one-value-range"])
def test_config_error_names_file_section_and_key(tmp_path, capsys, line, key):
    config = tmp_path / "plant.ini"
    config.write_text("[profile]\n%s\n" % line)
    argv = ["stats", "--config", str(config), "--flow", "udp:10.0.0.1:9", "--sim",
            "--duration", "5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("eids: %s: [profile] %s: " % (config, key))
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("text, where", [
    ("[engine]\ndelat = 0.9\n", "[engine] delat: unknown key"),
    ("[engine]\nlearning_duration_s = 10\n", "[engine] learning_duration_s: unknown key"),
    ("[profile]\npoll_period = 50\n", "[profile] poll_period: unknown key"),
    ("[topology]\nsensors = 3\nactors = 2\n", "[topology] actors: unknown key"),
    ("[typo]\nsensors = 3\n", "[typo]: unknown section"),
    ("[DEFAULT]\ndelta = 0.9\n[engine]\n", "[DEFAULT]: unknown section"),
], ids=["engine-typo", "engine-removed", "profile-typo", "topology", "section", "default"])
def test_unknown_config_section_or_key_is_an_input_error(tmp_path, capsys, text, where):
    config = tmp_path / "plant.ini"
    config.write_text(text)
    argv = ["stats", "--config", str(config), "--flow", "udp:10.0.0.1:9", "--sim",
            "--duration", "5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "eids: %s: %s\n" % (config, where)


@pytest.mark.parametrize("command", [
    ["learn", "-o", "m"],
    ["detect", "--learn-first", "30"],
    ["stats", "--flow", "udp:10.0.0.1:9"],
], ids=lambda argv: argv[0])
def test_config_without_section_header_is_one_line(tmp_path, capsys, command):
    config = tmp_path / "plant.ini"
    config.write_text("poll_period_ms = 100\n")
    argv = command + ["--config", str(config), "--sim", "--duration", "5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("eids: %s: " % config)


def test_learn_unwritable_out_fails_before_reading_input(tmp_path, monkeypatch, capsys):
    replays = []
    monkeypatch.setattr("eids.cli.replay", lambda *args, **kwargs: replays.append(args))
    out = tmp_path / "absent" / "m.model"
    assert main(["learn", "--sim", "--duration", "600", "-o", str(out)]) == 2
    assert replays == []
    assert capsys.readouterr().err.startswith("eids: ")


def test_failed_learn_keeps_existing_model_and_leaves_no_new_file(tmp_path, capsys):
    empty = tmp_path / "empty.pcap"
    with open(empty, "wb") as handle:
        write_pcap(handle, [])
    model = tmp_path / "plant.model"
    model.write_bytes(b"EIDS-MODEL 1\nprevious\n")
    assert main(["learn", "--pcap", str(empty), "-o", str(model)]) == 2
    assert model.read_bytes() == b"EIDS-MODEL 1\nprevious\n"
    fresh = tmp_path / "fresh.model"
    assert main(["learn", "--pcap", str(empty), "-o", str(fresh)]) == 2
    assert not fresh.exists()


def test_broken_pipe_exits_zero(tmp_path, monkeypatch):
    class ClosedPipe:
        def __init__(self, handle):
            self.handle = handle

        def write(self, _text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.handle.fileno()

    with open(tmp_path / "stdout", "w") as handle:
        monkeypatch.setattr("sys.stdout", ClosedPipe(handle))
        code = main(["stats", "--sim", "--duration", "5", "--flow", "udp:10.0.0.1:9"])
    assert code == 0


@pytest.mark.parametrize("command, parses_per_frame", [
    (["detect", "--learn-first", "30"], 1),
    (["learn", "-o", "m.model"], 2),
], ids=["detect", "learn"])
def test_parses_per_frame(tmp_path, monkeypatch, command, parses_per_frame):
    pcap, _ = _write_viewpoint_pcap(tmp_path, "small.pcap", duration_s=60)
    with open(pcap, "rb") as handle:
        frame_count = sum(1 for _ in read_pcap(handle))
    calls = []

    def counted(data):
        calls.append(data)
        return parse_frame(data)

    monkeypatch.setattr("eids.engine.parse_frame", counted)
    monkeypatch.setattr("eids.cli.parse_frame", counted)
    monkeypatch.chdir(tmp_path)
    assert main(command + ["--pcap", str(pcap)]) in (0, 1)
    assert frame_count > 0
    assert len(calls) == parses_per_frame * frame_count


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


def test_logger_stamps_datagrams_when_they_arrive(capsys, monkeypatch):
    stamps = []

    class RecordingLogger(CentralLogger):
        def on_datagram(self, data, now_us):
            stamps.append((data, now_us))
            return super().on_datagram(data, now_us)

    monkeypatch.setattr("eids.cli.CentralLogger", RecordingLogger)
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    result = {}

    def serve():
        result["code"] = main(["logger", "--bind", "127.0.0.1", "--port", str(port),
                               "--duration", "1.5"])

    thread = threading.Thread(target=serve)
    thread.start()
    time.sleep(0.3)
    sent = {}
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
        # spaced so that each one arrives while the logger waits in recvfrom
        for k in range(5):
            payload = b"probe-%d" % k
            sent[payload] = int(time.time() * 1e6)
            sender.sendto(payload, ("127.0.0.1", port))
            time.sleep(0.13)
    thread.join(timeout=10)

    assert result.get("code") == 0
    assert sorted(data for data, _ in stamps) == sorted(sent)
    for data, now_us in stamps:
        assert now_us >= sent[data], "stamp %d us before the send" % (sent[data] - now_us)


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


def test_config_values_are_literal(tmp_path):
    config = tmp_path / "plant.ini"
    config.write_text("[profile]\npsk = ab%cd\n")
    _topology, profile, _engine, _scenarios = load_config(str(config))
    assert profile.psk == b"ab%cd"


def _assert_rejected_before_traffic(tmp_path, capsys, monkeypatch, spec):
    def no_traffic(*_args):
        raise AssertionError("traffic built for an invalid scenario")

    monkeypatch.setattr(sim, "_gen_arp", no_traffic)
    out = tmp_path / "x.pcap"
    assert main(["simulate", "--duration", "40", "--scenario", spec,
                 "--pcap-out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("eids: ")
    assert not out.exists()


@pytest.mark.parametrize("spec", [
    "8:start=25,target=S2,peer=S2", "8:start=25,target=S1", "8:start=25,target=S2,peer=nope",
], ids=["peer-is-target", "default-peer-is-target", "unknown-peer"])
def test_capture_node_peer_checked_before_traffic_is_built(tmp_path, capsys, monkeypatch,
                                                           spec):
    _assert_rejected_before_traffic(tmp_path, capsys, monkeypatch, spec)


@pytest.mark.parametrize("spec", ["5:rate=0", "5:rate=-5"], ids=["zero", "negative"])
def test_scenario_rate_below_one_rejected_before_traffic_is_built(tmp_path, capsys,
                                                                   monkeypatch, spec):
    # a negative rate must never reach the flood generator: it would emit
    # one frame per microsecond for the rest of the run
    _assert_rejected_before_traffic(tmp_path, capsys, monkeypatch, spec)


@pytest.mark.parametrize("spec", [
    "4:start=20,stop=10,target=S2", "1:start=10,stop=-1,target=S2", "5:start=10,stop=10",
], ids=["stop-before-start", "negative-stop", "stop-at-start"])
def test_scenario_stop_not_after_start_rejected_before_traffic_is_built(tmp_path, capsys,
                                                                        monkeypatch, spec):
    _assert_rejected_before_traffic(tmp_path, capsys, monkeypatch, spec)


def test_readme_command_lines_parse():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.DOTALL).group(1)
    parser = build_parser()
    commands = set()
    for line in block.replace("\\\n", " ").splitlines():
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        while "=" in words[0]:
            words.pop(0)  # VAR=value environment prefix
        assert words[0] == "eids", line
        try:
            args = parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail("README command line does not parse: %s" % line)
        commands.add(args.command)
    assert commands == {"learn", "detect", "simulate", "logger", "bench", "stats"}


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
    config = tmp_path / "plant.ini"
    config.write_text(block)
    topology, profile, engine, scenarios = load_config(str(config))
    assert topology == sim.Topology.default(8)
    assert profile == sim.TrafficProfile(
        poll_period_us=100_000, response_delay_us=(2_000, 5_000), jitter_frac=0.02,
        status_period_us=10 * S, arp_expiry_us=(180 * S, 360 * S), status_port=47808,
        psk=b"eids-testbed-psk",
    )
    assert engine == {"delta": 0.3, "delta_arp": 1.0, "window": 16, "alpha": 1 / 256}
    assert scenarios == [
        sim.AttackScenario(sim.ScenarioKind.DOS_FLOOD, start_us=650 * S, target="S1")
    ]
