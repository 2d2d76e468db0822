"""Command-line behavior: exit codes, outputs, pipelines."""

import contextlib
import gc
import heapq
import os
import re
import socket
import struct
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from eids import cli, frames, sim
from eids.announce import StatusMessage, encode
from eids.central import CentralLogger
from eids.cli import ArpRequestGaps, build_parser, load_config, main
from eids.engine import Engine, EngineConfig
from eids.flows import FlowTable, Mode
from eids.packet import TCP_ACK, TCP_PSH, ArpOp, ParseError, header_signature, parse_frame
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


def test_stats_memory_does_not_grow_with_capture_length(tmp_path, capsys):
    short, _ = _write_viewpoint_pcap(tmp_path, "short.pcap", duration_s=60, seed=4)
    long, _ = _write_viewpoint_pcap(tmp_path, "long.pcap", duration_s=240, seed=4)

    def peak_bytes(pcap):
        tracemalloc.start()
        try:
            # ARP requests are rare, so the CSV stays a few lines long
            assert main(["stats", "--pcap", str(pcap), "--flow", "arp-req:192.168.1.101"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(short)  # warm-up: first-call allocations are not per frame
    assert peak_bytes(long) <= peak_bytes(short) + 64 * 1024


class _LineCounter:
    """A standard output that counts lines and keeps none of them."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")

    def flush(self):
        pass


def test_detect_memory_does_not_grow_with_event_count(tmp_path, capsys):
    """A 20 s flood on S1 from 70 s peaks within 1.5x of a 5 s one. The DoS
    flood is one TooFast burst, a few lines however long it runs; a flood
    from a fresh source port per frame raises one NewFlow per frame, so
    its long input writes about 4x the lines of its short one."""
    def dos_pcap(name, flood_s):
        flood = sim.AttackScenario(sim.ScenarioKind.DOS_FLOOD, start_us=70 * S,
                                   target="S1")
        pcap, _ = _write_viewpoint_pcap(tmp_path, name, duration_s=70 + flood_s,
                                        seed=4, scenarios=[flood])
        return pcap

    def fresh_port_pcap(name, flood_s):
        trace = sim.run(duration_us=(70 + flood_s) * S, seed=4)
        s1, s2 = trace.topology.device("S1"), trace.topology.device("S2")
        flood = (
            (70 * S + k * 1000,
             frames.tcp_frame(s2.mac, s1.mac, s2.ip, s1.ip, 10_000 + k, 502, TCP_PSH | TCP_ACK,
                              frames.modbus_read_request(k, 1)))
            for k in range(flood_s * 1000)
        )
        view = ((at_us, data) for at_us, _, data in trace.frames_for("S1"))
        with open(tmp_path / name, "wb") as handle:
            write_pcap(handle, heapq.merge(view, flood, key=lambda record: record[0]))
        return tmp_path / name

    def peak_bytes_and_lines(pcap):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(_LineCounter()) as out:
                assert main(["detect", "--learn-first", "60", "--pcap", str(pcap)]) == 1
            return tracemalloc.get_traced_memory()[1], out.lines
        finally:
            tracemalloc.stop()

    for make_pcap in (dos_pcap, fresh_port_pcap):
        short = make_pcap("short-%s.pcap" % make_pcap.__name__, 5)
        long = make_pcap("long-%s.pcap" % make_pcap.__name__, 20)
        peak_bytes_and_lines(short)  # warm-up: first-call allocations are not per event
        (short_peak, short_lines), (long_peak, long_lines) = map(peak_bytes_and_lines,
                                                                 (short, long))
        assert long_peak <= 1.5 * short_peak
        if make_pcap is fresh_port_pcap:
            assert (short_lines, long_lines) == (5_001, 20_001)  # and one HostSilent


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


def test_learned_model_holds_the_learning_mean_not_the_runtime_one(tmp_path, capsys):
    # 100 polls 100 ms apart, then 300 polls 120 ms apart after learning
    # ends at 10 s: the later polls nudge the runtime mean, not the model
    times = [k * 100_000 for k in range(100)] + [9_900_000 + j * 120_000
                                                 for j in range(1, 301)]
    poll = frames.tcp_frame("02:00:ac:10:01:32", "02:00:ac:10:01:65", "192.168.1.50",
                            "192.168.1.101", 49152, 502, 0x18,
                            frames.modbus_read_request(1, 1))
    pcap = tmp_path / "polls.pcap"
    with open(pcap, "wb") as handle:
        write_pcap(handle, [(at, poll) for at in times])
    model = tmp_path / "m.model"
    assert main(["learn", "--pcap", str(pcap), "--learning-duration", "10",
                 "-o", str(model)]) == 0
    timing = [line for line in model.read_text().splitlines() if line.startswith("TIMING")]
    assert timing == ["TIMING\tTcp\t192.168.1.50\t192.168.1.101\t502"
                      "\t100000\t100000\t100000\t99\t300"]
    assert "flows learned: 1\narp bindings: 0\n" in capsys.readouterr().err


def test_learn_and_detect_across_a_clock_step_to_wall_time(tmp_path, capsys, monkeypatch):
    # a node whose clock steps from 1970 to wall time at NTP sync: 100
    # polls 100 ms apart from 0 s, then 100 more from 1.78e9 s; a tick
    # every 100 ms across the step would be 1.78e10 calls
    step_us = 1_780_000_000 * S
    times = [k * 100_000 for k in range(100)] + [step_us + k * 100_000 for k in range(100)]
    poll = frames.tcp_frame("02:00:ac:10:01:32", "02:00:ac:10:01:65", "192.168.1.50",
                            "192.168.1.101", 49152, 502, 0x18,
                            frames.modbus_read_request(1, 1))
    pcap = tmp_path / "stepped.pcap"
    with open(pcap, "wb") as handle:
        write_pcap(handle, [(at, poll) for at in times])
    ticks = []
    tick = Engine.tick

    def counted_tick(self, now_us):
        ticks.append(now_us)
        assert len(ticks) < 10_000, "ticking through the clock step"
        return tick(self, now_us)

    monkeypatch.setattr(Engine, "tick", counted_tick)
    model = tmp_path / "m.model"
    assert main(["learn", "--pcap", str(pcap), "--learning-duration", "5",
                 "-o", str(model)]) == 0
    assert model.read_text().splitlines()[-1] == (
        "TIMING\tTcp\t192.168.1.50\t192.168.1.101\t502\t100000\t100000\t100000\t49\t300")
    capsys.readouterr()
    flow = "tcp/192.168.1.50->192.168.1.101:502"
    expected = [
        # at its deadline: the last poll plus the 130 ms high edge
        "1970-01-01T00:00:10.030000Z\t1\tHostSilent\t%s\tsilent since 9900000us" % flow,
        "2026-05-28T20:26:40.000000Z\t1\tTooSlow\t%s\tdt=%dus outside (70000us, 130000us)"
        % (flow, step_us - 9_900_000),
        "2026-05-28T20:26:40.100000Z\t1\tTooSlow\t%s\tburst ended: frames=1 last=%dus"
        % (flow, step_us),
    ]
    for mode in (["--model", str(model)], ["--learn-first", "5"]):
        assert main(["detect", "--pcap", str(pcap)] + mode) == 1
        assert capsys.readouterr().out.splitlines() == expected
    assert len(ticks) < 1000


def test_learn_first_and_model_round_trip_use_one_delta(tmp_path, capsys):
    # --delta 0.0004 is 0 in whole thousandths, for learn-first and for a
    # model alike: after learning ends at 4.5 s, polls exactly at the
    # learned 100 ms minimum and 200 ms maximum are on the band's edges
    gaps = [150_000, 100_000, 200_000] * 10 + [100_000, 200_000, 150_000] * 10
    times = [sum(gaps[:k]) for k in range(len(gaps) + 1)]
    poll = frames.tcp_frame("02:00:ac:10:01:32", "02:00:ac:10:01:65", "192.168.1.50",
                            "192.168.1.101", 49152, 502, 0x18,
                            frames.modbus_read_request(1, 1))
    pcap = tmp_path / "polls.pcap"
    with open(pcap, "wb") as handle:
        write_pcap(handle, [(at, poll) for at in times])
    # a window no run fills: only the min/max band and silence apply
    engine = ["--delta", "0.0004", "--window", "1000", "--pcap", str(pcap)]
    model = tmp_path / "m.model"
    assert main(["learn", "--learning-duration", "4.5", "-o", str(model)] + engine) == 0
    assert main(["detect", "--learn-first", "4.5"] + engine) == 1
    learn_first = capsys.readouterr().out.splitlines()
    assert main(["detect", "--model", str(model)] + engine) == 1
    from_model = capsys.readouterr().out.splitlines()
    assert "\t0\n" in model.read_text()
    # the model's engine, active from the start, also ends at 4.5 s the
    # burst it opened at 4.3 s, while the other engine was learning
    carried = ("1970-01-01T00:00:04.500000Z\t1\tTooFast\ttcp/192.168.1.50->192.168.1.101:502"
               "\tburst ended: frames=1 last=4300000us")
    after_learning = [line for line in from_model if line >= "1970-01-01T00:00:04.5"]
    after_learning.remove(carried)
    assert after_learning == learn_first
    assert {line.split("\t")[2] for line in learn_first} == {"TooFast", "TooSlow", "HostSilent"}


_TAIL_SILENT = {
    "arp": "1970-01-01T00:00:30.003037Z\t1\tHostSilent\tarp/02:00:ac:10:01:32"
           "\tsilent since 68885us\n",
    # after the last frame (59.909531 s), at its deadline, seen only by
    # ticking past it
    "tcp": "1970-01-01T00:01:00.041151Z\t1\tHostSilent"
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
    "detect-learn-first-inf", "stats-duration-inf", "stats-garbage-pcap-any-filter",
    "detect-alpha-flag", "simulate-status-port-70000", "simulate-attacker-ip-five-parts",
    "simulate-attacker-ip-three-parts", "simulate-attacker-mac-seven-octets",
    "simulate-attacker-mac-five-octets", "simulate-arp-expiry-empty", "detect-tail-us-negative",
])
def test_input_error_exits_two(tmp_path, capsys, case):
    config = tmp_path / "plant.ini"
    config.write_text("[profile]\npoll_period_ms = abc\n")
    port_config = tmp_path / "port.ini"
    port_config.write_text("[profile]\nstatus_port = 70000\n")
    arp_config = tmp_path / "arp.ini"
    arp_config.write_text("[profile]\narp_expiry_s = 100,100\n")
    garbage = tmp_path / "garbage.pcap"
    garbage.write_bytes(b"this is not a capture")
    sim_input = ["--duration", "5"]
    sim_out = sim_input + ["--pcap-out", str(tmp_path / "x.pcap")]
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
        # the open bursts would close before the frames they count
        "detect-tail-us-negative": ["detect", "--learn-first", "3", "--tail-us", "-1"]
            + sim_input,
        "simulate-duration-inf":
            ["simulate", "--duration", "inf", "--pcap-out", str(tmp_path / "x.pcap")],
        "simulate-scenario-start-inf": ["simulate", "--duration", "10", "--scenario",
                                        "5:start=inf", "--pcap-out", str(tmp_path / "x.pcap")],
        "detect-learn-first-inf": ["detect", "--learn-first", "inf", "--duration", "1"],
        "stats-duration-inf": ["stats", "--duration", "inf", "--flow", "tcp:1.2.3.4:5"],
        # a filter host that is no address matches nothing, but the capture is still read
        "stats-garbage-pcap-any-filter": ["stats", "--pcap", str(garbage), "--flow", "tcp:S1:502"],
        # the runtime mean's weight is fixed at 1/256: no flag sets it
        "detect-alpha-flag": ["detect", "--learn-first", "30", "--alpha", "0.5"] + sim_input,
        # a port past 16 bits, or an address longer or shorter than its
        # frame field, would crash the frame builder or be cut or padded
        "simulate-status-port-70000": ["simulate", "--config", str(port_config)] + sim_out,
        "simulate-attacker-ip-five-parts":
            ["simulate", "--scenario", "2:attacker-ip=1.2.3.4.5"] + sim_out,
        "simulate-attacker-ip-three-parts":
            ["simulate", "--scenario", "2:attacker-ip=1.2.3"] + sim_out,
        "simulate-attacker-mac-seven-octets":
            ["simulate", "--scenario", "6:attacker-mac=02:00:ac:10:01:c8:07"] + sim_out,
        "simulate-attacker-mac-five-octets":
            ["simulate", "--scenario", "3:target=S2,attacker-mac=02:00:ac:10:01"] + sim_out,
        # an ARP refresh interval is drawn from [low, high): equal ends leave none
        "simulate-arp-expiry-empty": ["simulate", "--config", str(arp_config)] + sim_out,
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("eids: ")
    assert not (tmp_path / "x.pcap").exists()
    if case == "simulate-arp-expiry-empty":
        assert "arp expiry range" in captured.err


@pytest.mark.parametrize("line, key", [
    ("poll_period_ms = abc", "poll_period_ms"),
    ("response_delay_ms = 2", "response_delay_ms"),
], ids=["not-a-number", "one-value-range"])
def test_config_error_names_file_section_and_key(tmp_path, capsys, line, key):
    config = tmp_path / "plant.ini"
    config.write_text("[profile]\n%s\n" % line)
    argv = ["stats", "--config", str(config), "--flow", "udp:10.0.0.1:9",
            "--duration", "5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("eids: %s: [profile] %s: " % (config, key))
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("text, where", [
    ("[engine]\ndelat = 0.9\n", "[engine] delat: unknown key"),
    ("[engine]\nlearning_duration_s = 10\n", "[engine] learning_duration_s: unknown key"),
    ("[engine]\nalpha = 0.5\n", "[engine] alpha: unknown key"),  # the weight is fixed
    ("[profile]\npoll_period = 50\n", "[profile] poll_period: unknown key"),
    ("[topology]\nsensors = 3\nactors = 2\n", "[topology] actors: unknown key"),
    ("[typo]\nsensors = 3\n", "[typo]: unknown section"),
    ("[DEFAULT]\ndelta = 0.9\n[engine]\n", "[DEFAULT]: unknown section"),
], ids=["engine-typo", "engine-removed", "engine-alpha", "profile-typo", "topology", "section",
        "default"])
def test_unknown_config_section_or_key_is_an_input_error(tmp_path, capsys, text, where):
    config = tmp_path / "plant.ini"
    config.write_text(text)
    argv = ["stats", "--config", str(config), "--flow", "udp:10.0.0.1:9",
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
    argv = command + ["--config", str(config), "--duration", "5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("eids: %s: " % config)


def test_learn_unwritable_out_fails_before_reading_input(tmp_path, monkeypatch, capsys):
    replays = []
    monkeypatch.setattr("eids.cli.replay", lambda *args, **kwargs: replays.append(args))
    out = tmp_path / "absent" / "m.model"
    assert main(["learn", "--duration", "600", "-o", str(out)]) == 2
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
        code = main(["stats", "--duration", "5", "--flow", "udp:10.0.0.1:9"])
    assert code == 0


def _active_parses(frames):
    """Parses an active engine makes on pcap frames: one per frame that
    header_signature rejects, one per distinct signature it admits. A
    pcap says no direction, so every frame probes as not sent."""
    signatures = [header_signature(data) for data in frames]
    return signatures.count(None) + len(set(signatures) - {None})


def _learning_parses(frames):
    """Parses a learning engine makes on pcap frames: one per frame that
    header_signature rejects, one per signature missing from the table,
    which empties after each parse that admitted a flow."""
    table, kept, parses = FlowTable(cli.DEFAULT_LOCAL_IP), set(), 0
    for data in frames:
        signature = header_signature(data)
        if signature is not None and signature in kept:
            continue
        parses += 1
        try:
            meta = parse_frame(data)
        except ParseError:
            continue
        flows = len(table.flows)
        table.observe(meta, Mode.LEARNING, table.key_for(meta, None))
        if len(table.flows) != flows:
            kept.clear()
        elif signature is not None:
            kept.add(signature)
    return parses


@pytest.mark.parametrize("command", ["detect", "learn", "detect-model"])
def test_parses_per_frame(tmp_path, monkeypatch, command):
    pcap, _ = _write_viewpoint_pcap(tmp_path, "small.pcap", duration_s=60)
    with open(pcap, "rb") as handle:
        records = list(read_pcap(handle))
    frames = [data for _ts, data in records]
    model = tmp_path / "m.model"
    assert main(["learn", "--pcap", str(pcap), "-o", str(model)]) == 0
    # learning ends on the tick 30 s after the first frame
    learning = [data for ts, data in records if ts - records[0][0] < 30 * S]
    active = frames[len(learning):]
    # learn's ARP watch parses all but untagged IPv4 (ethertype 08 00)
    watched = sum(data[12:14] != b"\x08\x00" for data in frames)
    # the count if every learning frame were parsed
    argv, expected, parsed_every_learning_frame = {
        "detect": (["detect", "--learn-first", "30"],
                   _learning_parses(learning) + _active_parses(active),
                   len(learning) + _active_parses(active)),
        "learn": (["learn", "-o", str(model)], watched + _learning_parses(frames),
                  watched + len(frames)),
        "detect-model": (["detect", "--model", str(model)], _active_parses(frames), None),
    }[command]
    calls = []

    def counted(data):
        calls.append(data)
        return parse_frame(data)

    monkeypatch.setattr("eids.engine.parse_frame", counted)
    monkeypatch.setattr("eids.cli.parse_frame", counted)
    assert main(argv + ["--pcap", str(pcap)]) in (0, 1)
    assert {data[12:14] for data in frames} >= {b"\x08\x00", b"\x08\x06"}
    assert len(calls) == expected
    if parsed_every_learning_frame is not None:
        assert expected < parsed_every_learning_frame
    # the capture has frames the guard rejects; the active part repeats signatures
    assert None in map(header_signature, frames)
    admitted = [sig for sig in map(header_signature, active) if sig is not None]
    assert len(set(admitted)) < len(admitted)


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
        "stats", "--duration", "30", "--seed", "2",
        "--flow", "tcp:192.168.1.101:502",
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "flow,timestamp_us,interarrival_us"
    assert len(lines) > 50


def test_stats_unmatched_filter_header_only(capsys):
    code = main([
        "stats", "--duration", "5", "--seed", "2",
        "--flow", "udp:10.0.0.1:9",
    ])
    assert code == 0
    assert capsys.readouterr().out == "flow,timestamp_us,interarrival_us\n"


def test_stats_bad_filter_exits_two(capsys):
    assert main(["stats", "--duration", "1", "--flow", "nope"]) == 2


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
    out, err = capsys.readouterr()
    assert err.splitlines()[-1] == "rejected: BadLength=1"
    assert "ID: 2 is up Intrusion: no" in out
    assert "ID: 3 is up Intrusion: yes" in out
    transitions = log_file.read_text().splitlines()
    assert any(line.endswith("\t2\tup") for line in transitions)


@pytest.mark.parametrize(
    "case", ["unwritable-log-file", "port-in-use", "empty-psk-file", "zero-timeout", "no-psk"]
)
def test_logger_input_error_exits_two_and_closes_its_socket(case, tmp_path, capsys,
                                                            monkeypatch):
    monkeypatch.setenv("EIDS_PSK", "loopback-psk")
    if case == "no-psk":
        monkeypatch.delenv("EIDS_PSK")
    (tmp_path / "empty.psk").write_bytes(b"")
    # every case but the held port leaves the port free
    extra = {
        "unwritable-log-file": ["--log-file", str(tmp_path / "missing" / "transitions.log")],
        "port-in-use": [],
        "empty-psk-file": ["--psk-file", str(tmp_path / "empty.psk")],
        "zero-timeout": ["--timeout", "0"],
        "no-psk": [],
    }[case]
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as holder:
        holder.bind(("127.0.0.1", 0))
        argv = ["logger", "--bind", "127.0.0.1", "--port", str(holder.getsockname()[1]),
                "--duration", "1"] + extra
        if case != "port-in-use":
            holder.close()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
            gc.collect()
    assert code == 2
    assert "listening on" not in capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_logger_prints_the_port_it_bound(capsys, monkeypatch):
    monkeypatch.setenv("EIDS_PSK", "loopback-psk")
    assert main(["logger", "--bind", "127.0.0.1", "--port", "0", "--duration", "0.3"]) == 0
    first = capsys.readouterr().err.splitlines()[0]
    host, _, port = first.removeprefix("listening on ").partition(":")
    assert host == "127.0.0.1" and int(port) > 0


class _ScriptedHost:
    """Stands in for the time and socket modules of eids.cli, so that
    cmd_logger runs on synthetic clocks: the monotonic clock moves only in
    recvfrom, to the next scripted arrival, or by the receive timeout when
    none is due before it, and wall(monotonic seconds) is the wall clock."""

    AF_INET, SOCK_DGRAM = socket.AF_INET, socket.SOCK_DGRAM
    SOL_SOCKET, SO_REUSEADDR = socket.SOL_SOCKET, socket.SO_REUSEADDR
    timeout = socket.timeout

    def __init__(self, monkeypatch, arrivals=(), wall=lambda mono: mono + 1.7e9):
        self.mono = 100.0
        self.wall = wall
        self.arrivals = list(arrivals)  # (monotonic s, datagram), in time order
        self._timeout = None
        monkeypatch.setattr("eids.cli.time", self)
        monkeypatch.setattr("eids.cli.socket", self)

    def __getattr__(self, name):  # strftime, gmtime
        return getattr(time, name)

    def monotonic(self):
        return self.mono

    def time(self):
        return self.wall(self.mono)

    # the socket module and the socket it makes
    def socket(self, family, kind):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def setsockopt(self, *args):
        pass

    def bind(self, address):
        self.address = address

    def settimeout(self, seconds):
        self._timeout = seconds

    def getsockname(self):
        return self.address

    def recvfrom(self, size):
        if self.arrivals and self.arrivals[0][0] <= self.mono + self._timeout:
            at, data = self.arrivals.pop(0)
            self.mono = max(self.mono, at)
            return data, ("127.0.0.1", 47808)
        self.mono += self._timeout
        raise socket.timeout


def test_logger_stamps_datagrams_when_they_arrive(capsys, monkeypatch):
    monkeypatch.setenv("EIDS_PSK", "loopback-psk")
    stamps = []

    class RecordingLogger(CentralLogger):
        def on_datagram(self, data, now_us, wall_ms=None):
            stamps.append((data, now_us, wall_ms))
            return super().on_datagram(data, now_us, wall_ms)

    monkeypatch.setattr("eids.cli.CentralLogger", RecordingLogger)
    # each one arrives while the logger waits in recvfrom
    arrivals = [(100.3 + 0.13 * k, b"probe-%d" % k) for k in range(5)]
    host = _ScriptedHost(monkeypatch, arrivals)
    sent = {data: (int(at * 1e6), int(host.wall(at) * 1e3)) for at, data in arrivals}
    code = main(["logger", "--bind", "127.0.0.1", "--port", "0", "--duration", "1.5"])

    assert code == 0
    assert sorted(data for data, _, _ in stamps) == sorted(sent)
    for data, now_us, wall_ms in stamps:
        sent_us, sent_ms = sent[data]
        assert now_us >= sent_us, "stamp %d us before the send" % (sent_us - now_us)
        assert wall_ms >= sent_ms, "wall stamp %d ms before the send" % (sent_ms - wall_ms)
        # and from the right clock: the two are 1.7e9 s apart
        assert now_us - sent_us < 1000 and wall_ms - sent_ms < 1


def test_logger_log_file_lines_carry_each_step_wall_time(tmp_path, capsys, monkeypatch):
    """The wall clock steps back an hour after node 7's datagram: the
    node still goes down at its datagram's monotonic time plus the timeout,
    each log line is stamped with the wall time of the step that made
    it, and the shell exits 0."""
    monkeypatch.setenv("EIDS_PSK", "loopback-psk")
    steps = []

    class RecordingLogger(CentralLogger):
        def step(self, data, now_us, wall_ms=None):
            transitions, view = super().step(data, now_us, wall_ms)
            steps.append((now_us, wall_ms, transitions))
            return transitions, view

    monkeypatch.setattr("eids.cli.CentralLogger", RecordingLogger)
    wire = encode(StatusMessage(7, 1_700_000_100_500, False, True, 0), b"loopback-psk")
    _ScriptedHost(monkeypatch, [(100.5, wire)],
                  wall=lambda mono: mono + 1.7e9 - (3600 if mono > 100.5 else 0))
    log_file = tmp_path / "transitions.log"
    assert main(["logger", "--bind", "127.0.0.1", "--port", "0", "--timeout", "1.5",
                 "--duration", "4", "--log-file", str(log_file)]) == 0

    expected = [
        "%s\t%d\t%s" % (time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(wall_ms // 1000)),
                         node_id, state)
        for _, wall_ms, transitions in steps for _, node_id, state in transitions
    ]
    assert log_file.read_text().splitlines() == expected
    logged = [(at_us, state) for _, _, transitions in steps for at_us, _, state in transitions]
    assert [state for _, state in logged] == ["up", "down"]
    (up_us, _), (down_us, _) = logged
    assert down_us == up_us + 1_500_000
    # up at 1,700,000,100.5 s on the wall clock; down at 102 s on the
    # monotonic one, logged by the first 0.2 s step past it, at 102.1 s
    assert expected == ["2023-11-14T22:15:00Z\t7\tup", "2023-11-14T21:15:02Z\t7\tdown"]


def test_logger_liveness_ignores_wall_clock_steps():
    """The wall clock steps back an hour after node 7's last datagram,
    then forward an hour after node 8's: each node is logged down at a
    sweep at least the timeout after its last datagram, neither an hour
    late nor at once. The logger steps every 10 ms of synthetic time."""
    timeout_us = 1_500_000
    logger = CentralLogger(b"loopback-psk", timeout_us=timeout_us)
    now_us, step_ms = 5 * S, 0

    def wall_ms():
        return 1_700_000_000_000 + now_us // 1000 + step_ms

    def logged_by(node_id, state, deadline_us, data=None):
        """When the logger logged node_id's state, if by deadline_us; it
        steps every 10 ms, the first time with data."""
        nonlocal now_us
        while now_us <= deadline_us:
            for at_us, logged_id, logged_state in logger.step(data, now_us, wall_ms())[0]:
                if (logged_id, logged_state) == (node_id, state):
                    return at_us
            data = None
            now_us += 10_000
        return None

    def announce(node_id):
        """Send node_id's status, stamped on the logger's wall clock, which
        logs the node up; returns the time of the send."""
        sent = now_us
        wire = encode(StatusMessage(node_id, wall_ms(), False, True, 0), b"loopback-psk")
        assert logged_by(node_id, "up", sent, wire) == sent, "node %d never logged up" % node_id
        return sent

    sent = announce(7)
    step_ms = -3_600_000
    down = logged_by(7, "down", sent + timeout_us + 2 * S)
    assert down is not None, "node 7 not down within 2 s of its timeout"
    assert down - sent >= timeout_us
    sent = announce(8)
    step_ms = 0
    down = logged_by(8, "down", sent + timeout_us + 2 * S)
    assert down is not None, "node 8 not down within 2 s of its timeout"
    assert down - sent >= timeout_us, "node 8 down %.2f s after its datagram" % (
        (down - sent) / S)
    assert not logger.rejected


def test_logger_renders_only_when_a_line_changes(capsys, monkeypatch):
    monkeypatch.setenv("EIDS_PSK", "loopback-psk")
    renders = []

    class CountingLogger(CentralLogger):
        def render_status(self):
            renders.append(1)
            return super().render_status()

    monkeypatch.setattr("eids.cli.CentralLogger", CountingLogger)
    _ScriptedHost(monkeypatch)
    assert main(["logger", "--bind", "127.0.0.1", "--port", "0", "--duration", "1"]) == 0
    assert renders == []
    assert capsys.readouterr().out == ""


def test_times_in_text_round_to_the_nearest_microsecond(tmp_path):
    # 2.01 * 1e6 is 2009999.9999999998 in floats
    assert cli._parse_scenario("5:start=2.01").start_us == 2_010_000
    assert cli._us("1.005") == 1_005_000
    config = tmp_path / "plant.ini"
    config.write_text("[profile]\npoll_period_ms = 2.01\n")
    assert load_config(str(config))[1].poll_period_us == 2_010
    args = build_parser().parse_args(["detect", "--learn-first", "2.01"])
    assert cli._engine_config(args, {}, args.learn_first).learning_duration_us == 2_010_000


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
        "detect", "--learn-first", "30", "--duration", "60",
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


def _no_traffic(*_args):
    raise AssertionError("input built for an invalid command line")


def _assert_rejected_before_traffic(tmp_path, capsys, monkeypatch, spec):
    monkeypatch.setattr(sim, "_gen_arp", _no_traffic)
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


@pytest.mark.parametrize("command", ["learn", "detect"])
def test_unknown_local_ip_rejected_before_traffic_is_built(tmp_path, capsys, monkeypatch,
                                                          command):
    monkeypatch.setattr(sim, "_gen_arp", _no_traffic)
    mode = ["-o", str(tmp_path / "m.model")] if command == "learn" else ["--learn-first", "10"]
    assert main([command, "--duration", "600", "--local-ip", "10.0.0.9"] + mode) == 2
    assert capsys.readouterr().err == "eids: no simulated device has address 10.0.0.9\n"


@pytest.mark.parametrize("viewpoint", ["S9", "s1", "NoSuchNode"])
def test_unknown_viewpoint_rejected_before_traffic_is_built(tmp_path, capsys, monkeypatch,
                                                            viewpoint):
    # an unknown name would otherwise write every foreign broadcast and exit 0
    monkeypatch.setattr(sim, "_gen_arp", _no_traffic)
    out = tmp_path / "x.pcap"
    assert main(["simulate", "--duration", "5", "--viewpoint", viewpoint,
                 "--pcap-out", str(out)]) == 2
    assert capsys.readouterr().err == "eids: no device named %r\n" % viewpoint
    assert not out.exists()


@pytest.mark.parametrize("source", ["sim", "pcap"])
def test_stats_filter_checked_before_input_is_built(tmp_path, capsys, monkeypatch, source):
    monkeypatch.setattr(sim, "_gen_arp", _no_traffic)
    monkeypatch.setattr(cli, "read_pcap", _no_traffic)
    pcap = tmp_path / "x.pcap"
    with open(pcap, "wb") as handle:
        write_pcap(handle, [])
    argv = ["--pcap", str(pcap)] if source == "pcap" else ["--duration", "600"]
    assert main(["stats", "--flow", "nope"] + argv) == 2
    assert capsys.readouterr().err == "eids: unknown filter 'nope'\n"


@pytest.mark.parametrize("command", ["learn", "detect", "simulate", "logger", "bench", "stats"])
def test_help_exits_zero_and_shows_the_engine_defaults(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    if command in ("learn", "detect"):
        for flag, name in [("--delta", "delta"), ("--delta-arp", "delta_arp"),
                           ("--window", "window")]:
            assert re.search(r"%s \S+ [^(]*\(default %s\)" % (flag, getattr(EngineConfig, name)),
                             text), flag
    assert build_parser() is build_parser()


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
        except ValueError:
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
    assert engine == {"delta": 0.3, "delta_arp": 1.0, "window": 16}
    assert scenarios == [
        sim.AttackScenario(sim.ScenarioKind.DOS_FLOOD, start_us=650 * S, target="S1")
    ]
