"""Operator command line.

Subcommands: learn (build a model from trusted traffic), detect (judge
traffic against a model), simulate (write testbed traffic as pcap),
logger (run the central status logger: a shell that steps
CentralLogger at each datagram and each 0.2 s receive timeout), bench
(scenario detection matrix), stats (interarrival CSV). Event logs go to
standard output, diagnostics to standard error, so pipelines compose.

The announce PSK is taken from the EIDS_PSK environment variable or a
file named with --psk-file, never from an argument: command lines leak
through process listings. With neither, logger exits 2.
"""

import argparse
import configparser
import contextlib
import functools
import os
import socket
import sys
import time

from . import announce, bench, sim
from .central import CentralLogger
from .engine import (
    BadModelVersion,
    Engine,
    EngineConfig,
    MalformedModelLine,
    format_event,
    replay,
)
from .packet import ParseError, parse_frame
from .pcap import read_pcap

DEFAULT_LOCAL_IP = "192.168.1.101"


def _err(message: str) -> None:
    print("eids: %s" % message, file=sys.stderr)


def _psk_from_env(args) -> bytes:
    if getattr(args, "psk_file", None):
        with open(args.psk_file, "rb") as handle:
            return handle.read().strip()
    value = os.environ.get("EIDS_PSK")
    if not value:
        # no fallback key: one in the public source is a key anyone can sign under
        raise ValueError("no PSK: set EIDS_PSK or give --psk-file")
    return value.encode()


def _us(value, unit: float = 1e6) -> int:
    """A time in units, seconds by default, given as text or a number, in
    whole microseconds, rounded: int() would truncate 2.01 s to 2,009,999."""
    return round(float(value) * unit)


def _us_range(text: str, unit: float) -> tuple[int, ...]:
    """'LO,HI' in units as a pair of whole microseconds."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expected LO,HI, got %r" % text)
    return tuple(_us(part, unit) for part in parts)


# config or scenario spec key -> (attribute or field name, converter)
_PROFILE_KEYS = {
    "poll_period_ms": ("poll_period_us", functools.partial(_us, unit=1000)),
    "response_delay_ms": ("response_delay_us", functools.partial(_us_range, unit=1000)),
    "jitter_pct": ("jitter_frac", lambda text: float(text) / 100.0),
    "status_period_s": ("status_period_us", _us),
    "arp_expiry_s": ("arp_expiry_us", functools.partial(_us_range, unit=1e6)),
    "status_port": ("status_port", int),
    "psk": ("psk", str.encode),
}
# config key and EngineConfig field -> (converter, flag help)
_ENGINE_KEYS = {
    "delta": (float, "timing tolerance for IP flows learned in this run; "
                     "a --model flow keeps its own"),
    "delta_arp": (float, "timing tolerance for ARP flows learned in this run; "
                         "a --model flow keeps its own"),
    "window": (int, "active-mode mean window size"),
}
_SCENARIO_KEYS = {
    "start": ("start_us", _us),
    "stop": ("stop_us", _us),
    "target": ("target", str),
    "peer": ("peer", str),
    "rate": ("rate_pps", int),
    "attacker-ip": ("attacker_ip", str),
    "attacker-mac": ("attacker_mac", str),
}


def load_config(
    path: str | None,
) -> tuple[sim.Topology, sim.TrafficProfile, dict, list]:
    """Read the INI config: [topology] sensors; [profile] poll_period_ms,
    response_delay_ms=LO,HI, jitter_pct, status_period_s,
    arp_expiry_s=LO,HI, status_port, psk; [engine] delta, delta_arp,
    window; [scenarios] with one scenario spec per key, under any name.
    Flags override these values. Values are taken literally: no %
    interpolation, and a # after a value is part of it. A value that
    does not parse, and a section or key not listed here (alpha among
    them: the runtime mean's weight is fixed at 1/256), raise
    ValueError naming the file, section and key."""
    topology = sim.Topology.default()
    profile = sim.TrafficProfile()
    engine_overrides: dict = {}
    scenarios: list = []
    if path is None:
        return topology, profile, engine_overrides, scenarios
    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as handle:
        try:
            parser.read_file(handle)
        except configparser.Error as exc:
            # some messages quote the file, line and offending text on
            # lines of their own; a diagnostic is one line
            raise ValueError("%s: %s" % (path, " ".join(str(exc).split()))) from None

    def value(section, key, convert):
        try:
            return convert(parser[section][key])
        except (ValueError, OverflowError) as exc:
            raise ValueError("%s: [%s] %s: %s" % (path, section, key, exc)) from None

    known = {"topology": {"sensors"}, "profile": _PROFILE_KEYS, "engine": _ENGINE_KEYS}
    if parser.defaults():
        raise ValueError("%s: [%s]: unknown section" % (path, parser.default_section))
    for section in parser.sections():
        if section == "scenarios":
            continue
        if section not in known:
            raise ValueError("%s: [%s]: unknown section" % (path, section))
        for key in parser.options(section):
            if key not in known[section]:
                raise ValueError("%s: [%s] %s: unknown key" % (path, section, key))

    if parser.has_option("topology", "sensors"):
        topology = value("topology", "sensors", lambda text: sim.Topology.default(int(text)))
    for key, (attr, convert) in _PROFILE_KEYS.items():
        if parser.has_option("profile", key):
            setattr(profile, attr, value("profile", key, convert))
    for key, (convert, _help) in _ENGINE_KEYS.items():
        if parser.has_option("engine", key):
            engine_overrides[key] = value("engine", key, convert)
    if parser.has_section("scenarios"):
        for key, _text in parser.items("scenarios"):
            scenarios.append(value("scenarios", key, _parse_scenario))
    return topology, profile, engine_overrides, scenarios


def _engine_config(args, overrides: dict, learning_s: float | None) -> EngineConfig:
    merged = dict(overrides)
    for name in _ENGINE_KEYS:
        if getattr(args, name) is not None:
            merged[name] = getattr(args, name)
    if learning_s is not None:
        merged["learning_duration_us"] = _us(learning_s)
    return EngineConfig(local_ip=args.local_ip, node_id=args.node_id, **merged)


def _directed_pcap_frames(path: str):
    """(time, None, frame) triples from a capture. A pcap records no
    direction, so the engine infers it from addressing."""
    with open(path, "rb") as handle:
        for ts_us, data in read_pcap(handle):
            yield ts_us, None, data


def _input_frames(args, topology, profile, scenarios=()):
    """Frame stream for learn/detect/stats: a pcap or a simulation
    viewed from the monitored node."""
    if args.pcap is not None:
        return _directed_pcap_frames(args.pcap)
    # an unknown address fails before a whole simulation runs
    name = next((dev.name for dev in topology.devices if dev.ip == args.local_ip), None)
    if name is None:
        raise sim.ConfigInvalid("no simulated device has address %s" % args.local_ip)
    return _simulate(args, topology, profile, scenarios).frames_for(name)


def _simulate(args, topology, profile, scenarios) -> sim.FrameTrace:
    return sim.run(topology, profile, scenarios, duration_us=_us(args.duration), seed=args.seed)


class ArpRequestGaps:
    """Longest observed gap between ARP requests of the same sender for
    the same target address, in microseconds, taken while the frames
    pass through to another consumer. Twice this value is the floor for
    a learning window that still sees every recurring flow. A host
    refreshing its cache asks for several peers a few milliseconds
    apart, so gaps between requests for different targets say nothing
    about the refresh cycle."""

    def __init__(self):
        self.longest: int | None = None
        self._last: dict[tuple[str, str], int] = {}

    def watch(self, frame_triples):
        """Yield frame_triples unchanged, measuring gaps on the way."""
        for triple in frame_triples:
            ts_us, _direction, data = triple
            if data[12:14] == b"\x08\x00":
                yield triple  # untagged IPv4 never carries ARP: skip it unparsed
                continue
            try:
                arp = parse_frame(data).arp
            except ParseError:
                arp = None
            if arp is not None and arp.op.value == 1:
                pair = (arp.sender_mac, arp.target_ip)
                previous = self._last.get(pair)
                self._last[pair] = ts_us
                if previous is not None and (
                    self.longest is None or ts_us - previous > self.longest
                ):
                    self.longest = ts_us - previous
            yield triple


# -- subcommands -----------------------------------------------------


def cmd_learn(args) -> int:
    topology, profile, overrides, scenarios = load_config(args.config)
    if args.learning_duration is None:
        # learn on the whole input: the transition must never trigger
        overrides = {**overrides, "learning_duration_us": 1 << 62}
    config = _engine_config(args, overrides, args.learning_duration)
    # an unwritable -o fails here, before a whole learning pass; opening
    # for append leaves an existing model intact until learning succeeds
    existed = os.path.exists(args.out)
    open(args.out, "ab").close()
    if not existed:
        os.remove(args.out)
    engine = Engine(config)
    gaps = ArpRequestGaps()
    frame_stream = gaps.watch(_input_frames(args, topology, profile, scenarios))
    for _event in replay(engine, frame_stream):  # replay is lazy: iterating drives it
        pass
    if engine.started_us is None:
        _err("input contains no frames")
        return 2
    with open(args.out, "wb") as handle:
        handle.write(engine.export_model())
    print("flows learned: %d" % len(engine.table.flows), file=sys.stderr)
    print("arp bindings: %d" % len(engine.table.bindings), file=sys.stderr)
    if gaps.longest is not None:
        print(
            "suggested learning duration: %.1f s (2 x longest ARP request gap)"
            % (2 * gaps.longest / 1e6),
            file=sys.stderr,
        )
    else:
        print("suggested learning duration: n/a (no repeated ARP requests)",
              file=sys.stderr)
    return 0


def cmd_detect(args) -> int:
    if args.tail_us < 0:
        # the open bursts would close before the frames they count
        raise ValueError("--tail-us of %d is below 0" % args.tail_us)
    topology, profile, overrides, scenarios = load_config(args.config)
    config = _engine_config(args, overrides, args.learn_first)
    engine = Engine(config)
    if args.model is not None:
        try:
            with open(args.model, "rb") as handle:
                engine.import_model(handle.read())
        except (OSError, BadModelVersion, MalformedModelLine) as exc:
            _err("cannot load model %s: %s" % (args.model, exc))
            return 2
    raised = False
    write = sys.stdout.write
    for event in replay(
        engine, _input_frames(args, topology, profile, scenarios), tail_us=args.tail_us
    ):
        write(format_event(event, config.node_id) + "\n")
        raised = True
    # what was flagged, bursts included, as `flagged: TooFast=60599` or `flagged: none`
    named = sorted((cause.value, n) for cause, n in engine.counts().items() if n)
    print("flagged: " + (" ".join("%s=%d" % pair for pair in named) or "none"), file=sys.stderr)
    return 1 if raised else 0


def cmd_simulate(args) -> int:
    topology, profile, _, scenarios = load_config(args.config)
    scenarios = scenarios + [_parse_scenario(spec) for spec in args.scenario]
    if args.viewpoint is not None:
        topology.device(args.viewpoint)  # an unknown name fails before the simulation
    trace = _simulate(args, topology, profile, scenarios)
    with open(args.pcap_out, "wb") as handle:
        count = trace.write_pcap(handle, viewpoint=args.viewpoint)
    print("wrote %d frames to %s" % (count, args.pcap_out), file=sys.stderr)
    return 0


def _parse_scenario(spec: str) -> sim.AttackScenario:
    head, _, rest = spec.partition(":")
    kind = sim.ScenarioKind(int(head))
    kwargs: dict = {}
    if rest:
        for pair in rest.split(","):
            key, _, value = pair.partition("=")
            if key not in _SCENARIO_KEYS:
                raise ValueError("unknown scenario parameter %r" % key)
            name, convert = _SCENARIO_KEYS[key]
            kwargs[name] = convert(value)
    return sim.AttackScenario(kind, **kwargs)


def cmd_logger(args) -> int:
    psk = _psk_from_env(args)
    logger = CentralLogger(psk, timeout_us=_us(args.timeout))
    # the log file opens first, and the socket closes on every way out
    with open(args.log_file or os.devnull, "a", buffering=1) as log_handle, \
            socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((args.bind, args.port))
        sock.settimeout(0.2)
        print("listening on %s:%d" % sock.getsockname(), file=sys.stderr)

        # liveness, sweeps and --duration run on the monotonic clock, which a wall-clock
        # step does not move; wall time only checks message skew and stamps the log
        started = time.monotonic()
        try:
            while args.duration is None or time.monotonic() - started < args.duration:
                data = None
                with contextlib.suppress(socket.timeout):
                    data = sock.recvfrom(4096)[0]
                wall_ms = int(time.time() * 1e3)
                transitions, view = logger.step(data, int(time.monotonic() * 1e6), wall_ms)
                for _, node_id, state in transitions:  # the log file is line-buffered
                    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(wall_ms // 1000))
                    log_handle.write("%s\t%d\t%s\n" % (stamp, node_id, state))
                if view is not None:
                    print(view, end="", flush=True)
        except KeyboardInterrupt:
            pass
        finally:
            print(logger.render_rejected(), file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    rows, elapsed = bench.run_benchmark(seed=args.seed)
    sys.stdout.write(bench.format_table(rows))
    print("matrix wall time: %.1f s" % elapsed, file=sys.stderr)
    return 0 if all(row.ok for row in rows) else 1


def cmd_stats(args) -> int:
    topology, profile, _, scenarios = load_config(args.config)
    sim.parse_flow_filter(args.flow)  # a bad filter fails before any input is built
    if args.pcap is not None:
        with open(args.pcap, "rb") as handle:
            csv = sim.stats_csv(read_pcap(handle), args.flow)
    else:
        csv = sim.stats_csv(_simulate(args, topology, profile, scenarios).records(),
                            args.flow)
    if args.out is None or args.out == "-":
        sys.stdout.write(csv)
    else:
        with open(args.out, "w") as handle:
            handle.write(csv)
    return 0


# -- argument wiring --------------------------------------------------


def _add_input_options(p, with_duration_default=1200.0):
    p.add_argument("--pcap", help="read frames from a capture file")
    p.add_argument("--duration", type=float, default=with_duration_default,
                   help="simulated seconds when --pcap is not given")
    p.add_argument("--seed", default=0, help="simulation seed")
    p.add_argument("--config", help="INI config for topology/profile/engine")


def _add_engine_options(p):
    p.add_argument("--local-ip", default=DEFAULT_LOCAL_IP,
                   help="address of the monitored node")
    p.add_argument("--node-id", type=int, default=EngineConfig.node_id)
    for key, (convert, text) in _ENGINE_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), type=convert, default=None,
                       help="%s (default %s)" % (text, getattr(EngineConfig, key)))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error, such as an unknown flag, is an input error: main
        # prints it as one line and returns 2; subparsers inherit this
        raise ValueError("%s (see %s --help)" % (message, self.prog))


@functools.cache  # built once: a process that calls main repeatedly reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eids")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn a model from trusted traffic")
    _add_input_options(p)
    _add_engine_options(p)
    p.add_argument("--learning-duration", type=float, default=None,
                   help="seconds of input treated as the learning phase "
                        "(default: all of it)")
    p.add_argument("-o", "--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("detect", help="detect intrusions in traffic")
    _add_input_options(p)
    _add_engine_options(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="model file from a previous learn run")
    group.add_argument("--learn-first", type=float, metavar="SECONDS",
                       help="learn on the first part of the input instead "
                            "of loading a model")
    p.add_argument("--tail-us", type=int, default=0,
                   help="keep running silence checks this long past the "
                        "last frame (default 0)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("simulate", help="write simulated traffic as pcap")
    p.add_argument("--duration", type=float, required=True, help="simulated seconds")
    p.add_argument("--seed", default=0)
    p.add_argument("--config", help="INI config for topology/profile")
    p.add_argument("--scenario", action="append", default=[],
                   metavar="KIND[:k=v,...]",
                   help="attack scenario, e.g. 5:start=650,target=S1,rate=1000")
    p.add_argument("--viewpoint", default=None,
                   help="write one device's view instead of the whole domain")
    p.add_argument("--pcap-out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("logger", help="run the central status logger")
    p.add_argument("--bind", default="0.0.0.0")
    p.add_argument("--port", type=int, default=announce.DEFAULT_PORT)
    p.add_argument("--timeout", type=float, default=20.0,
                   help="seconds of silence before a node is down")
    p.add_argument("--psk-file", help="file holding the shared key")
    p.add_argument("--duration", type=float, default=None,
                   help="stop after this many seconds (default: run forever)")
    p.add_argument("--log-file", default=None,
                   help="append up/down transitions to this file")
    p.set_defaults(func=cmd_logger)

    p = sub.add_parser("bench", help="run the attack scenario matrix")
    p.add_argument("--seed", default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stats", help="interarrival statistics as CSV")
    _add_input_options(p, with_duration_default=60.0)
    p.add_argument("--flow", required=True,
                   help="filter, e.g. tcp:192.168.1.101:502 or "
                        "arp-req:192.168.1.101")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        # downstream pipe closed early (e.g. | head); not our error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError, OverflowError, configparser.Error) as exc:
        # unreadable or invalid input: flags, files, captures, config
        # values, scenario specs and engine parameters raise one of these;
        # an infinite time overflows when converted to microseconds
        _err(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
