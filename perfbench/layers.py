"""Per-layer metrics from a traced pass.

Each figure comes from the spans and counts recorded around one module's
public functions. A layer the workload never reaches reads 0. Which
end-to-end metric each figure should move, on which workload, is
written down in perfbench/README.md.
"""

REJECT_CAUSES = ("BadLength", "BadMagic", "BadVersion", "BadHmac", "ReplayRejected",
                 "SkewRejected")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, untraced_s: float, traced_s: float) -> tuple[dict, list]:
    prof = tracer.fold()
    counts = tracer.counts
    us, s, ms, count, ratio = "us", "s", "ms", "count", "ratio"
    ingests = prof.calls("engine.ingest")
    m: dict[str, tuple[float, str]] = {}

    def per_item_us(name: str, own: bool = False) -> float:
        items = counts[name + ".items"]
        spent = prof.self_s(name) if own else prof.total_s(name)
        return _ratio(spent * 1e6, items)

    def parse_per_frame(phase: str) -> float:
        return _ratio(prof.calls("packet.parse_frame", phase), prof.calls("engine.ingest", phase))

    # simulator and frame builders
    m["sim.run.s"] = (prof.total_s("sim.run"), s)
    m["sim.run.fps"] = (_ratio(counts["sim.run.frames"], prof.total_s("sim.run")), "frames/s")
    m["frames.build.us"] = (prof.per_call_us("frames.build"), us)
    m["sim.frames_for.s"] = (prof.total_s("sim.frames_for"), s)
    m["announce.encode.us"] = (prof.per_call_us("announce.encode"), us)
    # capture input and parsing
    m["pcap.read.us_per_frame"] = (per_item_us("pcap.read"), us)
    m["packet.parse_frame.us"] = (prof.per_call_us("packet.parse_frame"), us)
    m["packet.parse_frame.calls_per_frame"] = (
        _ratio(prof.calls("packet.parse_frame"), ingests), ratio)
    m["packet.parse_frame.calls_per_frame.learn"] = (parse_per_frame("learn"), ratio)
    m["packet.parse_frame.calls_per_frame.detect"] = (parse_per_frame("detect"), ratio)
    m["cli.direction.self_us"] = (per_item_us("cli.direction", own=True), us)
    # flow table and timing
    m["flows.key_for.us"] = (prof.per_call_us("flows.key_for"), us)
    m["flows.observe.us"] = (prof.per_call_us("flows.observe"), us)
    m["flows.derive_key_share"] = (
        _ratio(prof.calls("flows.derive_key"), prof.calls("flows.key_for")), ratio)
    m["timing.check.us"] = (prof.per_call_us("timing.check"), us)
    m["timing.adjust.us"] = (prof.per_call_us("timing.adjust"), us)
    m["timing.record.us"] = (prof.per_call_us("timing.record"), us)
    # engine and event output
    m["engine.tick.us"] = (prof.per_call_us("engine.tick"), us)
    m["engine.tick.calls_per_frame"] = (_ratio(prof.calls("engine.tick"), ingests), ratio)
    m["engine.ingest.self_us"] = (prof.per_call_us("engine.ingest", own=True), us)
    m["engine.events"] = (counts["engine.events"], count)
    m["cli.format_event.us"] = (prof.per_call_us("cli.format_event"), us)
    m["cli.format_event.calls"] = (prof.calls("cli.format_event"), count)
    m["engine.export_model.ms"] = (prof.per_call_us("engine.export_model") / 1e3, ms)
    m["engine.import_model.ms"] = (prof.per_call_us("engine.import_model") / 1e3, ms)
    # status datagrams and the central logger
    m["announce.decode_verify.us"] = (prof.per_call_us("announce.decode_verify"), us)
    for cause in REJECT_CAUSES:
        m["announce.reject." + cause] = (counts["announce.reject." + cause], count)
    m["central.on_datagram.self_us"] = (prof.per_call_us("central.on_datagram", own=True), us)
    m["central.sweep.us"] = (prof.per_call_us("central.sweep"), us)
    m["central.sweep.records_scanned"] = (counts["central.sweep.records_scanned"], count)
    # the scenario bench's flood row (s1-flood's set-up) and the shares of its time
    row_s = prof.total_s("bench.run_scenario")
    m["bench.run_scenario.s"] = (row_s, s)
    m["bench.sim_share"] = (_ratio(prof.total_s("sim.run", "setup"), row_s), ratio)
    m["bench.replay_share"] = (_ratio(prof.total_s("engine.replay", "setup"), row_s), ratio)
    m["bench.logger_share"] = (_ratio(prof.total_s("bench.feed_logger", "setup"), row_s), ratio)
    # what the tracing itself cost
    overhead = traced_s - untraced_s
    m["trace.overhead_s"] = (overhead, s)
    m["trace.overhead_share"] = (_ratio(overhead, untraced_s), ratio)
    m["trace.spans"] = (prof.spans, count)

    lines = [(name, value, unit) for name, (value, unit) in m.items()]
    lines.insert(len(lines) - 3, ("trace.untraced_s", untraced_s, s))
    lines.insert(len(lines) - 3, ("trace.traced_s", traced_s, s))
    return m, lines

