"""In-memory span tracer that wraps the eids package from outside.

Each public function (and the two private helpers the per-layer
metrics name) is replaced at the binding where callers look it up:
``eids.engine.parse_frame``, ``eids.cli.parse_frame`` and
``eids.sim.parse_frame`` are three bindings of one function and are
patched separately; methods are patched on their class. Nothing under
``src/`` is edited.

A span is (name, parent span, start ns, end ns), kept in flat arrays
for the whole traced run and folded into per-layer figures at the end.
Self time is a span's duration minus the durations of its direct
children. For generators (``read_pcap``, ``frames_for``, pcap direction
inference) one span covers one ``next()`` call, so time the consumer
spends between items is not charged to the generator.
"""

import contextlib
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

PHASE_PREFIX = "phase."


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording -----------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as a phase."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap_call(self, fn, name: str, on_result=None, on_error=None, on_enter=None):
        nid = self.name_id(name)
        tracer_open, tracer_close = self._open, self._close

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            idx = tracer_open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer_close(idx)
                if on_error is not None:
                    on_error(exc)
                raise
            tracer_close(idx)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_gen(self, fn, name: str):
        nid = self.name_id(name)
        tracer_open, tracer_close = self._open, self._close
        counts = self.counts
        items_key = name + ".items"

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = tracer_open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer_close(idx)
                    return
                except BaseException:
                    tracer_close(idx)
                    raise
                tracer_close(idx)
                counts[items_key] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        # the owner's own binding: a method inherited by a class is not its own
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append("%s.%s" % (owner.__name__, attr))
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        from eids import announce, bench, central, cli, engine, flows, frames, sim, timing

        counts = self.counts

        def call(name, **hooks):
            return lambda fn: self.wrap_call(fn, name, **hooks)

        def gen(name):
            return lambda fn: self.wrap_gen(fn, name)

        def count_len(key, pick=lambda r: r):
            def hook(result):
                counts[key] += len(pick(result))
            return hook

        def count_reject(exc):
            counts["announce.reject." + type(exc).__name__] += 1

        def count_records(args):
            counts["central.sweep.records_scanned"] += len(args[0].records)

        sim_run = call("sim.run", on_result=count_len("sim.run.frames", lambda t: t.frames))
        self.patch(sim, "run", sim_run)
        self.patch(bench, "run", sim_run)
        for builder in ("tcp_frame", "arp_frame", "udp_frame"):
            self.patch(frames, builder, call("frames.build"))
        self.patch(announce, "encode", call("announce.encode"))
        self.patch(sim.FrameTrace, "frames_for", gen("sim.frames_for"))

        self.patch(cli, "read_pcap", gen("pcap.read"))
        for module in (engine, cli, sim):
            self.patch(module, "parse_frame", call("packet.parse_frame"))
        self.patch(cli, "_directed_pcap_frames", gen("cli.direction"))
        self.patch(cli, "format_event", call("cli.format_event"))

        self.patch(flows.FlowTable, "key_for", call("flows.key_for"))
        self.patch(flows.FlowTable, "observe", call("flows.observe"))
        self.patch(flows, "derive_key", call("flows.derive_key"))
        self.patch(timing.FlowBaseline, "check", call("timing.check"))
        self.patch(timing.FlowBaseline, "adjust", call("timing.adjust"))
        self.patch(timing.FlowBaseline, "record_learning_sample", call("timing.record"))

        self.patch(engine.Engine, "ingest", call(
            "engine.ingest", on_result=count_len("engine.events", lambda r: r[1])))
        self.patch(engine.Engine, "tick", call(
            "engine.tick", on_result=count_len("engine.events")))
        self.patch(engine.Engine, "export_model", call("engine.export_model"))
        self.patch(engine.Engine, "import_model", call("engine.import_model"))
        for module in (bench, cli):
            self.patch(module, "replay", call("engine.replay"))

        self.patch(central, "decode_verify", call("announce.decode_verify", on_error=count_reject))
        self.patch(central.CentralLogger, "on_datagram", call("central.on_datagram"))
        self.patch(central.CentralLogger, "sweep", call("central.sweep", on_enter=count_records))

        self.patch(bench, "run_scenario", call("bench.run_scenario"))
        self.patch(bench, "_feed_logger", call("bench.feed_logger"))
        if self.missing:
            print("perfbench: not traced (binding absent): %s" % ", ".join(self.missing),
                  file=sys.stderr)

    # -- folding -------------------------------------------------------

    def fold(self) -> "Profile":
        """Per-name call count, total and self nanoseconds, overall and
        per enclosing benchmark phase."""
        n = len(self.start)
        names, name_of, parent = self.names, self.name_of, self.parent
        start, end = self.start, self.end
        child = array("q", bytes(8 * n))
        phase = array("i", bytes(4 * n))
        is_phase = [name.startswith(PHASE_PREFIX) for name in names]
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
            if is_phase[name_of[i]]:
                phase[i] = name_of[i]
            else:
                phase[i] = phase[p] if p >= 0 else -1
        profile = Profile()
        by_key = profile.by_key
        for i in range(n):
            dur = end[i] - start[i]
            own = dur - child[i]
            nid = name_of[i]
            keys = ((nid, -1), (nid, phase[i])) if phase[i] >= 0 else ((nid, -1),)
            for key in keys:
                entry = by_key.get(key)
                if entry is None:
                    entry = by_key[key] = [0, 0, 0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += own
        profile.names = list(names)
        profile.spans = n
        return profile


class Profile:
    def __init__(self):
        self.by_key: dict[tuple[int, int], list[int]] = {}
        self.names: list[str] = []
        self.spans = 0

    def _entry(self, name: str, phase: str | None = None) -> list[int]:
        try:
            nid = self.names.index(name)
        except ValueError:
            return [0, 0, 0]
        pid = -1
        if phase is not None:
            try:
                pid = self.names.index(PHASE_PREFIX + phase)
            except ValueError:
                return [0, 0, 0]
        return self.by_key.get((nid, pid), [0, 0, 0])

    def calls(self, name: str, phase: str | None = None) -> int:
        return self._entry(name, phase)[0]

    def total_s(self, name: str, phase: str | None = None) -> float:
        return self._entry(name, phase)[1] / 1e9

    def self_s(self, name: str, phase: str | None = None) -> float:
        return self._entry(name, phase)[2] / 1e9

    def per_call_us(self, name: str, own: bool = False) -> float:
        calls, total, self_ns = self._entry(name)
        if not calls:
            return 0.0
        return (self_ns if own else total) / calls / 1e3

