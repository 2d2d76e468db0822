"""Seeded benchmark for eids: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/`` directory, never from an installed copy. The workload's input
is generated from --seed and set up several times (setup_s is the
median); set-ups alternate with timed passes of the workload's job, each
pass on the next CPU in turn, until --seconds of passes are done. Every
pass makes the same short timed calls on the same inputs and times the
same frames or datagrams inline. A timed call's figure is the best of
any call (least time, highest rate); each inline frame or datagram
keeps its least latency over the passes, and p50/p99 are taken over
those. The workload's commands then run once more in fresh interpreters
for their peak memory, and every output is checked against the
generator's ground truth.

With --trace 0 the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json. With --trace 1 one
untraced pass is followed by a traced set-up and pass, and the metrics
are the per-layer ones, including the tracing overhead. Human-readable
lines, under the names the project uses for them, come first.
"""

import argparse
import contextlib
import gc
import itertools
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SHARE = 0.25  # cheap set-ups repeat until they took this share of the pass time


def _import_program():
    """Import eids from the checkout; None when it is not there."""
    if not (SRC / "eids" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import eids

    if Path(eids.__file__).resolve().parent != (SRC / "eids").resolve():
        return None
    return eids


def best_call(passes, name: str) -> tuple[float, float]:
    """Least seconds and highest rate of any one of the calls named NAME
    in any pass."""
    calls = [call for p in passes for call in p.calls[name]]
    return min(t for _n, t in calls), max(n / t for n, t in calls)


def end_to_end(workload, setups, passes, peak_mb, tally) -> tuple[dict, list]:
    import workloads

    wall_s, _rate = best_call(passes, workload.wall_calls)
    _wall, rate = best_call(passes, workload.rate_calls)
    ordered = sorted(workload.best_ns)
    p50 = workloads.percentile(ordered, 50) / 1e3
    p99 = workloads.percentile(ordered, 99) / 1e3
    error_share = tally.failed / tally.attempted
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall_s, "s"),
        "throughput": (rate, "1/s"),
        "p50_us": (p50, "us"),
        "peak_rss_mb": (peak_mb, "MB"),
        "correct_share": (1.0 - error_share, "ratio"),
    }
    n_calls = {name: len(passes) * len(calls) for name, calls in passes[0].calls.items()}
    lines = [("setup_s", statistics.median(setups), "s (median of %d)" % len(setups)),
             ("wall_s", wall_s, "s (least of %d calls made for %s)"
              % (n_calls[workload.wall_calls], workload.wall_calls))]
    for name in passes[0].calls:
        lines.append((name, best_call(passes, name)[1], "1/s (highest of %d calls)"
                      % n_calls[name]))
    prefix = {"frame": "verdict", "datagram": "datagram"}[workload.unit]
    units = "%d %ss, each its least of %d repeats" % (len(ordered), workload.unit,
                                                      workload.repeats)
    lines += [
        ("%s_p50_us" % prefix, p50, "us (%s)" % units),
        ("%s_p99_us" % prefix, p99, "us (%s)" % units),
        ("error_share", error_share, "ratio (%d wrong of %d)" % (tally.failed, tally.attempted)),
        ("peak_rss_mb", peak_mb, "MB (the workload's commands, each in a fresh interpreter)"),
    ]
    return metrics, lines


def measure(workload, seconds: float, trace: bool):
    """Set the workload up, run it, check it; returns the tally, the
    metrics for the JSON line and the human-readable lines."""
    import layers
    import workloads
    from tracing import Tracer

    tally = workloads.Tally()
    setups = []
    passes = []
    measured = 0.0

    def set_up() -> None:
        gc.unfreeze()
        workload.release()
        gc.collect()
        t0 = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t0)
        gc.collect()
        gc.freeze()  # set-up data is not the program's garbage to scan

    # each pass, with the set-up before it, runs on the next of the run's
    # CPUs in turn: on a shared host one vCPU can run 1.5-2x slower than
    # another for seconds, and a process left where the scheduler put it
    # can spend its whole run on the slow one
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    turns = itertools.cycle(cpus)

    set_up()
    workload.prepare()
    # passes run until --seconds of them are timed; set-ups are spread
    # among them until there are enough and they took SETUP_SHARE of the
    # pass time, so that a slow stretch of a shared host hits few of either
    while not trace and (not passes or measured < seconds):
        if len(cpus) > 1:
            os.sched_setaffinity(0, {next(turns)})
        if passes and (len(setups) < workload.size.setups
                       or sum(setups) < SETUP_SHARE * measured):
            set_up()
        passes.append(workload.run_pass())
        measured += passes[-1].total_s
        gc.collect()
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus)

    if trace:
        untraced_s = workload.run_pass().total_s
        tracer = Tracer()
        tracer.install()
        try:
            workload.release()
            with tracer.span("phase.setup"):
                workload.setup()
            gc.collect()
            traced_s = workload.run_pass(tracer).total_s
        finally:
            tracer.unpatch()
        workload.check(tally)
        return (tally,) + layers.per_layer(tracer, untraced_s, traced_s)
    peak_mb = workload.memory_pass()
    workload.check(tally)
    return (tally,) + end_to_end(workload, setups, passes, peak_mb, tally)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its work files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if _import_program() is None:
        print("perfbench: no eids package under %s; run from a checkout root" % SRC,
              file=sys.stderr)
        return 2
    import workloads

    factory = workloads.WORKLOADS.get(args.workload)
    if factory is None:
        print("perfbench: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root)
    try:
        workload = factory(args.seed, workloads.FULL, workdir, str(SRC))
        tally, metrics, lines = measure(workload, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only when no other run is using it

    for problem in tally.problems:
        print("perfbench: WRONG %s" % problem, file=sys.stderr)
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for name, value, unit in lines:
        print("  %-44s %14.6g %s" % (name, value, unit))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
