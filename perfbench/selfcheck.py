"""Fast self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every workload at toy size (100 simulated seconds with short ARP
caches, 60 status nodes), untraced and traced, and asserts
that each run is correct and prints exactly the metrics BENCHMARK.json
names, with their units. Then it hands each workload a deliberately
wrong expectation and asserts that every one of its correctness checks
reports the outputs as wrong. Exits 0 when all of that holds; takes
about half a minute.
"""

import contextlib
import json
import math
import shutil
import sys
import tempfile

import run

S = 1_000_000
SEED = 3

# every check each workload makes, by the name it reports
CHECKS = {
    "plc-learn-detect": {
        "learn exit code", "detect --model exit code",
        "detect --model events on benign frames", "inline events on benign frames",
        "detect --learn-first exit code", "detect --learn-first events on benign frames",
    },
    "s1-flood": {
        "scenario bench verdict", "learn exit code", "detect exit code",
        "detect events before the flood", "detect first TooFast within 10 ms",
        "inline events before the flood", "inline first TooFast within 10 ms",
        "detect --learn-first exit code", "detect --learn-first events before the flood",
        "detect --learn-first first TooFast within 10 ms",
    },
    "status-storm": {"accepted datagrams", "rejects per cause", "up->down transitions"},
}


def spoil(workload) -> None:
    """Give a workload expectations its outputs cannot meet."""
    name = workload.name
    if name == "plc-learn-detect":
        workload.expected_rc = 1
        workload.expected_events = 1
    elif name == "s1-flood":
        workload.expected_rc = 0
        workload.expected_learn_rc = 1
        workload.expected_row = False
        workload.attack_us += 5 * S  # events before it, first TooFast early
    else:
        workload.expected_accepted += 1
        workload.expected_rejected["BadHmac"] += 1
        workload.expected_downs.add((0, 0))


def require(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


@contextlib.contextmanager
def toy_bench():
    """Shrink the scenario bench, whose run s1-flood sets up: 100 s,
    learning for 60 s, the attack at 65 s."""
    from eids import bench

    saved = {k: getattr(bench, k) for k in ("LEARNING_US", "ATTACK_START_US", "DURATION_US")}
    bench.LEARNING_US = 60 * S
    bench.ATTACK_START_US = 65 * S
    bench.DURATION_US = 100 * S
    try:
        yield
    finally:
        for key, value in saved.items():
            setattr(bench, key, value)


def expect_metrics(metrics: dict, declared: list[dict], what: str) -> None:
    names = [m["name"] for m in declared]
    require(sorted(metrics) == sorted(names), "%s: metric names differ: %s"
            % (what, sorted(set(metrics) ^ set(names))))
    for entry in declared:
        value, unit = metrics[entry["name"]]
        require(unit == entry["unit"], "%s: %s has unit %s" % (what, entry["name"], unit))
        require(isinstance(value, (int, float)) and math.isfinite(value),
                "%s: %s is %r" % (what, entry["name"], value))


def main() -> int:
    if run._import_program() is None:
        print("selfcheck: no eids package under %s" % run.SRC, file=sys.stderr)
        return 2
    import workloads

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    toy = workloads.Size(plc_s=100, plc_learn_s=60, plc_arp_expiry_s=(18, 36),
                         slice_frames=500, slices=3, inline_repeats=1, flood_pps=200, flood_s=10,
                         flood_arp_expiry_s=(18, 36), storm_nodes=60, storm_s=100, setups=1)
    work_root = run.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=work_root)
    try:
        with toy_bench():
            for name, factory in workloads.WORKLOADS.items():
                for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                    workload = factory(SEED, toy, workdir, str(run.SRC))
                    tally, metrics, _lines = run.measure(workload, 0.0, trace)
                    require(tally.failed == 0, "%s: %s" % (name, tally.problems))
                    expect_metrics(metrics, declared[key], "%s trace %d" % (name, trace))
                spoil(workload)
                wrong = workloads.Tally()
                workload.check(wrong)
                require(wrong.tripped == CHECKS[name], "%s: tripped %s, want %s"
                        % (name, sorted(wrong.tripped), sorted(CHECKS[name])))
                print("selfcheck: %-17s metrics ok, %d checks trip on a wrong expectation"
                      % (name, len(CHECKS[name])))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
