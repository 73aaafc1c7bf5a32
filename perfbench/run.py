#!/usr/bin/env python3
"""Host-time benchmark for the uqsim simulator.

Run from the root of the repository:

    python3 perfbench/run.py --workload social --seed 1 --seconds 15 --trace 0

It builds perfbench/ (and with it the uqsim library from src/) in
Release mode under .bench_build/perfbench, times set-ups in one
process, then repeats workload runs, one process each, for --seconds.
With --trace 0 every run is a sliced
run and the end-to-end metrics are printed; with --trace 1 it runs
plain, sliced and traced runs of the same seed and prints the
per-layer metrics.  Every run's simulated outcome is checked: against
pins.json at the default seed, against the first run otherwise.  The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

README.md explains the workloads and what each metric should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "uqsim_perfbench"
PINS = HERE / "pins.json"

WORKLOADS = ("social", "incast", "stampede_disk", "power_diurnal")
LAYERS = ("client", "dispatch", "instance", "irq", "net", "disk", "power")

END_TO_END = {
    "sim_rps": "1/s",
    "slice_ms_p50": "ms",
    "slice_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "engine.events": "count",
    "engine.scheduled": "count",
    "engine.cancelled": "count",
    "engine.events_per_req": "events/req",
    "engine.cancels_per_req": "cancels/req",
    "engine.events_per_s": "1/s",
    **{f"{layer}.{kind}": unit
       for layer in LAYERS
       for kind, unit in (("events", "count"), ("host_share", "fraction"))},
    "disk.ops": "count",
    "disk.queued_ops": "count",
    "disk.peak_queue": "count",
    "disk.cancels_per_op": "cancels/op",
    "stats.samples": "count",
    "stats.report_ms": "ms",
    "mem.bytes_per_req": "B/req",
    "power.note_calls": "count",
    "power.note_ns": "ns",
    "config.parse_ms": "ms",
    "config.build_ms": "ms",
    "snapshot.save_ms": "ms",
    "snapshot.bytes": "B",
    "trace.overhead": "ratio",
}

# Inputs per benchmark run: several inputs average out the tail of the
# slice-time distribution, which depends on the input's bursts.  One
# power_diurnal run is too long to repeat over several inputs.
INPUTS = {"social": 4, "incast": 4, "stampede_disk": 4, "power_diurnal": 1}

# Exact work counts that every run of one seed must repeat bit for bit.
EXACT_COUNTS = ("engine_events", "engine_scheduled", "engine_cancelled",
                "disk_ops", "disk_queued_ops", "disk_peak_queue",
                "stats_samples", "power_note_calls")

# Latency statistics may differ by this much (1 ns) from the pins.
LATENCY_TOLERANCE_MS = 1e-6

# Set-up and runs must end within 180 s of the build; leave room to
# report.
DEADLINE_S = 170.0


class DeadlineExceeded(Exception):
    """A run was stopped because the benchmark's time budget ran out."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no src/CMakeLists.txt here; "
            "run from the root of the uqsim repository")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log(f"perfbench: build step failed: {' '.join(step)}")
            sys.exit(1)


def run_op(workload, seed, mode, timeout, extra=()):
    """One workload run in a fresh process; returns (result, error).

    Raises DeadlineExceeded if the run outlasts @p timeout, the time
    left in the benchmark's budget.
    """
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--mode", mode, *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise DeadlineExceeded(
            f"{mode} run stopped by the deadline after {timeout:.0f} s")
    if proc.returncode != 0:
        return None, f"{mode} run exited {proc.returncode}: " \
                     f"{proc.stderr.strip()}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, f"{mode} run printed no result: {proc.stdout!r}"


def outcome_mismatches(outcome, reference, tolerance_ms):
    """Differences between two outcome objects.

    Counts and the completion fold must be equal; each latency mean,
    p50 and p99 may differ by tolerance_ms.
    """
    problems = []
    for key in ("completed", "generated", "failed", "timeouts",
                "listener_completions", "completion_fold"):
        if outcome[key] != reference[key]:
            problems.append(f"{key}: {outcome[key]} != {reference[key]}")

    def latency(name, got, want):
        if got["count"] != want["count"]:
            problems.append(f"{name}.count: {got['count']} != "
                            f"{want['count']}")
        for stat in ("mean_ms", "p50_ms", "p99_ms"):
            if abs(got[stat] - want[stat]) > tolerance_ms:
                problems.append(f"{name}.{stat}: {got[stat]!r} != "
                                f"{want[stat]!r}")

    latency("end_to_end", outcome["end_to_end"], reference["end_to_end"])
    if sorted(outcome["tiers"]) != sorted(reference["tiers"]):
        problems.append("tier set differs")
    else:
        for tier, stats in reference["tiers"].items():
            latency(f"tiers.{tier}", outcome["tiers"][tier], stats)
    if outcome["disks"] != reference["disks"]:
        problems.append(f"disks: {outcome['disks']} != "
                        f"{reference['disks']}")
    return problems


class Checker:
    """Checks the runs of one input seed: no failed or timed-out
    requests, the pinned outcome when there is one (run-to-run equality
    otherwise), and one trace digest and one set of work counts."""

    def __init__(self, reference=None):
        self.reference = reference
        self.first = None

    def check(self, result):
        outcome = result["outcome"]
        problems = []
        if outcome["completed"] == 0:
            problems.append("no request completed")
        if outcome["failed"] or outcome["timeouts"]:
            problems.append(f"{outcome['failed']} failed, "
                            f"{outcome['timeouts']} timed out")
        if self.first is None:
            self.first = result
        elif result["digest"] != self.first["digest"]:
            problems.append(
                f"trace digest of the {result['mode']} run "
                f"{result['digest']} != {self.first['digest']} of the "
                f"{self.first['mode']} run")
        for key in EXACT_COUNTS:
            if result[key] != self.first[key]:
                problems.append(f"{key}: {result[key]} != "
                                f"{self.first[key]}")
        if self.reference is not None:
            problems += outcome_mismatches(outcome, self.reference,
                                           LATENCY_TOLERANCE_MS)
        else:
            problems += outcome_mismatches(outcome, self.first["outcome"],
                                           0.0)
        return problems


def input_seeds(workload, seed):
    """The library seeds one benchmark run cycles through."""
    return [seed * 16 + j for j in range(1, INPUTS[workload] + 1)]


def by_seed(results):
    groups = {}
    for r in results:
        groups.setdefault(r["seed"], []).append(r)
    return groups


def end_to_end_metrics(results, setup):
    # Every run of one input does the same work in slice k, so the time
    # of slice k is its median over those runs.  A run's time is the sum
    # of its slices plus the median finishRun(); the percentiles pool
    # the slices of every input.
    slices, run_ms, completions = [], 0.0, 0
    for runs in by_seed(results).values():
        per_slice = [median(times)
                     for times in zip(*(r["slice_ms"] for r in runs))]
        slices += per_slice
        run_ms += sum(per_slice) + median([r["finish_ms"] for r in runs])
        completions += runs[0]["outcome"]["listener_completions"]
    cuts = statistics.quantiles(slices, n=100, method="inclusive")
    return {
        "sim_rps": completions / (run_ms / 1e3),
        "slice_ms_p50": cuts[49],
        "slice_ms_p99": cuts[98],
        "setup_s": median(setup["setup_s"]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
    }


def per_layer_metrics(results, setup):
    plain = [r for r in results if r["mode"] == "plain"]
    sliced = [r for r in results if r["mode"] == "sliced"]
    traced = [r for r in results if r["mode"] == "traced"]
    first = results[0]
    completions = first["outcome"]["listener_completions"]
    events = first["engine_events"]
    cancelled = first["engine_cancelled"]
    metrics = {
        "engine.events": events,
        "engine.scheduled": first["engine_scheduled"],
        "engine.cancelled": cancelled,
        "engine.events_per_req": events / completions,
        "engine.cancels_per_req": cancelled / completions,
        "engine.events_per_s": median([events / r["run_s"] for r in sliced]),
    }
    for layer in LAYERS:
        metrics[f"{layer}.events"] = traced[0]["layers"][layer]["events"]
        metrics[f"{layer}.host_share"] = median(
            [r["layers"][layer]["host_ns"] /
             sum(v["host_ns"] for v in r["layers"].values())
             for r in traced])
    disk_ops = first["disk_ops"]
    metrics.update({
        "disk.ops": disk_ops,
        "disk.queued_ops": first["disk_queued_ops"],
        "disk.peak_queue": first["disk_peak_queue"],
        "disk.cancels_per_op": cancelled / disk_ops if disk_ops else 0.0,
        "stats.samples": first["stats_samples"],
        "stats.report_ms": median([r["finish_ms"] for r in sliced]),
        "mem.bytes_per_req": median([r["mem_bytes_per_req"]
                                     for r in sliced]),
        "power.note_calls": first["power_note_calls"],
        "power.note_ns": median([r["power_note_ns"] for r in traced]),
        "config.parse_ms": median(setup["parse_ms"]),
        "config.build_ms": median(setup["build_ms"]),
        "snapshot.save_ms": median([r["snapshot_save_ms"]
                                    for r in traced]),
        "snapshot.bytes": traced[0]["snapshot_bytes"],
        "trace.overhead": median([r["run_s"] for r in traced]) /
                          median([r["run_s"] for r in plain]),
    })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    # The budget starts after the build, which may take minutes on a
    # fresh checkout.
    started = time.monotonic()
    pins = json.loads(PINS.read_text())
    pinned = args.seed == pins["default_seed"]
    # One operation is one sliced run (--trace 0), cycling through the
    # inputs, or one set of plain, sliced and traced runs of the first
    # input (--trace 1).
    seeds = input_seeds(args.workload, args.seed)
    if args.trace:
        seeds = seeds[:1]
    modes = ("plain", "sliced", "traced") if args.trace else ("sliced",)
    checkers = {
        s: Checker(pins["workloads"][args.workload][str(s)] if pinned
                   else None)
        for s in seeds}
    trace_out = BUILD / f"trace-{args.workload}-seed{seeds[0]}.json"

    def remaining():
        return DEADLINE_S - (time.monotonic() - started)

    # Set-ups are timed in a process of their own, so that every timed
    # run starts in a process that has built one simulation.
    try:
        setup, error = run_op(args.workload, seeds[0], "setup", remaining())
    except DeadlineExceeded as e:
        setup, error = None, str(e)
    if error:
        log(f"perfbench: set-up failed: {error}")
        return 1

    results, attempted, failed, cut, tried = [], 0, 0, 0, set()
    measure_start = time.monotonic()
    while True:
        op_start = time.monotonic()
        seed = seeds[attempted % len(seeds)]
        op_results, problems = [], []
        try:
            for mode in modes:
                extra = ("--trace-out", str(trace_out)) \
                    if mode == "traced" else ()
                result, error = run_op(args.workload, seed, mode,
                                       remaining(), extra)
                if error:
                    problems.append(error)
                    break
                problems += checkers[seed].check(result)
                op_results.append(result)
        except DeadlineExceeded as e:
            # A budget problem, not a wrong outcome: the operation is
            # left out of 'attempted'.
            cut += 1
            log(f"perfbench: operation (seed {seed}) left out: {e}")
            break
        attempted += 1
        tried.add(seed)
        if problems:
            failed += 1
            log(f"perfbench: operation {attempted} (seed {seed}) FAILED:")
            for problem in problems:
                log(f"  {problem}")
        else:
            results += op_results
        now = time.monotonic()
        per_op = (now - measure_start) / attempted
        if now - started + 2 * (now - op_start) > DEADLINE_S:
            break
        if attempted >= len(seeds) and \
                now - measure_start + per_op > args.seconds:
            break

    if attempted == 0:
        log("perfbench: no operation finished within the deadline")
        return 1
    check = "pinned outcome" if pinned else "run-to-run equality"
    print(f"outcome check ({check}): {'pass' if failed == 0 else 'FAIL'}; "
          f"{failed} of {attempted} operations failed "
          f"(failed share {failed / attempted:.3f}); "
          f"{cut} left out at the deadline")
    if not results:
        log("perfbench: no operation succeeded")
        return 1
    missing = sorted(set(seeds) - tried)
    if missing:
        log(f"perfbench: input seeds {missing} not run before the deadline")
        return 1
    if args.trace:
        metrics, units = per_layer_metrics(results, setup), PER_LAYER
        log(f"perfbench: per-label spans written to {trace_out}")
    else:
        metrics, units = end_to_end_metrics(results, setup), END_TO_END

    digests = {s: runs[0]["digest"] for s, runs in by_seed(results).items()}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"input seeds {seeds}, trace digests {digests} "
          f"(information only)")
    for name, unit in units.items():
        print(f"  {name:<24} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
