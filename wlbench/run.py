#!/usr/bin/env python3
"""WearLock repository benchmark.

Builds the harness (wlbench/harness, linked against ../src) into
.bench_build/, runs one workload, checks its outputs, and prints the
metrics as the last line of standard output:

    python3 wlbench/run.py --workload fleet_clean --seed 7 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced
runner and prints the per-layer metrics instead. See wlbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "wlbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
HARNESS = BUILD_DIR / "wlbench_harness"
WORKLOADS = ("fleet_clean", "fleet_hostile", "modem_sweep")
# Modeled compute is pinned so rollups depend only on the seed. It is
# set in the workload's environment, never through a library call.
FIXED_HOST_MS = "1.25"
HARNESS_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("wlbench: no WearLock sources next to the benchmark (src/ missing)")
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"wlbench: build step failed: {' '.join(step)}")
            return False
    return True


def run_harness(args, trace_path):
    env = dict(os.environ, WEARLOCK_FIXED_HOST_MS=FIXED_HOST_MS)
    cmd = [str(HARNESS), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    # subprocess.run kills and reaps the harness if it overruns.
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    if done.returncode != 0:
        log(f"wlbench: harness exited with {done.returncode}")
        return None
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def report_counters(raw, workload):
    """Print the exact work counters of every repeat, and whether they
    repeat exactly (untraced and traced repeats each among themselves).

    Workspace growths are per-thread arenas filling up. With more than
    one worker, which thread runs which shard is up to the scheduler,
    so growths are printed but not required to repeat."""
    skip = ("growths",) if raw.get("threads", 1) > 1 else ()
    groups = {"untraced": list(raw["repeats"])}
    if raw.get("traced"):
        groups["traced"] = [t.get("run", t) for t in raw["traced"]]
    same = True
    for kind, runs in groups.items():
        for i, run in enumerate(runs):
            print(f"# counters {workload} {kind} {i} ({run['wall_s']:.3f} s, "
                  f"cpu {run['cpu_s']:.3f} s): "
                  + json.dumps(analysis.counters_of(run), sort_keys=True))
        repeat = analysis.counters_repeat(runs, skip)
        print(f"# counters{' except ' + ', '.join(skip) if skip else ''} "
              f"repeat exactly across {len(runs)} {kind} runs: {repeat}")
        same = same and repeat
    return same


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
    raw = run_harness(args, trace_path)
    if raw is None:
        return 1

    sweep = args.workload == "modem_sweep"
    if sweep:
        attempted, failed, notes = analysis.sweep_failures(raw)
    else:
        attempted, failed, notes = analysis.fleet_failures(raw)
    for note in notes:
        print(f"# failure: {note}")
    correct = report_counters(raw, args.workload)
    if not sweep:
        # Every repeat rolls up to the same bytes, so one count serves all.
        print(f"# attempts (records + retries) per campaign: "
              f"{analysis.attempts(raw['cohorts'])}")

    if args.trace:
        with open(trace_path) as f:
            spans = json.load(f)["spans"]
        metrics = analysis.layer_metrics(raw, spans, args.workload)
        if not sweep:
            mismatches = sum(t["modem_mismatches"] for t in raw["traced"])
            print(f"# sessions whose modem calls could not be rebuilt: {mismatches}")
            correct = correct and mismatches == 0
            drain, accounted = analysis.subtree_accounting(spans, "protocol.drain")
            print(f"# drain accounting: {drain:.3f} ms of drain, "
                  f"{accounted:.3f} ms in drain_other + modem self time")
            correct = correct and abs(drain - accounted) <= 1e-6 * max(1.0, drain)
        print(f"# trace: {len(spans)} spans in {trace_path.relative_to(ROOT)}")
    else:
        metrics, (tail, samples) = (analysis.sweep_metrics(raw) if sweep
                                    else analysis.fleet_metrics(raw))
        print(f"# latency_ms_tail is p{tail:g} of {samples} samples"
              + (" per repeat, median over repeats" if sweep else ""))
    correct = correct and failed == 0
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
