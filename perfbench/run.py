#!/usr/bin/env python3
"""Repository benchmark: build the simulator, run one workload, check it,
report every metric by name with its unit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]
    python3 perfbench/run.py --selfcheck
    python3 perfbench/run.py --record perfbench/baseline/<name>.json

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build). The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json untraced, the per-layer metrics traced. perfbench/README.md
says what each metric measures and which layer should move which figure.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["vessel_vm", "vessel_gc", "tenant_fleet", "syscall_storm"]
# Per-layer metrics read from the existing gbench_primitives rows (host ns
# per operation) instead of a second timing loop.
GBENCH_ROWS = {
    "hw.page_walk_ns": "BM_PageWalkMiss",
    "hw.tlb_hit_ns": "BM_TlbHit",
    "support.fiber_switch_ns": "BM_FiberSwitch",
    "ros.native_syscall_ns": "BM_NativeSyscall",
    "multiverse.fwd_syscall_ns": "BM_ForwardedSyscall",
    "aerokernel.symbol_lookup_ns": "BM_SymbolLookup/1",
    "aerokernel.symbol_lookup_uncached_ns": "BM_SymbolLookup/0",
}
# Seeds per workload in a trajectory point (--record).
RUNS = 10
# Simulated figures: identical for two runs of one seed.
SIMULATED = ["sim_cycles", "sim_req_p50_cycles", "sim_req_p99_cycles"]


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out, "-j", jobs,
              "--target", "perfbench", "gbench_primitives"]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            spec["run_seconds"])


def gbench_rows(out):
    names = "|".join(GBENCH_ROWS.values())
    proc = subprocess.run(
        [os.path.join(out, "gbench_primitives"),
         "--benchmark_filter=^(" + names + ")$",
         "--benchmark_min_time=0.05", "--benchmark_format=json"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode:
        die("gbench_primitives failed")
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    rows = {b["name"]: b["real_time"] * scale[b["time_unit"]]
            for b in json.loads(proc.stdout)["benchmarks"]}
    return {metric: rows[row] for metric, row in GBENCH_ROWS.items()}


def run_round(out, name, seed, trace, size, golden):
    """One round in a fresh process: its JSON line."""
    cmd = [os.path.join(out, "perfbench"), "--workload", name,
           "--seed", str(seed), "--trace", "1" if trace else "0",
           "--size", size, "--golden", golden or os.path.join(HERE, "golden")]
    if trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out, "traces", "%s-%s.json" % (name, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        die("%s exited with %d" % (name, proc.returncode))
    return json.loads(lines[-1])


def simulated(r):
    return (r["sim_digest"], r["sim_cycles"], r["measured_cycles"],
            r["attempted"], r["failed"])


def end_to_end(rounds):
    """Host figures: the median over rounds. Simulated figures: the first
    round's (every round has the same)."""
    def median(key):
        return statistics.median(r[key] for r in rounds)
    first = rounds[0]
    wall_s = median("wall_s")
    return {"setup_s": median("setup_s"), "wall_s": wall_s,
            "cpu_s": median("cpu_s"), "peak_rss_mb": median("peak_rss_mb"),
            "sim_mcycles_per_s": first["measured_cycles"] / wall_s / 1e6,
            "sim_cycles": first["sim_cycles"],
            "sim_req_p50_cycles": first["sim_req_p50_cycles"],
            "sim_req_p99_cycles": first["sim_req_p99_cycles"]}


def run_workload(out, name, seed, seconds, trace, size="full", golden=None):
    """Untraced: rounds for about `seconds` (at least one), the end-to-end
    metrics. Traced: one untraced and one traced round, the
    per-layer metrics. Either way every round of the seed must reproduce
    the first one's simulated figures."""
    start = time.monotonic()
    rounds = [run_round(out, name, seed, False, size, golden)]
    if trace:
        rounds.append(run_round(out, name, seed, True, size, golden))
        metrics = rounds[1]["metrics"]
        metrics["trace.wall_ratio"] = rounds[1]["wall_s"] / rounds[0]["wall_s"]
        metrics.update(gbench_rows(out))
    else:
        # Start another round only if it should end by half a round past
        # the window: a run then lasts about `seconds` however long a round
        # takes, which keeps the total time of many runs predictable.
        last = time.monotonic() - start
        while time.monotonic() - start + last / 2 < seconds:
            begun = time.monotonic()
            rounds.append(run_round(out, name, seed, False, size, golden))
            last = time.monotonic() - begun
        metrics = end_to_end(rounds)
    problems = [p for r in rounds for p in r["problems"]][:8]
    deterministic = all(simulated(r) == simulated(rounds[0]) for r in rounds)
    if not deterministic:
        problems.insert(0, "rounds of one seed disagree on simulated figures"
                        + (" (tracing moved one)" if trace else ""))
    # The operation counts are one round's: every round of the seed has the
    # same ones, so they depend on the seed alone and not on how many rounds
    # fitted into the run.
    return {"workload": name, "rounds": len(rounds),
            "correct": deterministic and all(r["correct"] for r in rounds),
            "attempted": rounds[0]["attempted"],
            "failed": rounds[0]["failed"],
            "problems": problems,
            "known_defects": [p for r in rounds
                              for p in r["known_defects"]][:8],
            "metrics": metrics}


def report(result, units, seed):
    """Print every metric by name and unit; return the result line."""
    name = result["workload"]
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        die("%s did not emit %s" % (name, ", ".join(missing)))
    attempted, failed = result["attempted"], result["failed"]
    print("workload %s seed %s: %d rounds, %d operations, %d failed"
          % (name, seed, result["rounds"], attempted, failed))
    for metric in sorted(units):
        print("  %-40s %.6g %s" % (metric, result["metrics"][metric],
                                   units[metric]))
    print("  %-40s %.6g ratio" % ("error_rate", failed / max(attempted, 1)))
    for problem in result["problems"]:
        print("  problem: " + problem)
    for defect in result["known_defects"]:
        print("  known seed defect: " + defect)
    return {"correct": result["correct"], "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": result["metrics"][m], "unit": units[m]}
                        for m in sorted(units)}}


def selfcheck(out, e2e, layers):
    """Tiny sizes: every name is emitted, simulated figures repeat, tracing
    moves no simulated figure, and a wrong golden output is caught."""
    problems = []
    for name in WORKLOADS:
        first = run_workload(out, name, 7, 0, False, "tiny")
        second = run_workload(out, name, 7, 0, False, "tiny")
        traced = run_workload(out, name, 7, 0, True, "tiny")
        report(first, e2e, 7)
        report(traced, layers, 7)
        for metric in SIMULATED:
            if first["metrics"][metric] != second["metrics"][metric]:
                problems.append("%s: %s differs between two runs"
                                % (name, metric))
        if not (first["correct"] and second["correct"] and traced["correct"]):
            problems.append("%s: not correct: %s" % (name, first["problems"]
                                                      + traced["problems"]))
    bad = os.path.join(out, "golden-mismatch")
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "golden"), bad)
    with open(os.path.join(bad, "test", "n-body.out"), "a") as f:
        f.write("tampered\n")
    tampered = run_workload(out, "vessel_gc", 7, 0, False, "tiny", bad)
    if tampered["failed"] != 1 or tampered["correct"]:
        problems.append("a tampered golden output was not reported")
    for problem in problems:
        print("selfcheck: " + problem)
    print("selfcheck: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def record(out, e2e, layers, path, seconds):
    """A trajectory point: every workload untraced on seeds 1..RUNS, then
    traced once; per end-to-end metric the median, the quartiles and their
    spread as a share of the median (as statistics.quantiles(n=4) gives
    them), and the per-layer values."""
    with open("/proc/cpuinfo") as f:
        cpu = next((l.split(":", 1)[1].strip() for l in f
                    if l.startswith("model name")), "unknown")
    point = {"machine": {"cpu": cpu, "cpus": os.cpu_count()},
             "run_seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        results = [run_workload(out, name, seed, seconds, False)
                   for seed in range(1, RUNS + 1)]
        entry = {"seeds": list(range(1, RUNS + 1)),
                 "attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results],
                 "correct": all(r["correct"] for r in results),
                 "end_to_end": {}}
        for metric, unit in sorted(e2e.items()):
            values = [r["metrics"][metric] for r in results]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            entry["end_to_end"][metric] = {
                "unit": unit, "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else None,
                "values": values}
            print("%-14s %-20s median %-12.6g spread %.4f"
                  % (name, metric, median, entry["end_to_end"][metric]["spread"]
                     or 0.0))
        traced = run_workload(out, name, 1, seconds, True)
        entry["per_layer"] = {m: {"value": traced["metrics"][m], "unit": u}
                              for m, u in sorted(layers.items())}
        point["workloads"][name] = entry
    with open(path, "w") as f:
        json.dump(point, f, indent=1)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: BENCHMARK.json's "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced")
    parser.add_argument("--selfcheck", action="store_true",
                        help="tiny sizes: names, determinism, oracle")
    parser.add_argument("--record", metavar="FILE",
                        help="write a trajectory point to FILE")
    args = parser.parse_args()
    if not (args.workload or args.all or args.selfcheck or args.record):
        parser.error("give --workload, --all, --selfcheck or --record")

    out = build()
    e2e, layers, run_seconds = load_spec()
    seconds = run_seconds if args.seconds is None else args.seconds
    if args.selfcheck:
        return selfcheck(out, e2e, layers)
    if args.record:
        return record(out, e2e, layers, args.record, seconds)
    if args.all:
        clean = True
        for name in WORKLOADS:
            for trace in (False, True):
                line = report(run_workload(out, name, args.seed, seconds,
                                           trace),
                              layers if trace else e2e, args.seed)
                clean &= line["correct"]
        return 0 if clean else 1
    line = report(run_workload(out, args.workload, args.seed, seconds,
                               args.trace),
                  layers if args.trace else e2e, args.seed)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
