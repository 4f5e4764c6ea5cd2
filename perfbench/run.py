#!/usr/bin/env python3
"""The repository's benchmark: builds the library and the benchmark program from source,
runs one workload (or all of them), checks the answers and reports metrics.

    python3 perfbench/run.py --workload search_fp32 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10
    python3 perfbench/run.py --write-benchmark-json

Run from the repository root. `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer ones. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit code is
0 only when every check passed. `--all` runs every workload untraced and
traced and prints each table. `--write-benchmark-json` regenerates
BENCHMARK.json from the definitions below, which are the single source of the
workload list, metric names, units and bounds.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_SECONDS = 45
RUN_TIMEOUT_S = 170

WORKLOADS = [
    ("search_fp32",
     "DB-LSH's own query path (projection, R*-tree windows, verify) does nearly all the work; "
     "100k x 128 rows (51 MB) exceed L2, so verify pays cache misses"),
    ("serve_mixed",
     "cheap queries (5k rows per shard) so coalescer, framing, fan-out/merge and WAL fsync "
     "dominate; the only workload with shards>1, durability and writes beside reads"),
]

# Runnable with --workload and --all but not listed in BENCHMARK.json: its
# three PQ trainings per run do not fit the benchmark's time budget next to
# runs long enough to hold qps steady on a shared host.
EXTRA_WORKLOADS = [
    ("search_pq",
     "same index and queries over PQ codes (m=16): ADC scoring and re-rank dominate queries "
     "and k-means dominates setup"),
]

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("qps", "1/s", "higher", 0.25),
    ("recall_at_10", "ratio", "higher", 0.15),
    ("overall_ratio", "ratio", "lower", 0.02),
    ("rss_mb", "MB", "lower", 0.1),
]

PER_LAYER = [
    ("serve.rtt_ms", "ms", "lower"),
    ("serve.self_ms", "ms", "lower"),
    ("serve.write_rtt_ms", "ms", "lower"),
    ("serve.mean_batch", "count", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.deadline_rejected", "count", "lower"),
    ("collection.search_ms", "ms", "lower"),
    ("collection.fanout_self_ms", "ms", "lower"),
    ("collection.upsert_ms", "ms", "lower"),
    ("collection.delete_ms", "ms", "lower"),
    ("collection.checkpoint_ms", "ms", "lower"),
    ("dblsh.search_ms", "ms", "lower"),
    ("dblsh.points_accessed", "count", "lower"),
    ("dblsh.candidates_verified", "count", "lower"),
    ("dblsh.rounds", "count", "lower"),
    ("dblsh.window_queries", "count", "lower"),
    ("dblsh.verify_yield", "ratio", "higher"),
    ("lsh.project_us", "us", "lower"),
    ("rtree.window_us", "us", "lower"),
    ("rtree.ids_per_window", "count", "lower"),
    ("rtree.insert_us", "us", "lower"),
    ("rtree.height", "count", "lower"),
    ("verify.ns_per_candidate", "ns", "lower"),
    ("simd.tier", "level", "higher"),
    ("store.bytes_per_vector", "B", "lower"),
    ("store.resident_mb", "MB", "lower"),
    ("store.prepare_us", "us", "lower"),
    ("store.score_ns_per_candidate", "ns", "lower"),
    ("wal.append_us", "us", "lower"),
    ("wal.sync_us", "us", "lower"),
    ("durability.wal_appends", "count", "lower"),
    ("durability.replayed_records", "count", "lower"),
    ("durability.recovery_ms", "ms", "lower"),
    ("durability.reopen_s", "s", "lower"),
    ("loadgen.offered_qps", "1/s", "higher"),
    ("loadgen.achieved_qps", "1/s", "higher"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.query_p50_ms", "ms", "lower"),
    ("loadgen.query_p99_ms", "ms", "lower"),
    ("loadgen.upsert_p50_ms", "ms", "lower"),
    ("loadgen.delete_p50_ms", "ms", "lower"),
    ("loadgen.write_p99_ms", "ms", "lower"),
    ("trace.qps_delta", "1/s", "higher"),
    ("host.calib_before_ms", "ms", "lower"),
    ("host.calib_after_ms", "ms", "lower"),
    ("host.steal_ticks", "count", "lower"),
    ("host.memory_before_ns", "ns", "lower"),
    ("host.memory_after_ns", "ns", "lower"),
]


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def build():
    """Configures (once) and builds the program; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_workload(workload, seed, seconds, trace):
    """Runs the program once; returns its parsed result, or None on failure."""
    workdir = os.path.join(".bench_build", "work-%d" % os.getpid())
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--workdir", workdir]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("%s: no result within %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return None
    finally:
        # Never leave the program running: on a timeout or when this script
        # is itself terminated, kill it and wait for it to end.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    lines = stdout.splitlines()
    if not lines:
        return None
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        return None
    expected = {n: u for n, u, *_ in (PER_LAYER if trace else END_TO_END)}
    metrics = {n: m for n, m in result["metrics"].items() if n in expected}
    for name, unit in expected.items():
        if name not in metrics or metrics[name]["unit"] != unit:
            print("%s: metric %s missing or not in %s" % (workload, name, unit),
                  file=sys.stderr)
            return None
    result["metrics"] = metrics
    if proc.returncode != 0:
        result["correct"] = False
    return result


def main():
    # SIGTERM unwinds like an exception, so run_workload's cleanup runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS + EXTRA_WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args()

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    if not build():
        print("build failed", file=sys.stderr)
        return 1

    if args.all:
        ok = True
        for workload, _ in WORKLOADS + EXTRA_WORKLOADS:
            for trace in (0, 1):
                print("=== %s (trace %d, seed %d, %d s)" % (workload, trace, args.seed,
                                                          args.seconds))
                result = run_workload(workload, args.seed, args.seconds, trace)
                ok = ok and result is not None and result["correct"]
        return 0 if ok else 1

    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
