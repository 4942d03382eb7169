#!/usr/bin/env python3
"""Benchmark of the FPTree stack: one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds perfbench/bench.exe with dune,
then starts measurement processes (2 client domains each, closed loop):

  --trace 0  PROCS independent processes, each: set-up, SECONDS/PROCS of
             timed load, restarts.  Every end-to-end metric is the median
             over the processes; recovery_s is the median over all their
             restarts.
  --trace 1  one untraced and one traced process, SECONDS/2 of load each;
             reports the per-layer metrics and trace.overhead_ratio.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 only when every result was checked correct.  See
perfbench/README.md for the metrics, the workloads and the layer map.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ["kv-zipf-read", "fixed-mixed", "tatp-restart"]
PROCS = 3
BUILD_TIMEOUT_S = 850
PROC_TIMEOUT_S = 150

# name -> unit; the metrics of the final JSON line, in order.
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "read_p50_us": "us",
    "read_p99_us": "us",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "recovery_s": "s",
    "scm_bytes_per_key": "B",
    "dram_bytes_per_key": "B",
    "heap_mb": "MiB",
}

# Printed with their sample counts when the workload has the op class.
CLASS_LATENCIES = [
    ("read", "read_n"),
    ("write", "write_n"),
    ("scan", "scan_n"),
    ("op", "op_n"),
]

PER_LAYER = {
    "kvstore.self_us": "us",
    "kvstore.set_retry_ratio": "ratio",
    "kvstore.hit_rate": "ratio",
    "dbproto.self_us": "us",
    "dbproto.index_calls_per_tx": "count",
    "dbproto.restart_index_max_s": "s",
    "dbproto.restart_index_sum_s": "s",
    "fptree.find_us": "us",
    "fptree.insert_us": "us",
    "fptree.update_us": "us",
    "fptree.delete_us": "us",
    "fptree.range_us": "us",
    "fptree.find.residual_us": "us",
    "fptree.insert.residual_us": "us",
    "fptree.update.residual_us": "us",
    "fptree.delete.residual_us": "us",
    "fptree.range.residual_us": "us",
    "fptree.key_probes_per_find": "count",
    "fptree.splits_per_kop": "count",
    "fptree.leaf_deletes_per_kop": "count",
    "fptree.height": "count",
    "fptree.inner.descent_ns": "ns",
    "fptree.leaf.scan_ns": "ns",
    "pmem.resolve_ns": "ns",
    "htm.aborts_per_kop": "count",
    "htm.precise_conflicts_per_kop": "count",
    "htm.fallbacks_per_kop": "count",
    "htm.backoff_waits_per_kop": "count",
    "scm.line_reads_per_op": "count",
    "scm.line_writes_per_op": "count",
    "scm.flushes_per_op": "count",
    "scm.persists_per_write": "count",
    "scm.modeled_extra_us_per_op_650ns": "us",
    "attrib.microlog.persists_per_write": "count",
    "attrib.bitmap.persists_per_write": "count",
    "attrib.fingerprint.persists_per_write": "count",
    "attrib.kv.persists_per_write": "count",
    "attrib.ool_key.persists_per_write": "count",
    "attrib.alloc_meta.persists_per_write": "count",
    "pmem.allocs_per_kop": "count",
    "pmem.frees_per_kop": "count",
    "pmem.of_region_s": "s",
    "recovery.tree_recover_s": "s",
    "recovery.line_reads": "count",
    "recovery.leaves": "count",
    "gc.minor_words_per_op": "words",
    "gc.minor_collections_per_kop": "count",
    "durability.acked_writes": "count",
    "durability.lost_acked_writes": "count",
    "durability.fsck_errors": "count",
    "trace.overhead_ratio": "ratio",
    "host.nproc": "count",
    "host.calibration_ns": "ns",
}


# Layers a workload does not cross: their per-layer metrics read 0.
NOT_CROSSED = {
    "kv-zipf-read": ("dbproto.", "durability.acked_writes",
                     "durability.lost_acked_writes"),
    "fixed-mixed": ("kvstore.", "dbproto."),
    "tatp-restart": ("kvstore.", "durability.acked_writes",
                     "durability.lost_acked_writes"),
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def build(root):
    """Build the measurement executable from the checkout's sources."""
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        fail("not the root of a checkout of the repository (no dune-project or lib/)")
    cmd = dune_command() + ["build", "--root", root, "--cache=disabled",
                            "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    if not os.path.isfile(exe):
        fail("build produced no executable")
    return exe


def measure(exe, root, workload, mode, seed, seconds):
    """One measurement process; returns its parsed JSON result."""
    cmd = [exe, workload, mode, str(seed), "%.3f" % seconds]
    try:
        r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=PROC_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s %s seed %d timed out" % (workload, mode, seed))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("%s %s seed %d exited with %d" % (workload, mode, seed, r.returncode))
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("%s %s seed %d printed no result" % (workload, mode, seed))


def fmt(x):
    return "%.6g" % x


def run_e2e(exe, root, workload, seed, seconds):
    per = seconds / PROCS
    results = [measure(exe, root, workload, "e2e", seed * 1000 + p, per)
               for p in range(PROCS)]
    med = {}
    for name in results[0]["metrics"]:
        pooled = [x for r in results for x in r["samples"].get(name, [])]
        med[name] = statistics.median(
            pooled or [r["metrics"][name] for r in results])
    print("%s: %d processes x %.2f s timed, 2 domains each, closed loop; "
          "medians over processes" % (workload, PROCS, per))
    for name, unit in END_TO_END.items():
        if name.endswith("_us"):
            continue
        print("  %-20s %12s %s" % (name, fmt(med[name]), unit))
    for cls, n in CLASS_LATENCIES:
        if n in med:
            print("  %-20s %12s us   %-20s %12s us   (n=%d)" % (
                cls + "_p50_us", fmt(med[cls + "_p50_us"]),
                cls + "_p99_us", fmt(med[cls + "_p99_us"]), int(med[n])))
    return results, {name: med[name] for name in END_TO_END}


def run_traced(exe, root, workload, seed, seconds):
    per = seconds / 2
    base = measure(exe, root, workload, "base", seed * 1000, per)
    traced = measure(exe, root, workload, "traced", seed * 1000, per)
    m = dict(traced["metrics"])
    for name in PER_LAYER:
        if name not in m and name != "trace.overhead_ratio":
            if not name.startswith(NOT_CROSSED[workload]):
                fail("%s reported no %s" % (workload, name))
            m[name] = 0.0
    m["trace.overhead_ratio"] = (m["throughput_ops_s"]
                                 / base["metrics"]["throughput_ops_s"])
    print("%s: per-layer metrics, traced process of %.2f s timed "
          "(untraced %s ops/s, traced %s ops/s)" % (
              workload, per, fmt(base["metrics"]["throughput_ops_s"]),
              fmt(m["throughput_ops_s"])))
    for name, unit in PER_LAYER.items():
        print("  %-40s %14s %s" % (name, fmt(m[name]), unit))
    return [base, traced], {name: m[name] for name in PER_LAYER}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.getcwd()
    exe = build(root)
    run = run_traced if args.trace else run_e2e
    results, metrics = run(exe, root, args.workload, args.seed, args.seconds)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    for r in results:
        for note in r.get("notes", []):
            print("  note: " + note)
    print("  error_rate %s (%d failed / %d attempted)" % (
        fmt(failed / max(1, attempted)), failed, attempted))
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
