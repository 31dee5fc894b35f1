#!/usr/bin/env python3
"""End-to-end benchmark of the du-opacity stack (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload mond-stream --seed 1 --seconds 10 --trace 0

Builds the benchmark (Release) from the sources next to this directory,
generates the workload's seeded inputs in a separate process, measures the
workload, checks every verdict, and prints a report followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones. Build
products and outputs (spans, full result records, replayable traces of any
live-tap mismatch) go under $CARGO_TARGET_DIR (default .bench_build).

--baseline FILE also writes the full result record (machine context
included) to FILE; it refuses to do so from a build that is not Release.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mond-stream", "check-offline", "tap-feed", "live-tap")

END_TO_END = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "verdict_ms": "ms",
}

# Per-layer metric -> unit. Every traced run reports every one; a layer the
# workload does not exercise reports 0. live-tap's traced run also measures
# the tapped STM rates; the report block lists them.
PER_LAYER = {
    "history.parse_events_per_s": "events/s",
    "history.parse_ms": "ms",
    "history.make_ms": "ms",
    "checker.fso_ms": "ms",
    "checker.opacity_ms": "ms",
    "checker.du_ms": "ms",
    "checker.rco_ms": "ms",
    "checker.tms2_ms": "ms",
    "checker.sser_ms": "ms",
    "checker.graph_routed_ratio": "ratio",
    "checker.dfs_nodes": "count",
    "checker.dfs_memo_hits": "count",
    "monitor.feed_events_per_s": "events/s",
    "monitor.batch_us_p50": "us",
    "monitor.batch_us_p99": "us",
    "monitor.gc_batch_us_p50": "us",
    "monitor.fast_yes_ratio": "ratio",
    "monitor.full_checks": "count",
    "monitor.graph_checks": "count",
    "monitor.deferred_edges": "count",
    "monitor.chain_splices": "count",
    "monitor.edges_added": "count",
    "monitor.retired_txns": "count",
    "monitor.sealed_reads": "count",
    "monitor.gc_passes": "count",
    "monitor.peak_graph_nodes": "count",
    "monitor.peak_retained_events": "count",
    "monitor.peak_live_txns": "count",
    "monitor.tap_busy_s": "s",
    "monitor.tap_idle_polls": "count",
    "monitor.tap_us_per_event": "us",
    "monitor.tap_backlog_at_join": "count",
    "service.poll_ms": "ms",
    "service.submit_blocked_s": "s",
    "service.finish_ms": "ms",
    "service.inflight_p50": "count",
    "service.overhead_s": "s",
    "stm.bare_commits_per_s.tl2": "commits/s",
    "stm.bare_commits_per_s.norec": "commits/s",
    "stm.bare_commits_per_s.2pl-undo": "commits/s",
    "stm.recorded_commits_per_s.tl2": "commits/s",
    "stm.recorded_commits_per_s.norec": "commits/s",
    "stm.recorded_commits_per_s.2pl-undo": "commits/s",
    "stm.abort_ratio": "ratio",
    "stm.recorded_events": "count",
    "trace.untraced_events_per_s": "events/s",
    "trace.traced_events_per_s": "events/s",
    "trace.overhead_ratio": "ratio",
    "trace.residual_s": "s",
}

# The per-workload names of the end-to-end metrics, as the
# report block prints them (report key in the binary's output -> unit).
NAMED = {
    "mond-stream": {"stream_events_per_s": "events/s",
                    "stream_pass_ms": "ms", "stream_peak_rss_mb": "MB"},
    "check-offline": {"check_events_per_s": "events/s",
                      "check_long_ms": "ms", "check_short_ms": "ms",
                      "locate_ms": "ms", "peak_rss_mb": "MB"},
    "tap-feed": {"tap_events_per_s": "events/s", "tap_drain_ms": "ms",
                 "peak_rss_mb": "MB"},
    "live-tap": {"tap_events_per_s": "events/s", "tap_drain_ms": "ms",
                 "tap_events_per_s.tl2": "events/s",
                 "tap_events_per_s.norec": "events/s",
                 "tap_events_per_s.2pl-undo": "events/s",
                 "tap_drain_ms.tl2": "ms", "tap_drain_ms.norec": "ms",
                 "tap_drain_ms.2pl-undo": "ms", "peak_rss_mb": "MB"},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build():
    """Configures (once, Release) and builds the benchmark; returns the
    binary path and the build type the CMake cache holds."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the du-opacity sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from a full checkout")
    bdir = os.path.join(build_root(), "perfbench-release")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(bdir, "perfbench"), cache_build_type(bdir)


def cache_build_type(bdir):
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def source_identity():
    """The commit when this is a git checkout, plus a digest of the sources
    the benchmark builds (a checkout without .git still gets one)."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_json(cmd, timeout):
    """Runs a perfbench subcommand; returns its last stdout line as JSON."""
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if r.stderr:
        log(r.stderr.rstrip())
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("failed (exit %d): %s" % (r.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", metavar="FILE",
                    help="also write the full result record to FILE "
                         "(Release builds only)")
    args = ap.parse_args()
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]", 2)

    binary, build_type = build()
    if args.baseline and build_type != "Release":
        fail("refusing to record a baseline from a %s build" % build_type, 3)
    out_dir = os.path.join(build_root(), "out")
    os.makedirs(out_dir, exist_ok=True)

    commit, digest = source_identity()
    context = {"nproc": os.cpu_count(), "load_before": loadavg(),
               "build_type": build_type, "commit": commit,
               "source_digest": digest}
    context["probe"] = run_json([binary, "probe"], 60)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out-dir", out_dir]
    gen = run_json([binary, "gen"] + common, 120)
    res = run_json([binary, "run"] + common +
                   ["--seconds", repr(args.seconds),
                    "--trace", str(args.trace)], 175)
    context["load_after"] = loadavg()

    if args.trace:
        # A layer the workload does not exercise did no work: 0.
        metrics = {k: {"value": res["metrics"].get(k, 0.0), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        missing = [k for k in END_TO_END if k not in res["metrics"]]
        if missing:
            fail("metrics missing from the run: " + ", ".join(missing))
        metrics = {k: {"value": res["metrics"][k], "unit": u}
                   for k, u in END_TO_END.items()}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "context": context, "inputs": gen, "correct": res["correct"],
              "attempted": res["attempted"], "failed": res["failed"],
              "wrong_verdicts": res["wrong_verdicts"],
              "failures": res["failures"], "metrics": metrics,
              "report": res["report"], "time": time.time()}
    tag = "%s-%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, "result-" + tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(record, f, indent=1)

    probe = context["probe"]
    print("# %s seed=%d seconds=%g trace=%d build=%s nproc=%s speedup=%.2f "
          "load=%s->%s commit=%s digest=%s" % (
              args.workload, args.seed, args.seconds, args.trace, build_type,
              context["nproc"], probe["speedup"], context["load_before"],
              context["load_after"], commit or "none", digest))
    for k, m in metrics.items():
        print("%-40s %22.6f %s" % (k, m["value"], m["unit"]))
    if args.trace:
        for k, v in sorted(res["metrics"].items()):
            if k.startswith("stm.tapped_"):
                print("%-40s %22.6f commits/s" % (k, v))
    else:
        for k, unit in NAMED[args.workload].items():
            t = res["report"].get(k)
            if isinstance(t, dict) and not t["n"]:
                print("%-40s %22s %s (no passing run)" % (k, "-", unit))
            elif isinstance(t, dict):
                tail = ("p%g %.6f" % (t["tail_pct"], t["tail"])
                        if t["tail_pct"] else "no percentile with 10 beyond")
                print("%-40s %22.6f %s (median; %s; n=%d)" % (
                    k, t["median"], unit, tail, t["n"]))
            elif t is not None:
                print("%-40s %22.6f %s" % (k, t, unit))
    print("%-40s %22.6f share (%d failed of %d attempted)" % (
        "failed_ratio", res["report"]["failed_ratio"], res["failed"],
        res["attempted"]))
    for f in res["failures"]:
        print("FAILED: " + f)
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
