#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark binary (perfbench/src) is compiled from
the repository sources into .bench_build/ on first use. The run prints a
record line (host fingerprint, checks, sample counts) and, as its last
stdout line, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1. Exit code 0 only when every output check
passed. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("rr_fulltable", "ov_fulltable")
HOSTS = ("fir", "wren")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10
# The share of feeds that must reach a reported routes/s rate, and the
# reported churn percentiles. On a shared host the speed jumps between a
# contended level and short uncontended bursts whose share varies from run
# to run; the median lands between the two levels, these quantiles on the
# contended one, which holds steadier across runs (see perfbench/README.md).
FEED_SHARE = 0.9
CHURN_QUANTILES = (0.75, 0.95)
RUN_TIMEOUT_S = 170


def quantile(samples, q):
    """Linear-interpolation quantile (q in [0, 1]) of a non-empty sample."""
    if not samples:
        raise ValueError("quantile of an empty sample")
    s = sorted(samples)
    pos = q * (len(s) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(samples):
    return quantile(samples, 0.5)


def highest_supported_quantile(n, wanted):
    """The largest q <= wanted with at least MIN_TAIL of n samples beyond it
    (never below the median)."""
    if n <= 0:
        raise ValueError("no samples")
    return max(0.5, min(wanted, 1.0 - MIN_TAIL / n))


def valid_name(name):
    return bool(NAME_RE.match(name))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def end_to_end(record):
    """Reduces the binary's raw samples to the end-to-end metrics."""
    series = record["series"]
    m = {}
    notes = {}
    for h in HOSTS:
        for mode in ("ext", "native"):
            key = f"{h}.{mode}_routes_per_s"
            rates = series[key]
            share = highest_supported_quantile(len(rates), FEED_SHARE)
            m[key] = (quantile(rates, 1.0 - share), "1/s")
            notes[f"{key}.feed_share"] = share
            notes[f"{key}.median"] = median(rates)
        churn = series[f"{h}.churn_ms"]
        for wanted in CHURN_QUANTILES:
            q = highest_supported_quantile(len(churn), wanted)
            m[f"{h}.churn_p{round(wanted * 100)}_ms"] = (quantile(churn, q), "ms")
            notes[f"{h}.churn_p{round(wanted * 100)}_quantile"] = q
        notes[f"{h}.churn_samples"] = len(churn)
        notes[f"{h}.feed_samples"] = len(series[f"{h}.ext_routes_per_s"])
    m["setup_s"] = (median(series["setup_s"]), "s")
    notes["setup_samples"] = len(series["setup_s"])
    m["peak_rss_mb"] = (record["values"]["peak_rss_mb"], "MB")
    return m, notes


def fingerprint():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "build_type": build_type,
            "load_avg_start": os.getloadavg()}


def build():
    """Configures (once) and builds the benchmark binary; returns an error text or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return f"no xBGP sources next to {HERE}"
    if shutil.which("cmake") is None:
        return "cmake not found"
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            return f"{' '.join(cmd)} failed:\n{proc.stdout[-4000:]}"
    return None


def run_binary(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0"]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"perfbench binary exceeded {RUN_TIMEOUT_S} s"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"perfbench binary exited with {proc.returncode}"
    return json.loads(lines[-1]), None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs (self-test smoke runs)")
    args = ap.parse_args(argv)

    err = build()
    if err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    host = fingerprint()
    record, err = run_binary(args)
    if err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    host["load_avg_end"] = os.getloadavg()
    host.update(record["host"])

    if args.trace:
        metrics = {k: (v["value"], v["unit"]) for k, v in record["layers"].items()}
        notes = {}
    else:
        metrics, notes = end_to_end(record)

    problems = [f"check {c['name']}: {c['detail']}" for c in record["checks"] if not c["ok"]]
    declared = declared_metrics(args.trace)
    for d in declared:
        if d["name"] not in metrics:
            problems.append(f"metric {d['name']} not emitted")
        elif metrics[d["name"]][1] != d["unit"]:
            problems.append(f"metric {d['name']} has unit {metrics[d['name']][1]}, "
                            f"declared {d['unit']}")
    names = {d["name"] for d in declared}
    problems += [f"metric {k} not declared" for k in metrics if k not in names]
    problems += [f"bad metric name {k}" for k in metrics if not valid_name(k)]
    problems += [f"metric {k} is not finite" for k, (v, _) in metrics.items()
                 if v is None or not math.isfinite(v)]

    attempted = max(1, int(record["attempted"]))
    failed = int(record["failed"])
    correct = not problems and failed == 0
    print(json.dumps({"record": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "failed_frac": failed / attempted,
        "problems": problems, "notes": notes, "values": record["values"]}}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())
                    if k in names}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
