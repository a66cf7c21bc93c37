#!/usr/bin/env python3
"""bench_runner: pinned perf-smoke subset with machine-readable output.

Runs a fixed, small subset of the benchmark suite — the reformulation-heavy
strategy comparison (Q6, the largest UCQ of the LUBM suite: 79 CQs after
reformulation with interval atoms, 462 without), the parallel-evaluation
suite at 1 and 8 threads, the snapshot-isolation read-path overhead
(pristine store vs sealed delta runs vs a racing writer), the
hierarchy-encoding comparison (classic
per-subclass UCQ members vs collapsed interval range scans, T15), and the
view-cache cold/warm/churn comparison (T17) — plus the sp2b macro
benchmark (T16): the closed-loop workload_driver replaying the pinned
query mix from concurrent clients, swept over writer on/off and view
cache on/off (the cache rows carry hit/miss/invalidation counters).
Writes one JSON document per run (default BENCH_PR10.json).

The subset is pinned so numbers stay comparable across commits: same
queries, same scenario (the shared LUBM dataset the bench binaries build),
same benchmark filters. Google Benchmark's JSON goes to a temp file via
--benchmark_out (stdout carries the human tables), and this script folds
every binary's results into one document:

    {
      "schema": "rdfref-bench/1",
      "generated_by": "tools/bench_runner.py",
      "git_rev": "<short rev or null>",
      "config": {"pinned": [["bench/bench_strategies", "<filter>"], ...],
                 "min_time": null,
                 "macro": {"scenario": "sp2b", "scale": 0.25,
                           "clients": [1, 4, 16], "duration_ms": 300,
                           "strategies": ["REF-UCQ", "REF-JUCQ"],
                           "host_threads": 8}},
      "benchmarks": [
        {"binary": "bench_strategies", "name": "BM_Q6_RefUcq",
         "real_time_ms": 5.43, "cpu_time_ms": 5.42, "iterations": 130},
        ...
      ],
      "macro": [
        {"strategy": "REF-UCQ", "clients": 4, "writer": false,
         "qps": 3729.8, "p50_ms": 0.1, "p95_ms": 3.8, "p99_ms": 5.6, ...},
        ...
      ]
    }

The git_rev + config stamp makes every artifact self-describing: a JSON
diffed months later still says which commit produced it and which pinned
scenario (binaries, filters, min time) it measured.

CI runs this as the perf-smoke job and uploads the JSON as an artifact;
compare against the committed BENCH_PR10.json to spot regressions. The job
is a smoke test, not a gate: shared CI runners are too noisy for hard
thresholds, so regressions are judged by humans diffing the artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

# The pinned subset: (binary, benchmark_filter). Q6 is the reformulation
# stress case (largest UCQ); the Suite benchmarks cover the parallel chunk
# path that shares the per-UCQ scan cache; the Snapshot trio measures the
# versioned-storage read path (pristine vs sealed runs vs racing writer);
# the Encoding pair measures the hierarchy-interval collapse against the
# classic per-subclass reformulation on the same queries (T15).
PINNED = [
    ("bench/bench_strategies",
     "BM_Q6_(Sat|RefUcq|RefScq|RefGcov)$"),
    ("bench/bench_parallel",
     "BM_Suite_Ref(Ucq|Scq|Gcov)_Threads/(1|8)$"),
    ("bench/bench_snapshot",
     "BM_Snapshot_(Pristine|SealedRuns|UnderWriter)$"),
    ("bench/bench_encoding",
     "BM_Encoding_(Classic|Interval)/(0|1|2)$"),
    ("bench/bench_view_cache",
     "BM_ViewCache_((Cold|Warm)_Ref(Ucq|Gcov)|WarmUnderChurn)$"),
]

# The pinned macro configuration (T16): the sp2b closed-loop mix swept over
# client counts and writer on/off for the two cover-based Ref strategies.
MACRO = {
    "scenario": "sp2b",
    "scale": 0.25,
    "clients": [1, 4, 16],
    "strategies": ["REF-UCQ", "REF-JUCQ"],
    "duration_ms": 300,
    "seed": 1,
}


def git_rev(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None if out.returncode == 0 else None
    except OSError:
        return None


def run_one(binary, bench_filter, min_time):
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    try:
        cmd = [
            binary,
            f"--benchmark_filter={bench_filter}",
            f"--benchmark_out={out_path}",
            "--benchmark_out_format=json",
        ]
        if min_time is not None:
            # This benchmark library version parses a bare double (no
            # "s" suffix).
            cmd.append(f"--benchmark_min_time={min_time}")
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"bench_runner: {binary} failed:\n{proc.stderr}",
                  file=sys.stderr)
            return None
        with open(out_path, encoding="utf-8") as f:
            return json.load(f)
    finally:
        os.unlink(out_path)


def fold(binary, raw):
    rows = []
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        # The binaries declare Unit(kMillisecond); trust but record it.
        unit = b.get("time_unit", "ms")
        scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}.get(unit)
        if scale is None:
            print(f"bench_runner: unknown time unit {unit!r} in "
                  f"{b.get('name')}", file=sys.stderr)
            continue
        rows.append({
            "binary": os.path.basename(binary),
            "name": b["name"],
            "real_time_ms": round(b["real_time"] * scale, 4),
            "cpu_time_ms": round(b["cpu_time"] * scale, 4),
            "iterations": b["iterations"],
        })
    return rows


def run_macro(build_dir, macro):
    """Runs workload_driver over the pinned macro sweep; returns its parsed
    per-configuration results (or None on failure)."""
    binary = os.path.join(build_dir, "tools", "workload_driver")
    if not os.path.exists(binary):
        print(f"bench_runner: missing binary {binary} "
              "(build the workload_driver target first)", file=sys.stderr)
        return None
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    try:
        cmd = [
            binary,
            "--scale", str(macro["scale"]),
            "--seed", str(macro["seed"]),
            "--clients", ",".join(str(c) for c in macro["clients"]),
            "--strategies", ",".join(macro["strategies"]),
            "--duration-ms", str(macro["duration_ms"]),
            "--writer-sweep",
            "--view-cache-sweep",
            "--require-progress",
            "--json", out_path,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"bench_runner: workload_driver failed:\n{proc.stderr}",
                  file=sys.stderr)
            return None
        with open(out_path, encoding="utf-8") as f:
            return json.load(f).get("results", [])
    finally:
        os.unlink(out_path)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory with bench binaries")
    parser.add_argument("--out", default="BENCH_PR10.json",
                        help="output JSON path")
    parser.add_argument("--min-time", default=None,
                        help="per-benchmark min time in seconds "
                             "(default: library default)")
    parser.add_argument("--no-macro", action="store_true",
                        help="skip the sp2b closed-loop macro benchmark")
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    results = []
    for rel, bench_filter in PINNED:
        binary = os.path.join(args.build_dir, rel)
        if not os.path.exists(binary):
            print(f"bench_runner: missing binary {binary} "
                  "(build the bench targets first)", file=sys.stderr)
            return 2
        raw = run_one(binary, bench_filter, args.min_time)
        if raw is None:
            return 1
        rows = fold(binary, raw)
        if not rows:
            print(f"bench_runner: filter {bench_filter!r} matched nothing "
                  f"in {binary}", file=sys.stderr)
            return 1
        results.extend(rows)

    macro_results = None
    if not args.no_macro:
        macro_results = run_macro(args.build_dir, MACRO)
        if macro_results is None:
            return 1

    # Self-describing artifact: the exact pinned scenario measured, plus
    # the host parallelism the concurrency numbers depend on.
    config = {
        "pinned": [list(entry) for entry in PINNED],
        "min_time": args.min_time,
    }
    if macro_results is not None:
        config["macro"] = dict(MACRO, host_threads=os.cpu_count())
    doc = {
        "schema": "rdfref-bench/1",
        "generated_by": "tools/bench_runner.py",
        "git_rev": git_rev(root),
        "config": config,
        "benchmarks": results,
    }
    if macro_results is not None:
        doc["macro"] = macro_results
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    for row in results:
        print(f"{row['binary']:>18} {row['name']:<40} "
              f"{row['real_time_ms']:>10.3f} ms")
    for row in macro_results or []:
        tag = "+writer" if row["writer"] else "       "
        cache = "+cache " if row.get("view_cache") else "       "
        rate = (f"  hit {row['cache_hit_rate']:.2f}"
                if row.get("view_cache") else "")
        print(f"   workload_driver {row['strategy']:<9} x{row['clients']:<3}"
              f"{tag}{cache} {row['qps']:>9.0f} qps"
              f"  p50 {row['p50_ms']:>7.3f} ms"
              f"  p99 {row['p99_ms']:>7.3f} ms{rate}")
    n_macro = len(macro_results or [])
    print(f"bench_runner: wrote {len(results)} micro + {n_macro} macro "
          f"result(s) to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
