#!/usr/bin/env python3
"""End-to-end benchmark of the qoc stack.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first call builds the library and the qoc_perfbench binary from the
checkout's sources into .bench_build/ (CMake, Release). Each call then
runs one workload in one process (perfbench/src/main.cpp), checks its
correctness gates and prints one JSON line as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports the per-layer metrics, prints the span tree with self times and
checks that `qoc_stats trace` reads the exported Chrome trace. --smoke
runs every workload for a few steps in both modes and checks the output
schema and every gate.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "qoc_perfbench"
STATS = BUILD / "qoc" / "qoc_stats"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("CMakeLists.txt", "src", "include"):
        if not (ROOT / need).exists():
            print(f"perfbench: {ROOT / need} missing; run from a full source "
                  "checkout", file=sys.stderr)
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
           "qoc_perfbench", "qoc_stats"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_binary(workload, seed, seconds, trace, smoke=False):
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(out_dir)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: qoc_perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload}: qoc_perfbench printed no result (exit {proc.returncode})")
    for g in result["gates"]:
        if not g["ok"]:
            print(f"gate {g['name']} FAILED: {g['detail']}", file=sys.stderr)
    if proc.returncode != 0 or not result["correct"]:
        fail(f"{workload}: correctness gates failed (exit {proc.returncode})")
    print("context " + json.dumps(result["context"], sort_keys=True))
    return result


def attribute(trace_file):
    """Self time per span path and per layer from a Chrome trace.

    A span's self time is its duration minus what its child spans on the
    same thread cover; the layer is the span's category.
    """
    events = json.loads(Path(trace_file).read_text())["traceEvents"]
    by_tid = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            by_tid[e["tid"]].append((float(e["ts"]), float(e["dur"]),
                                     f"{e['cat']}/{e['name']}"))
    paths = defaultdict(lambda: [0, 0.0, 0.0])  # path -> count, total, self
    layer_self = defaultdict(float)
    window_total = window_self = 0.0
    for spans in by_tid.values():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []  # [end, path, duration, self]
        def close(item):
            nonlocal window_total, window_self
            end, path, dur, self_us = item
            paths[path][1] += dur
            paths[path][2] += self_us
            layer_self[path.rsplit(" > ", 1)[-1].split("/")[0]] += self_us
            if path == "bench/window":
                window_total += dur
                window_self += self_us
        for ts, dur, name in spans:
            while stack and stack[-1][0] <= ts + 1e-3:
                close(stack.pop())
            if stack:
                stack[-1][3] -= dur
                path = stack[-1][1] + " > " + name
            else:
                path = name
            paths[path][0] += 1
            stack.append([ts + dur, path, dur, dur])
        while stack:
            close(stack.pop())
    return paths, layer_self, window_total, window_self


def trace_metrics(result):
    trace_file = result.get("trace_file")
    if not trace_file:
        fail("traced run exported no trace")
    stats = subprocess.run([str(STATS), "trace", trace_file],
                           stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    if stats.returncode != 0 or "per-layer latency breakdown" not in stats.stdout:
        fail("qoc_stats could not read the exported trace")
    paths, layer_self, window_total, window_self = attribute(trace_file)
    print("span tree (count, total ms, self ms)")
    for path in sorted(paths):
        count, total, self_us = paths[path]
        depth = path.count(" > ")
        print(f"  {'  ' * depth}{path.rsplit(' > ', 1)[-1]:<30} {count:>8} "
              f"{total / 1e3:>12.3f} {self_us / 1e3:>12.3f}")
    print("self time per layer (ms): " + ", ".join(
        f"{k} {v / 1e3:.3f}" for k, v in sorted(layer_self.items())))
    if window_total <= 0:
        fail("trace holds no bench/window span")
    frac = window_self / window_total
    print(f"trace.unattributed_frac {frac:.6f} of {window_total / 1e3:.3f} ms")
    return {"trace.unattributed_frac": {"value": frac, "unit": "ratio",
                                        "samples": paths["bench/window"][0]}}


def final_metrics(result, trace):
    s = spec()
    wanted = s["per_layer"] if trace else s["end_to_end"]
    got = dict(result["metrics"])
    if trace:
        got.update(trace_metrics(result))
    names = {m["name"] for m in wanted}
    unknown = set(got) - names
    if unknown:
        fail(f"qoc_perfbench reported metrics not in BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for m in wanted:
        name = m["name"]
        if name not in got:
            if not trace:
                fail(f"end-to-end metric {name} missing")
            got[name] = {"value": 0.0, "unit": m["unit"], "samples": 0}
            print(f"{name}: layer not exercised by this workload, reported 0")
        v = got[name]
        if v["unit"] != m["unit"]:
            fail(f"{name}: unit {v['unit']} != {m['unit']}")
        value = v["value"]
        if value is None or not math.isfinite(value):
            fail(f"{name}: not a finite number")
        if not trace and (value <= 0 or v["samples"] < 1):
            fail(f"{name}: end-to-end metric must be measured and positive")
        out[name] = {"value": value, "unit": m["unit"]}
    print("metrics (name value unit samples)")
    for name in out:
        print(f"  {name:<36} {out[name]['value']:>16.6g} "
              f"{out[name]['unit']:<6} {got[name]['samples']}")
    return out


def smoke():
    ok = True
    for w in spec()["workloads"]:
        for trace in (False, True):
            result = run_binary(w["name"], 1, 1, trace, smoke=True)
            metrics = final_metrics(result, trace)
            line = {"correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"], "metrics": metrics}
            good = (line["correct"] and line["attempted"] >= 1
                    and line["failed"] == 0)
            ok &= good
            print(f"smoke {w['name']} trace={int(trace)}: "
                  f"{'ok' if good else 'FAIL'} ({len(metrics)} metrics)")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    build()
    if a.smoke:
        return smoke()
    names = [w["name"] for w in spec()["workloads"]]
    if a.workload not in names:
        fail(f"unknown workload {a.workload!r}; choose from {names}")
    result = run_binary(a.workload, a.seed, a.seconds, bool(a.trace))
    metrics = final_metrics(result, bool(a.trace))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
