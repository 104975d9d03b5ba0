#!/usr/bin/env python3
"""Builds the engine benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The benchmark binary is built into .bench_build/ (configured once, then
incrementally) from perfbench/CMakeLists.txt, which compiles the engine
libraries under src/. The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}, its
metrics named, ordered and unit-checked by BENCHMARK.json.
Earlier lines carry the run context and per-sample diagnostics. Traced runs
also write their spans as Chrome trace JSON under .bench_build/traces/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("serve_hot", "serve_churn", "batch_analytics")
# A run must end within 180 s; the binary itself needs --seconds plus
# set-up, audits and the reference phase.
BINARY_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    BUILD_DIR.mkdir(exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    with open(build_log, "a") as out:
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                shutil.rmtree(BUILD_DIR / "CMakeFiles", ignore_errors=True)
                (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
                return None
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", str(BUILD_DIR), "--target", target,
               "-j", jobs]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            return None
    return BUILD_DIR / target


def git_hash():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12",
                        "HEAD"], capture_output=True, text=True)
    h = r.stdout.strip()
    return h if r.returncode == 0 and h.isalnum() else "unknown"


def source_digest():
    """Digest of the engine and benchmark sources: identifies the code in
    a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def complete_result(result, trace):
    """Puts the binary's metrics in BENCHMARK.json's order and checks them.

    BENCHMARK.json is the one list of metric names and units. A per-layer
    metric of a layer the workload does not use reads 0; a missing
    end-to-end metric, an unknown name or a wrong unit makes the run
    incorrect. Returns False when the result is not correct.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    got = result["metrics"]
    ok = True
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        value = got.pop(name, None)
        if value is None:
            if not trace:
                log(f"metric {name} was not measured")
                ok = False
            value = {"value": 0.0, "unit": unit}
        elif value.get("unit") != unit:
            log(f"metric {name} has unit {value.get('unit')}, not {unit}")
            ok = False
        metrics[name] = {"value": value["value"], "unit": unit}
    if got:
        log(f"metrics not in BENCHMARK.json: {sorted(got)}")
        ok = False
    result["metrics"] = metrics
    return ok


def self_test():
    binary = build("perfbench_tests")
    if binary is None:
        log(f"test build failed; see {BUILD_DIR / 'build.log'}")
        return 3
    return subprocess.run([str(binary)]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the tests of the benchmark's own "
                    "arithmetic")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"engine sources not found under {ROOT / 'src'}; run from a "
            "full checkout of the repository")
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        log(f"{ROOT / 'BENCHMARK.json'} not found")
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in (0, 120]")

    binary = build("perfbench")
    if binary is None:
        log(f"build failed; see {BUILD_DIR / 'build.log'}")
        return 3

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--trace", str(args.trace),
           "--git-hash", git_hash(), "--source-digest", source_digest()]
    if args.trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    # The engine reads MDE_* switches (SIMD tier, profiler, diagnostics
    # port); the benchmark runs with none of them set.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MDE_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {BINARY_TIMEOUT_S} s")
        return 4
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with code {proc.returncode}")
        return 5
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("benchmark printed no result line")
        return 5
    if not complete_result(result, args.trace == 1):
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
