#!/usr/bin/env python3
"""Two-clock benchmark of pCLOUDS training and compiled-tree serving.

    python3 perfbench/run.py --workload train-clean|train-noisy|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run builds the library from
../src and the benchmark program in perfbench/ (CMake, Release) under
.bench_build/; later runs reuse that build.  The program writes its scratch
disks under .bench_build/ too and removes them when it ends.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (plus the tracing overhead); the last line of standard output
is one JSON object {correct, attempted, failed, metrics}.  For the default
seed the deterministic outputs of each training workload (modeled time, tree
digest, I/O and divide-and-conquer counts) must equal perfbench/pins.json.
A mismatch logs the pinned value and the run's value of each key; after an
intentional model change, edit pins.json by hand from that log.
perfbench/metrics.json says why each workload and metric is there and which
end-to-end metric each per-layer metric should move.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DEFAULT_SEED = 1
WORKLOADS = ("train-clean", "train-noisy", "serve")
# Modules whose per-layer metrics a workload does not exercise; the traced
# run reports them as 0.
IDLE_MODULES = {
    "train-clean": {"serve"},
    "train-noisy": {"serve"},
    "serve": {"data", "io", "mp", "model", "clouds", "pclouds", "dc"},
}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the program; returns its path or None."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            return None
    return BUILD_DIR / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_pins(workload, seed, pins):
    """Compares the run's deterministic outputs with pins.json."""
    want = json.loads((BENCH_DIR / "pins.json").read_text()).get(workload)
    if seed != DEFAULT_SEED or not want:
        return True
    ok = True
    for key, value in want.items():
        if key != "seed" and pins.get(key) != value:
            log(f"perfbench: pinned {key} of {workload} is {value!r}, "
                f"this run gives {pins.get(key)!r}")
            ok = False
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1

    work = ROOT / ".bench_build" / f"work-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: the benchmark program did not finish in time")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: the benchmark program exited with {proc.returncode}")
        return 1
    doc = json.loads(lines[-1])

    want = expected_metrics(args.trace)
    if args.trace:
        for name, unit in want.items():
            if name.split(".")[0] in IDLE_MODULES[args.workload]:
                doc["metrics"].setdefault(name, {"value": 0, "unit": unit})
    got = {k: v["unit"] for k, v in doc["metrics"].items()}
    if got != want:
        units = sorted(k for k in want if k in got and got[k] != want[k])
        log(f"perfbench: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, unit mismatches {units}")
        return 1

    correct, attempted, failed = doc["correct"], doc["attempted"], doc["failed"]
    pins = doc["notes"].pop("pins", None)
    if pins is not None:
        attempted += 1
        if not check_pins(args.workload, args.seed, pins):
            correct, failed = False, failed + 1

    for key, value in doc["notes"].items():
        print(f"{key:<28} {json.dumps(value)}")
    print(f"{'fail_ratio':<28} {failed / attempted:.6f} "
          f"({failed} of {attempted} operations)")
    for name, m in doc["metrics"].items():
        print(f"{name:<28} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": doc["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
