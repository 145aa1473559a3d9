#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `otsched serve` and faulted sweeps.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_fifo --seed 1 --seconds 10 --trace 0

The first run builds the otsched libraries, the CLI and the benchmark
driver from source (Release) under .bench_build/perfbench; later runs
reuse that build.  Each run records its machine and build context, runs
one workload for --seconds through perfbench_driver, checks every output
and prints every metric by name with its unit.  The last stdout line is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  The driver reports every one of
them by name; a layer a workload does not run reads 0 and is printed as
not applicable, with the reason.

Exit status: 0 when every output check passed; 1 when a check failed
(the result line still prints, with "correct": false); 2 when the
benchmark cannot run (no sources next to it, a Debug or sanitizer
build, a build failure); 3 when the run broke a validity limit (the
generator, not the program, was the bound) — reported as invalid, with
no result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "perfbench-run")
RESULTS = os.path.join(ROOT, ".bench_build", "perfbench-results")
WORKLOADS = ("serve_fifo", "serve_alg_a", "sweep_job_faults")
HELD_OUT_SEED = 104729  # reserved for confirming claims; never used to tune
DRIVER_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cmake_cache():
    values = {}
    path = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(path):
        return values
    with open(path, encoding="utf-8") as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


def build():
    """Configures (once) and builds; build output goes to a log file."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "a", encoding="utf-8") as log:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure + generator, stdout=log, stderr=log, env=env).returncode:
                fail(f"cmake configure failed; see {log_path}")
        step = ["cmake", "--build", BUILD, "-j", str(nproc())]
        if subprocess.run(step, stdout=log, stderr=log, env=env).returncode:
            fail(f"build failed; see {log_path}")
    cache = cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(v for k, v in cache.items() if "FLAGS" in k)
    if build_type not in ("Release", "RelWithDebInfo"):
        fail(f"refusing to measure a '{build_type or 'unset'}' build; need Release")
    if "-fsanitize" in flags:
        fail("refusing to measure a sanitizer build")
    return cache


def mount_fstype(path):
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as f:
        for line in f:
            fields = line.split()
            mount = fields[1]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, fstype = mount, fields[2]
    return fstype


def cpu_model():
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def context(cache, args, workdir):
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu_model(),
        "nproc": nproc(),
        "kernel": os.uname().release,
        "journal_fs": mount_fstype(workdir),
        "compiler": version.stdout.splitlines()[0] if version.stdout else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "loadavg_before": os.getloadavg(),
    }


def benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/otsched_cli.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no otsched sources next to the benchmark ({needed} missing)")
    spec = benchmark_spec()
    cache = build()
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              capture_output=True, text=True)
    if selftest.returncode:
        fail("benchmark selftest failed:\n" + selftest.stderr)

    workdir = os.path.join(RUNS, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ctx = context(cache, args, workdir)
    print("context " + json.dumps(ctx), flush=True)

    command = [os.path.join(BUILD, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--otsched", os.path.join(BUILD, "otsched"),
               "--workdir", workdir]
    started = time.monotonic()
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark driver timed out", 1)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark driver failed (exit {run.returncode}): {lines[-1] if lines else ''}", 1)
    report = json.loads(lines[-1])

    os.makedirs(RESULTS, exist_ok=True)
    record = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as f:
        json.dump({"context": ctx, "report": report,
                   "wall_s": time.monotonic() - started}, f, indent=1)

    if report["invalid"]:
        for reason in report["invalid"]:
            print(f"invalid run: {reason}")
        sys.exit(3)

    attempted = max(int(report["attempted"]), 1)
    failed = int(report["failed"])
    measured = dict(report["metrics"])
    measured["success_ratio"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in measured:
            fail(f"the driver reported no {name}", 1)
        value = measured[name]
        why = value.get("not_applicable")
        if not why and value["unit"] != metric["unit"]:
            fail(f"the driver reported {name} in {value['unit']}, not {metric['unit']}", 1)
        metrics[name] = {"value": value["value"], "unit": metric["unit"]}
        samples = f" (n={value['samples']})" if "samples" in value else ""
        note = f" (not applicable: {why})" if why else ""
        print(f"{args.workload} {name} = {value['value']:.6g} {metric['unit']}{samples}{note}")
    print(f"{args.workload} failure_ratio = {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} operations)")
    for key, value in report["notes"].items():
        print(f"{args.workload} {key}: {value}")
    for failure in report["failures"]:
        print(f"check failed: {failure}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
