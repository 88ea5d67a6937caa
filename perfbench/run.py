#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the perfbench binary (Release) under .bench_build/, or under
$CARGO_TARGET_DIR when that is set; later runs only check the build.

Workloads (see README.md): sample_zipf, live_map, train_lkp.

Standard output carries the binary's human-readable lines, one
`provenance:` line (commit or source-tree hash, nproc, build type,
compiler, seed, workload parameters) and, last, one JSON object with
exactly the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1
its per-layer metrics. The exit code is 0 on success, 1 when a
correctness check failed (the JSON line is still printed), and another
non-zero code, with no JSON line, when the build or the run fails.
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
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880
# On a shared VM the hypervisor can take a large share of the CPU for
# seconds at a time (steal), which moves every timing. When the binary
# reports more steal than this during its timed phase, the run is
# repeated, up to MAX_ATTEMPTS runs and while RETRY_WINDOW_S allows, and
# the attempt with the least steal is reported. Every attempt's steal
# share goes into the provenance line.
MAX_STEAL_SHARE = 0.02
MAX_ATTEMPTS = 2
RETRY_WINDOW_S = 35


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("perfbench: build timed out: " + " ".join(cmd))
            return False
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def source_identity():
    """The git commit when there is one, else a hash of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-sha256:" + digest.hexdigest()


def cmake_cache_value(out_dir, key):
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def run_binary(cmd, timeout_s):
    """One binary run: (process, output lines, parsed result) or None."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout)
        log("perfbench: binary exited with code %d" % proc.returncode)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        log("perfbench: binary printed no result")
        return None
    return proc, lines, result


def steal_share(attempt):
    return attempt[2].get("info", {}).get("host_steal_share", 0.0)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        return 2
    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    start = time.monotonic()
    attempts = []
    while True:
        attempt = run_binary(cmd, RUN_TIMEOUT_S - (time.monotonic() - start))
        if attempt is None:
            return 3
        attempts.append(attempt)
        if (attempt[0].returncode != 0 or
                steal_share(attempt) <= MAX_STEAL_SHARE or
                len(attempts) >= MAX_ATTEMPTS or
                time.monotonic() - start > RETRY_WINDOW_S):
            break
    failed = [a for a in attempts if a[0].returncode != 0]
    proc, lines, result = (failed[0] if failed else
                           min(attempts, key=steal_share))

    want = expected_metrics(args.trace)
    metrics = result["metrics"]
    if args.trace:
        # A layer the workload never reaches reads 0.
        for name, unit in want.items():
            metrics.setdefault(name, {"value": 0, "unit": unit})
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        log("perfbench: metrics differ from BENCHMARK.json: missing %s, "
            "extra %s, unit changes %s" % (
                sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                sorted(k for k in set(got) & set(want) if got[k] != want[k])))
        return 3

    for line in lines[:-1]:
        print(line)
    provenance = dict(result.get("info", {}))
    provenance.update({
        "attempt_steal_shares": [steal_share(a) for a in attempts],
        "succeeded": int(result["attempted"]) - int(result["failed"]),
        "source": source_identity(),
        "build_type": cmake_cache_value(out_dir, "CMAKE_BUILD_TYPE"),
        "compiler": cmake_cache_value(out_dir, "CMAKE_CXX_COMPILER"),
    })
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
