#!/usr/bin/env python3
"""Builds and runs the qbarren end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload fig5a-grid --seed 42 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
rebuild incrementally. The last stdout line is the result JSON. Exits
non-zero, without a result, when the build or any check of the run fails.

    python3 perfbench/run.py --record 0,1,2

rewrites perfbench/reference.json with the result signatures of the given
seeds (do this only after a deliberate change to the computed results).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("fig5a-grid", "train-fig5bc", "serve-roundtrip")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found at " + os.path.join(ROOT, "src"))
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "qbarren_perfbench", "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "qbarren_perfbench")


def run_to_end(argv):
    """Runs argv in its own process group and returns (exit code, stdout).

    On timeout the whole group (the binary and its serve workers) is
    killed, and the call waits until every member has exited.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; killing it" % RUN_TIMEOUT_S)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        return -1, ""


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="SEEDS", help="comma-separated seeds to record")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, RuntimeError) as e:
        log(str(e))
        return 2

    if args.record:
        code, _ = run_to_end([binary, "record", "--reference", REFERENCE, "--seeds", args.record])
        return code
    if args.workload is None:
        parser.error("--workload is required")

    code, out = run_to_end([binary, "run", "--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--reference", REFERENCE])
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines:
        sys.stdout.write(out)
        log("benchmark exited with code %d" % code)
        return 1
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        log("metrics differ from BENCHMARK.json: missing %s, unexpected %s"
            % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
