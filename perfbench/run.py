#!/usr/bin/env python3
"""Repository benchmark for the PARROT simulator.

Builds the simulator sources and the benchmark program simbench
(perfbench/CMakeLists.txt, into .bench_build/perfbench, or under
$CARGO_TARGET_DIR when set), runs one workload for a fixed host-time window and prints one
JSON result object as the last line of standard output:

    python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0

Workloads (see simbench.cc for the cells):
  grid     all seven models x all 44 apps at 20K instructions each
  hot      TON on six high-coverage loop apps, four programs each, 200K
           instructions per cell
  branchy  TON on six control-heavy low-coverage apps, four programs each,
           200K instructions per cell

simbench runs up to four worker threads, each simulating whole passes
over the workload's cells until the window ends, and keeps each cell's
fastest execution, discounting executions slowed by other tenants of
the host.

--trace 0 reports the end-to-end host metrics: simulated throughput
(mips), per-cell latency percentiles over the cells (cell_ms_p50,
cell_ms_p90), peak resident memory (peak_rss_mib) and the median of at
least five set-ups spread over the window (setup_s: program generation
plus Pmax calibration). --trace 1 runs the same cells and also replays
each cell's instruction stream through every simulator layer alone,
timing each replay with spans kept in memory and written to
.bench_build/perfbench/spans/ as JSON lines; it reports each layer's
host nanoseconds per instruction plus the simulated ratios those layers
produce.

Every run checks its outputs: each cell's accounting invariants, each
cell reproducing its first result exactly, a clean co-simulation of the
first cell, and one cell of the committed parrot_bench_cache.txt
re-simulated bit-for-bit. Exits non-zero without a result line when the
sources are missing or the build or simbench fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid", "hot", "branchy")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    """Configure and incrementally build simbench; its build dir and path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"simulator sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if not run_logged(configure):
        # A build tree configured from another checkout path: start over.
        shutil.rmtree(build_dir, ignore_errors=True)
        if not run_logged(configure):
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", build_dir, "-j", jobs]):
        fail("build failed")
    return build_dir, os.path.join(build_dir, "simbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    reference = os.path.join(ROOT, "parrot_bench_cache.txt")
    if not os.path.isfile(reference):
        fail(f"reference results not found at {reference}")
    build_dir, program = build()

    cmd = [
        program,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--reference", reference,
    ]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"simbench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"simbench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("simbench printed a malformed result")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
