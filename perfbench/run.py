#!/usr/bin/env python3
"""Build and run the ProSE host benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-golden

The script configures and builds perfbench/ (a CMake project that compiles
the library from src/) under $CARGO_TARGET_DIR/perfbench, defaulting to
.bench_build/perfbench, then runs the benchmark binary. Build output goes to
standard error, so the last line of standard output is the binary's result
object: {"correct", "attempted", "failed", "metrics"}. Run records and
Chrome trace files land in <build root>/perfbench-out.

setup_s is the median of several cold set-ups: an untraced run first starts
the binary with --setup-only, each time a fresh process that sets up once
and stops, and hands their times to the measuring process, whose own set-up
is the last. It starts at least two such processes, and more (up to eight)
while they have taken under five seconds in all, so cheap set-ups, whose
times scatter most, get the most samples.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("embed_variants", "dse_sweep", "fleet_chaos", "fsim_faults")
EXTRA_COLD_SETUPS_MIN = 2
EXTRA_COLD_SETUPS_MAX = 8
EXTRA_COLD_SETUP_BUDGET_S = 5.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def build(build_dir):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def source_digest():
    """sha256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    files = [p for d in (ROOT / "src", HERE) for p in d.rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit_id():
    """HEAD of a git checkout at the root, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def check_metric_names(binary):
    """The binary must print exactly the metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = subprocess.run([str(binary), "--list-metrics"], cwd=ROOT,
                            capture_output=True, text=True, check=True)
    got = {"end_to_end": [], "per_layer": []}
    for line in listed.stdout.splitlines():
        kind, name, unit = line.split()
        got[kind].append((name, unit))
    for kind in got:
        want = [(m["name"], m["unit"]) for m in spec[kind]]
        if want != got[kind]:
            fail(f"BENCHMARK.json {kind} metrics differ from the binary's")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own self-tests")
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute perfbench/golden/digests.txt")
    args = parser.parse_args()

    run = not (args.selftest or args.write_golden)
    if run and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if run and (args.seed < 0 or args.seconds <= 0):
        parser.error("--seed must be >= 0 and --seconds > 0")

    out_root = build_root()
    build_dir = out_root / "perfbench"
    build(build_dir)
    binary = build_dir / "perfbench"

    if args.selftest:
        return subprocess.run([str(build_dir / "perfbench_selftest")],
                              cwd=ROOT).returncode
    golden = HERE / "golden" / "digests.txt"
    if args.write_golden:
        return subprocess.run([str(binary), "--write-golden", str(golden)],
                              cwd=ROOT).returncode

    check_metric_names(binary)
    out_dir = out_root / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--golden", str(golden),
           "--out-dir", str(out_dir), "--commit", commit_id(),
           "--source-digest", source_digest()]
    if args.trace == "0":
        cold = []
        started = time.monotonic()
        while len(cold) < EXTRA_COLD_SETUPS_MIN or (
                len(cold) < EXTRA_COLD_SETUPS_MAX and
                time.monotonic() - started < EXTRA_COLD_SETUP_BUDGET_S):
            done = subprocess.run(cmd + ["--setup-only"], cwd=ROOT,
                                  capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                fail("a --setup-only run failed")
            cold.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
        cmd += ["--prior-setup-s", ",".join(repr(s) for s in cold)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
