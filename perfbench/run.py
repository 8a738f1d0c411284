#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sim_ring, live_closed, live_paced, live_tcp (see BENCHMARK.json
and perfbench/README.md). The benchmark binary is built from the checkout's
sources into .bench_build/ on first use; build output goes to stderr so the
last line of stdout stays the result JSON. Traced runs write their spans to
.bench_out/.

--planted-bug builds and runs a separate binary with GAM_PLANTED_BUG=ON, in
which a log replica misreports one delivery; the live workloads must then
report a failure and exit 1.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("sim_ring", "live_closed", "live_paced", "live_tcp")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, planted):
    bench_dir = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, ".bench_build",
                             "perfbench-planted" if planted else "perfbench")
    configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                 "-DGAM_PLANTED_BUG=" + ("ON" if planted else "OFF")]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "gam_perfbench")


def git_rev(root):
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--planted-bug", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src")) or not os.path.isfile(
            os.path.join(root, "perfbench", "CMakeLists.txt")):
        fail("run from the root of a checkout: src/ and perfbench/ are needed")

    binary = build(root, args.planted_bug)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-rev", git_rev(root),
           "--out-dir", os.path.join(root, ".bench_out")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
