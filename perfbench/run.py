#!/usr/bin/env python3
"""Build and run the dlvp host-performance benchmark.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds
the simulator libraries, the dlvp_serve daemon and the perfbench binary
into .bench_build/ (Release); later runs only re-check the build. Each
run works in a fresh scratch directory under .bench_build/ that is
removed afterwards. The binary's stdout ends with one provenance line and the
result line, which this script passes through unchanged.

--selftest builds and runs the tests of the benchmark's own math.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TMP = os.path.join(BUILD, "tmp")
WORKLOADS = ("grid", "mega-sampled", "serve-mixed")
# Per-run wall-clock cap, below the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then build targets; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources (src/) not found next to perfbench/")
        return False
    # Keep the compiler's temporary files inside the checkout too.
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        cmd = ["cmake", "--build", BUILD, "-j", "4", "--target"] + targets
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_child(cmd, cwd):
    """Run cmd in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out; stopping it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 1, ""
    finally:
        # The daemon dies with perfbench; reap anything left anyway.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def selftest():
    if not build(["perfbench_math_test"]):
        return 1
    test = os.path.join(BUILD, "perfbench_math_test")
    if not os.path.isfile(test):
        log("GTest not found; perfbench_math_test was not built")
        return 1
    return subprocess.run([test]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build(["perfbench", "dlvp_serve"]):
        log("build failed")
        return 1
    work = os.path.join(BUILD, "work", "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--serve-bin", os.path.join(BUILD, "dlvp_serve")]
    try:
        code, out = run_child(cmd, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        log("benchmark exited with code %d" % code)
        return code or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
