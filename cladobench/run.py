#!/usr/bin/env python3
"""CLADO benchmark launcher.

    python3 cladobench/run.py --workload pipeline --seed 1 --seconds 15 --trace 0

Run from the repository root. The launcher
  1. builds the library and the benchmark from source into .bench_build/
     (or $CARGO_TARGET_DIR when set), Release, with CMake;
  2. once per build, runs the one-time prepare step (trains resnet_a into
     the build's own artifacts dir and caches the reference outputs the
     workloads check against), so no timed run ever trains;
  3. runs the workload with a pinned environment: every CLADO_* variable
     of the caller is dropped and the process-wide GEMM pool is fixed at
     one thread, so the thread budget of each workload is set by the
     benchmark alone.
The benchmark's last stdout line is its JSON result; build and prepare
output goes to stderr. Exits non-zero when the build, the prepare step,
the run or any correctness check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline", "solve", "serve_fq", "serve_mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600
PREPARE_TIMEOUT_S = 600


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def pinned_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("CLADO_")}
    env["CLADO_NUM_THREADS"] = "1"
    return env


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); returns its exit code."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"cladobench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"cladobench: no CLADO sources under {ROOT}/src", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_checked(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S,
                       stdout=sys.stderr) == 0


def ensure_prepared(binary, state):
    """Prepares once per binary: a rebuilt binary re-derives the references."""
    st = os.stat(binary)
    signature = f"{st.st_size} {st.st_mtime_ns}\n"
    stamp = os.path.join(state, "prepared")
    if os.path.isfile(stamp) and open(stamp).read() == signature:
        return True
    os.makedirs(state, exist_ok=True)
    code = run_checked([binary, "--prepare", "--state-dir", state], PREPARE_TIMEOUT_S,
                       stdout=sys.stderr, env=pinned_env())
    if code != 0:
        return False
    with open(stamp, "w") as f:
        f.write(signature)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    if not build(out):
        return 1
    binary = os.path.join(out, "cladobench")
    state = os.path.join(out, "state")
    if not ensure_prepared(binary, state):
        return 1
    sys.stdout.flush()
    return run_checked([binary, "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", repr(args.seconds), "--trace", args.trace,
                        "--state-dir", state], RUN_TIMEOUT_S, env=pinned_env())


if __name__ == "__main__":
    sys.exit(main())
