#!/usr/bin/env python3
"""The serving benchmark: one run of one workload.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the library, `rnnhm_cli` and
the benchmark program from source (CMake, Release) into the directory named
by $CARGO_TARGET_DIR (default .bench_build), then runs that program in a
private run directory under .bench_run/ that holds the run's Unix sockets
and server logs. The last line of standard output is the JSON result.

Every process the run starts is stopped and reaped before this script
exits: the program runs in its own session, this script adopts orphans as a
child subreaper, and on any exit path it kills the session and waits for
every child to end.
"""

import argparse
import ctypes
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("explore_cold", "dashboard_hot", "wall_tiled")
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the benchmark program and the CLI; raises on
    failure."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator,
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", "4",
             "--target", "servebench", "rnnhm_cli"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)


def revision():
    """Git revision when the checkout is a repository, plus a digest of
    the sources the benchmark builds, so every result names its code."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "servebench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return "git:%s,src-sha256:%s" % (rev, digest.hexdigest()[:16])


def reap_everything(session):
    """Kills the benchmark's session and waits until no child is left."""
    try:
        os.killpg(session, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, build_root)),
                             "servebench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    run_root = os.path.join(ROOT, ".bench_run")
    run_dir = os.path.join(run_root, "%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
    os.makedirs(run_dir)
    # Spans of the traced run and per-request round trips, overwritten by
    # the next run of the same workload and seed.
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    trace_out = os.path.join(run_root, "spans-%s.jsonl" % stem)
    requests_out = os.path.join(run_root, "requests-%s.csv" % stem)
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    cmd = [os.path.join(build_dir, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(build_dir, "rnnhm", "tools", "rnnhm_cli"),
           "--trace-out", trace_out, "--requests-out", requests_out,
           "--revision", revision()]
    # SIGTERM (as from a supervisor's timeout) unwinds through the
    # finally below, so the session is killed and reaped here too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=run_dir, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; killed" % RUN_TIMEOUT_S)
        code = 124
    finally:
        reap_everything(proc.pid)
    if code == 0:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        log("run directory kept for its server logs: %s" % run_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
