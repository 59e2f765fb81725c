#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload census-n24 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The first run configures and builds
the library, the tcad daemon and the tca_perfbench load generator in
.bench_build/ (Release); later runs reuse that build. Scratch files go to
.bench_out/ and are removed when the run ends. The last line of standard
output is the result object; everything before it is the detail line.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
WORKLOADS = ("census-n24", "census-disk-n28", "tcad-cold", "tcad-hot")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; nothing to measure")
        return False
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(BUILD), "--target", "tca_perfbench",
           "tcad", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_state():
    """(sha, dirty) of the checkout, or ("unknown", "unknown")."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain"],
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"
    return sha.stdout.strip(), "true" if status.stdout.strip() else "false"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 1
    bench = BUILD / "tca_perfbench"
    tcad = BUILD / "tca" / "src" / "service" / "tcad"
    if subprocess.run([str(bench), "--selftest"]).returncode != 0:
        log("statistics self-test failed")
        return 1

    sha, dirty = git_state()
    env = dict(os.environ, PERFBENCH_GIT_SHA=sha, PERFBENCH_GIT_DIRTY=dirty)
    OUT.mkdir(exist_ok=True)
    # Relative paths keep the daemon's socket path short.
    cmd = [str(bench), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tcad", os.path.relpath(tcad, ROOT),
           "--work-dir", os.path.relpath(OUT / "work", ROOT)]
    # Its own process group, so a run that hangs is stopped together with
    # the daemon it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(OUT / "work", ignore_errors=True)
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"tca_perfbench exited with {proc.returncode}")
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
