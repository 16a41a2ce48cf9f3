#!/usr/bin/env python3
"""Run one workload of the FUNNEL end-to-end benchmark.

    python3 perfbench/run.py --workload assess-week|serve-week|ingest-flood \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the shipped library and
funnel_serve from ../src and ../tools, plus funnel_perfbench) into
$CARGO_TARGET_DIR or .bench_build/, then runs the workload. The last line
of stdout is the result object {"correct", "attempted", "failed",
"metrics"}; earlier lines carry the environment stamp and, for untraced
runs, the workload's own named end-to-end metrics.

Set FUNNEL_OBS=OFF to build with the telemetry compiled out: every workload
then refuses to report numbers (the daemon workloads cannot run without the
HTTP server). Sanitizer builds are refused too.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("assess-week", "serve-week", "ingest-flood")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_revision(root):
    """The git revision when there is one, else a digest of the sources."""
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def build(root, build_dir, obs, env):
    """Configure once, then build the two targets (a no-op when current)."""
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release", f"-DFUNNEL_OBS={obs}"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", str(build_dir), "--target",
                        "funnel_perfbench", "funnel_serve", "-j", jobs],
                       check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail(2, "--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    for needed in ("src/CMakeLists.txt", "tools/funnel_serve.cpp"):
        if not (root / needed).is_file():
            fail(2, f"{needed} not found: run from a full FUNNEL checkout")
    if os.environ.get("FUNNEL_SANITIZE") or any(
            "-fsanitize" in os.environ.get(v, "")
            for v in ("CXXFLAGS", "LDFLAGS", "CMAKE_CXX_FLAGS")):
        fail(3, "refused: sanitizer builds never report numbers")
    obs = "OFF" if os.environ.get("FUNNEL_OBS", "ON").upper() == "OFF" else "ON"

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / ("perfbench" if obs == "ON" else "perfbench-obs-off")
    # Everything the build and the run write stays inside the checkout.
    tmp_dir = build_dir / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        build(root, build_dir, obs, dict(os.environ, TMPDIR=str(tmp_dir)))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(4, f"build failed: {e}")

    work_dir = build_dir / f"work-{os.getpid()}"
    spans_dir = build_dir / "spans"
    spans_dir.mkdir(exist_ok=True)
    cmd = [str(build_dir / "funnel_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--serve-bin", str(build_dir / "funnel_serve"),
           "--work-dir", str(work_dir),
           "--spans", str(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    env = dict(os.environ, PERFBENCH_REVISION=source_revision(root),
               TMPDIR=str(tmp_dir))
    # A process group of its own, so a timeout takes the daemons with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        timed_out = False
    except subprocess.TimeoutExpired:
        timed_out = True
    # Backstop: nothing of the run's process group survives it.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    shutil.rmtree(work_dir, ignore_errors=True)
    if timed_out:
        fail(5, f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0:
        for line in lines:
            print(line, file=sys.stderr)
        fail(proc.returncode, f"{args.workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(6, "funnel_perfbench printed no result line")
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
