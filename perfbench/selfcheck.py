#!/usr/bin/env python3
"""Self-check of the FUNNEL benchmark.

    python3 perfbench/selfcheck.py [--seconds S]

Runs every workload in a short mode, untraced and traced, and asserts that
  * every end_to_end metric of BENCHMARK.json is printed with its unit
    (untraced), and every per_layer metric likewise (traced);
  * every workload's own named metrics in perfbench/spec.json are printed
    with their units on the detail line;
  * the environment stamp is printed and the run's checks all passed;
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    exits non-zero without printing a result.
Exit code 0 when everything holds, 1 otherwise.
"""
import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = {"nproc", "compiler", "build_type", "funnel_obs", "revision", "seed"}


def run(cwd, workload, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=1200)


def check_metrics(where, printed, expected, problems):
    """`expected`: name -> unit. Every name printed, with its unit, finite."""
    for name, unit in expected.items():
        got = printed.get(name)
        if got is None:
            problems.append(f"{where}: {name} not printed")
        elif got.get("unit") != unit:
            problems.append(f"{where}: {name} unit {got.get('unit')!r}, "
                            f"expected {unit!r}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{where}: {name} value {got.get('value')!r}")


def check_run(workload, trace, proc, bench, spec, problems):
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: "
                        f"{proc.stderr.strip()[-500:]}")
        return
    try:
        lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    except ValueError as e:
        problems.append(f"{where}: stdout is not JSON lines ({e})")
        return
    env = next((l["env"] for l in lines if "env" in l), None)
    if env is None or not ENV_KEYS <= set(env):
        problems.append(f"{where}: environment stamp missing or incomplete")
    result = lines[-1] if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: last line is not a result object")
        return
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        problems.append(f"{where}: checks failed ({result['failed']} of "
                        f"{result['attempted']}): {proc.stderr.strip()[-800:]}")
    listed = bench["per_layer" if trace else "end_to_end"]
    check_metrics(where, result["metrics"],
                  {m["name"]: m["unit"] for m in listed}, problems)
    extra = set(result["metrics"]) - {m["name"] for m in listed}
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    if not trace:
        detail = next((l["detail"] for l in lines if "detail" in l), None)
        if detail is None:
            problems.append(f"{where}: no detail line")
        else:
            check_metrics(where + " detail", detail,
                          {n: d["unit"] for n, d in spec["detail"][workload].items()},
                          problems)


def check_bare(seconds, problems):
    """Only BENCHMARK.json and perfbench/: must fail without a result."""
    bare = ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    proc = run(bare, "assess-week", seconds, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        problems.append("bare directory: exit code 0")
    if any('"correct"' in line for line in proc.stdout.splitlines()):
        problems.append("bare directory: printed a result")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    problems = []
    check_bare(args.seconds, problems)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, args.seconds, trace)
            check_run(workload, trace, proc, bench, spec, problems)
            print(f"checked {workload} --trace {trace}", file=sys.stderr)
    for p in problems:
        print("FAIL:", p)
    print("selfcheck:", "FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
