#!/usr/bin/env python3
"""Build and run the SPD3 benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (libspd3 included) as RelWithDebInfo into the directory
named by CARGO_TARGET_DIR, default .bench_build, then runs the benchmark
binary. The human-readable report goes to stdout, followed by a `stamp:`
line (host, build and source identity) and, last, one JSON object with the
keys correct, attempted, failed and metrics. The metric names and units are
checked against BENCHMARK.json before the result is printed; any failure to
build, run or validate exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("matmul-ranges", "strassen-scalar", "crypt-auto", "serve")
# Sources whose content defines the measured program, hashed into the stamp
# because a benchmark checkout need not be a git repository.
SOURCE_DIRS = ("src", "examples/autoinst", "tools/spd3-instrument", "perfbench")
# Headroom over --seconds for the verdict phase, set-up and teardown.
RUN_SLACK_S = 150


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configure (once) and build the benchmark; build logs go to stderr."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(bdir), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return bdir / "perfbench"


def source_sha256():
    h = hashlib.sha256()
    for top in SOURCE_DIRS:
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    # Only the checkout's own repository: git would otherwise search the
    # directories above it.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def validate(result, spec, trace):
    """Return a list of problems with a benchmark result line."""
    problems = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            problems.append(f"result lacks {key}")
    if problems:
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    want_units = {m["name"]: m["unit"] for m in want}
    got = result["metrics"]
    for name in sorted(set(want_units) - set(got)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(got) - set(want_units)):
        problems.append(f"metric {name} not in BENCHMARK.json")
    for name, unit in want_units.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"metric {name} has unit {m.get('unit')}, "
                            f"BENCHMARK.json says {unit}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must not be negative")
    if not 0 < args.seconds <= 3600:
        fail("--seconds must be in (0, 3600]")

    spec = load_spec()
    bdir = build_dir()
    binary = build(bdir)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        cmd += ["--spans",
                str(bdir / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no result line")
    problems = validate(result, spec, args.trace)
    if problems:
        fail("invalid result: " + "; ".join(problems))

    stamp = result.get("stamp", {})
    stamp["git_commit"] = git_commit()
    stamp["source_sha256"] = source_sha256()
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    out = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
