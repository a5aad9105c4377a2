#!/usr/bin/env python3
"""nAdroid benchmark entry point.

    python3 perfbench/run.py --workload corpus-seq --seed 1 --seconds 25 --trace 0

Run from the root of a nadroid source tree. The benchmark's OCaml code,
perfbench/_nbench, is a dune directory of its own that the repo's own
`dune build` skips (dune ignores directories whose names start with
"_"). This script stages it beside a copy of the program's sources
(dune-project, lib/, bin/) in .bench_build/src, builds bin/nadroid.exe
and nbench/nbench.exe there, runs one workload (corpus-seq, fleet-par,
serve-cached or batch-supervised; "all" runs the four in turn) for
--seconds seconds with inputs made from --seed, and prints a table, a
machine-descriptor line and, as the last line, the JSON result:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones
(see BENCHMARK.json). Every run works in its own directory under
.bench_build/ and removes it; the run fails if it left any other file
of the tree added, removed or modified. Exit codes: 0 all verdicts
correct, 1 a wrong verdict, 2 no result (bad arguments, build failure,
missing sources).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["corpus-seq", "fleet-par", "serve-cached", "batch-supervised"]
BUILD_DIR = ".bench_build"
SOURCES = ["dune-project", "lib", "bin", "perfbench"]
STAGE = os.path.join(BUILD_DIR, "src")
# what STAGE holds: the program's sources, and the benchmark's under "nbench"
STAGED = {"dune-project": "dune-project", "lib": "lib", "bin": "bin",
          os.path.join("perfbench", "_nbench"): "nbench"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def snapshot(root):
    """(path, size, mtime) of every file outside the build directories."""
    skip = {BUILD_DIR, "_build", ".git"}
    files = set()
    for d, dirs, names in os.walk(root):
        if d == root:
            dirs[:] = [x for x in dirs if x not in skip]
        for n in names:
            p = os.path.join(d, n)
            st = os.lstat(p)
            files.add((os.path.relpath(p, root), st.st_size, st.st_mtime_ns))
    return files


def revision(root):
    """The git revision when there is one, and a digest of the sources."""
    h = hashlib.sha1()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(top) for n in ns)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    try:
        git = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git = ""
    return f"{git or 'nogit'}+src:{h.hexdigest()[:12]}"


def stage():
    """Copy the sources into STAGE afresh; its _build stays, so dune
    rebuilds only what changed."""
    os.makedirs(STAGE, exist_ok=True)
    for src, dst in STAGED.items():
        dst = os.path.join(STAGE, dst)
        if os.path.isdir(src):
            shutil.rmtree(dst, ignore_errors=True)
            shutil.copytree(src, dst)
        else:
            shutil.copy2(src, dst)


def stop_group(pgid):
    """Kill what is left of a process group and wait until it is gone."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_one(cmd, timeout):
    """Run nbench once; its output lines and parsed result (None if none)."""
    # its own process group, so that no process it started outlives it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        stop_group(proc.pid)
        print(f"perfbench: run took longer than {timeout} s", file=sys.stderr)
        return [], None, 2
    stop_group(proc.pid)
    lines = out.splitlines()
    try:
        return lines[:-1], json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        return lines, None, proc.returncode


def main():
    ap = argparse.ArgumentParser(description="nAdroid benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    root = os.getcwd()
    for need in SOURCES + ["bin/nadroid.ml", "perfbench/_nbench/dune"]:
        if not os.path.exists(need):
            fail(f"{need} is missing: run from the root of a nadroid source tree")

    before = snapshot(root)
    stage()
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", STAGE, "--profile", "release", "--display", "quiet",
         "./bin/nadroid.exe", "./nbench/nbench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(STAGE, "_build", "default")
    rev = revision(root)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        tmp = os.path.join(BUILD_DIR, f"run-{os.getpid()}")
        lines, result, code = run_one(
            [os.path.join(exe, "nbench", "nbench.exe"), "run",
             "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--nadroid", os.path.join(exe, "bin", "nadroid.exe"), "--tmp", tmp,
             "--rev", rev],
            # the timed loop, the references before it and a last trial
            # that overruns it
            timeout=2 * args.seconds + 120)
        shutil.rmtree(tmp, ignore_errors=True)
        if len(workloads) > 1:
            print(f"== {w}")
        for line in lines:
            print(line)
        if result is None:
            fail(f"{w}: no result (exit {code})")
        if code != 0:
            result["correct"] = False
        results[w] = result

    changed = before ^ snapshot(root)
    for path in sorted({p for p, _, _ in changed}):
        print(f"FAIL the run changed {path}")
    if len(workloads) == 1:
        result = results[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    if changed:
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
