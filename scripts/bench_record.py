#!/usr/bin/env python3
"""Record a benchmark point, or check the program against one.

    python3 scripts/bench_record.py record [--out BENCH_16.json]
    python3 scripts/bench_record.py check [--point BENCH_21.json]

Run from the repository root.

record runs `python3 perfbench/run.py --workload all --seed 42
--seconds 25` and writes OUT: the run's final JSON under "result", plus
the machine it ran on (nproc and OCaml version, as the benchmark
reports them), the git revision with a digest of the sources, the seed
and the seconds. It refuses to write a point from a run with a wrong
verdict.

check runs the corpus-seq workload twice with the point's seed and
seconds, and fails unless the better run's apps_per_s reaches 0.8 times
the point's corpus-seq.apps_per_s. A point recorded on another machine
(different nproc or OCaml version) is no baseline: check then says so
on stderr, names both machines, and exits 0 without a verdict. It never
writes the point.

Exit codes: 0 recorded, passed or skipped; 1 a regression or a wrong
verdict; 2 no result.
"""

import argparse
import json
import subprocess
import sys

SEED, SECONDS = 42, 25
# corpus-seq runs per check, and the share of the recorded apps/s the
# better one must reach
RUNS, RATIO = 2, 0.8


def fail(msg, code=2):
    print(f"bench_record: {msg}", file=sys.stderr)
    sys.exit(code)


def run_bench(workload, seed, seconds):
    """Run the benchmark, echoing its output; returns the machine
    descriptor (from the first workload's descriptor line) and the final
    JSON result."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    print("bench_record: " + " ".join(cmd), file=sys.stderr, flush=True)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    lines = []
    for line in proc.stdout:
        print(line, end="", flush=True)
        lines.append(line.strip())
    code = proc.wait()
    descriptors = [json.loads(l)["descriptor"] for l in lines if l.startswith('{"descriptor"')]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: no result (exit {code})")
    if not descriptors:
        fail(f"{workload}: no descriptor line")
    if code != 0 or not result.get("correct"):
        fail(f"{workload}: wrong verdicts ({result.get('failed')} of "
             f"{result.get('attempted')} failed, exit {code})", 1)
    return descriptors[0], result


def machine(d):
    return f"nproc={d['nproc']} OCaml {d['ocaml']}"


def record(args):
    d, result = run_bench("all", SEED, SECONDS)
    point = {
        "command": f"python3 perfbench/run.py --workload all --seed {SEED} --seconds {SECONDS}",
        "nproc": d["nproc"],
        "ocaml": d["ocaml"],
        "rev": d["rev"],
        "seed": SEED,
        "seconds": SECONDS,
        "result": result,
    }
    with open(args.out, "w") as f:
        json.dump(point, f, indent=1)
        f.write("\n")
    print(f"bench_record: wrote {args.out} ({machine(d)}, rev {d['rev']})", file=sys.stderr)


def check(args):
    try:
        with open(args.point) as f:
            point = json.load(f)
        want = point["result"]["metrics"]["corpus-seq.apps_per_s"]["value"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read corpus-seq.apps_per_s from {args.point}: {e}")
    best = 0.0
    for _ in range(RUNS):
        d, result = run_bench("corpus-seq", point["seed"], point["seconds"])
        if (d["nproc"], d["ocaml"]) != (point["nproc"], point["ocaml"]):
            print(f"bench_record: SKIPPED the corpus-seq check: {args.point} was recorded on "
                  f"{machine(point)}, this machine is {machine(d)}; record a point here "
                  f"to compare against", file=sys.stderr)
            return
        best = max(best, result["metrics"]["apps_per_s"]["value"])
    floor = RATIO * want
    verdict = "ok" if best >= floor else "REGRESSED"
    print(f"bench_record: corpus-seq {verdict}: best of {RUNS} runs {best:.2f} apps/s, "
          f"floor {floor:.2f} = {RATIO} x {want:.2f} recorded in {args.point} "
          f"(rev {point['rev']})", file=sys.stderr)
    if best < floor:
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description="record or check a benchmark point")
    sub = ap.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="run the benchmark and write a point")
    rec.add_argument("--out", default="BENCH_16.json")
    chk = sub.add_parser("check", help="compare corpus-seq against a recorded point")
    chk.add_argument("--point", default="BENCH_21.json")
    args = ap.parse_args()
    if args.mode == "record":
        record(args)
    else:
        check(args)


if __name__ == "__main__":
    main()
