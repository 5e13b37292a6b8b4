#!/usr/bin/env python3
"""Build and run the PermuQ steady benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload sycamore --seed 1 \
        --seconds 50 --trace 0

builds perfbench/ (and the library sources in src/) into
.bench_build/perfbench, clears every PERMUQ_* variable from the
benchmark's environment, runs one workload and passes its output
through. The last line of output is the run's JSON result.

Steadiness check (two sets of runs, alternating, per workload):

    python3 perfbench/run.py steady --runs 10 [--seconds S] [--save F]

prints each end-to-end metric's median and quartiles per set, its
spread (IQR / median) and whether the two sets agree within the bound
in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["heavyhex", "sycamore"]
RUN_TIMEOUT_S = 175


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr
    so the benchmark's last stdout line stays its result."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    env = pinned_env()
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return BINARY.is_file()


def pinned_env():
    """The library reads PERMUQ_* knobs (tier, threads, SIMD tier,
    tracing, logging) from the environment; none may change what is
    measured. Temporary files stay inside the build directory."""
    env = dict(os.environ)
    for name in sorted(env):
        if name.startswith("PERMUQ_"):
            log(f"clearing ambient {name}={env[name]}")
            del env[name]
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_once(workload, seed, seconds, trace, capture):
    trace_dir = BUILD / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", str(trace_dir)]
    proc = subprocess.Popen(cmd, env=pinned_env(), cwd=str(ROOT),
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    return proc.returncode, out


def steady(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    sets = {"A": {w: [] for w in workloads}, "B": {w: [] for w in workloads}}
    for i in range(args.runs):
        order = ["A", "B"] if i % 2 == 0 else ["B", "A"]
        for w in workloads:
            for s in order:
                seed = args.seed0 + i + (0 if s == "A" else 1000)
                code, out = run_once(w, seed, args.seconds, 0, True)
                if code != 0:
                    log(f"{w} set {s} seed {seed} failed with code {code}")
                    return 1
                result = json.loads(out.decode().strip().splitlines()[-1])
                sets[s][w].append(result)
                log(f"{w} set {s} run {i + 1}/{args.runs} seed {seed} done")

    all_ok = True
    for w in workloads:
        print(f"\n## {w}")
        shares = {s: {r["failed"] / r["attempted"] for r in sets[s][w]}
                  for s in sets}
        same_share = len(shares["A"] | shares["B"]) == 1
        all_ok &= same_share
        print(f"failed share per run: A {sorted(shares['A'])} "
              f"B {sorted(shares['B'])} -> "
              f"{'identical' if same_share else 'DIFFERENT'}")
        print(f"{'metric':24} {'set':3} {'q1':>12} {'median':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        names = sets["A"][w][0]["metrics"].keys()
        for name in names:
            bound = bounds[name]["bound"] if name in bounds else None
            meds = {}
            for s in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[s][w]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                meds[s] = med
                spread = (q3 - q1) / med if med else 0.0
                ok = (bound is None or name == "setup_s"
                      or spread <= bound)
                all_ok &= ok
                print(f"{name:24} {s:3} {q1:12.6g} {med:12.6g} {q3:12.6g} "
                      f"{spread:8.4f} {bound if bound is not None else '-':>6}"
                      f"  {'spread ok' if ok else 'SPREAD ABOVE BOUND'}"
                      f"{'' if bound is None or spread <= bound / 3 else ' (above bound/3)'}")
            shift = abs(meds["B"] - meds["A"]) / meds["A"] if meds["A"] else 0
            agree = bound is None or shift <= bound
            all_ok &= agree
            print(f"{'':24} A-B median shift {shift:.4f} -> "
                  f"{'agree' if agree else 'DISAGREE'}")
    if args.save:
        Path(args.save).write_text(json.dumps(sets, indent=1))
    print(f"\nsteady: {'all metrics agree' if all_ok else 'NOT STEADY'}")
    return 0 if all_ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "steady":
        parser = argparse.ArgumentParser(prog="run.py steady")
        parser.add_argument("--runs", type=int, default=10)
        parser.add_argument("--seconds", type=int, default=None)
        parser.add_argument("--seed0", type=int, default=1)
        parser.add_argument("--workloads", default="")
        parser.add_argument("--save", default="",
                            help="write every run's result here (JSON)")
        args = parser.parse_args(sys.argv[2:])
        if args.seconds is None:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            args.seconds = spec["run_seconds"]
        if not build():
            return 2
        return steady(args)

    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if not build():
        return 2
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace,
                       False)
    return code


if __name__ == "__main__":
    sys.exit(main())
