#!/usr/bin/env python3
"""Build and run bench_e2e; print one JSON result line.

Benchmark run (from the root of a source checkout):

    python3 e2ebench/run.py --workload steady_delta --seed 1 --seconds 20 --trace 0

builds bench_e2e from source into $CARGO_TARGET_DIR (default .bench_build),
runs one workload, and prints as its last stdout line
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics of
BENCHMARK.json (--trace 0) or its per-layer metrics from a traced run
(--trace 1). The binary's own report goes to stderr.

Other modes:

    run.py --smoke [--binary PATH]       all workloads at tiny sizes; checks
                                         every BENCHMARK.json metric is
                                         emitted with its unit (ctest)
    run.py --baseline DIR [--runs 5] [--seed 1]
                                         record runs per workload into
                                         DIR/<workload>.json (median,
                                         quartiles, every value, machine)
    run.py --compare BASE.json... --against NEW.json...
                                         per workload and metric: median and
                                         quartiles of each side; exit 1 when
                                         a count metric or the failure rate
                                         got worse
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("steady_delta", "churn_sharded", "query_mix")
# Whole seconds; a run must end well inside the 180 s limit.
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configure and build bench_e2e; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs, "--target", "bench_e2e"],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"cannot run {step[0]}: {e}")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    return out / "bench_e2e"


def run_binary(binary, args, out_dir):
    """Run bench_e2e; returns its exit code."""
    cmd = [str(binary), *args, "--out", str(out_dir), "--work-dir", str(out_dir)]
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"bench_e2e timed out after {RUN_TIMEOUT_S} s")
        return 1
    if code < 0:
        log(f"bench_e2e killed by signal {-code}")
    elif code != 0:
        log(f"bench_e2e exited with code {code}")
    return code


def read_report(out_dir, workload):
    with open(Path(out_dir) / f"BENCH_e2e.{workload}.json") as f:
        return json.load(f)


def check_units(report, specs, require_all):
    """Problems with the listed metrics in one workload's report."""
    problems = []
    for spec in specs:
        got = report["metrics"].get(spec["name"])
        if got is None:
            if require_all:
                problems.append(f"{report['workload']}: {spec['name']} missing")
        elif got["unit"] != spec["unit"]:
            problems.append(f"{report['workload']}: {spec['name']} unit "
                            f"{got['unit']} != {spec['unit']}")
    return problems


def bench(args):
    spec = load_spec()
    binary = build()
    if binary is None:
        return 1
    traced = args.trace == 1
    with tempfile.TemporaryDirectory(dir=build_dir(), prefix="run.") as tmp:
        run_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds)]
        if traced:
            trace_path = build_dir() / f"trace.{args.workload}.json"
            run_args += ["--trace", str(trace_path)]
        code = run_binary(binary, run_args, tmp)
        try:
            report = read_report(tmp, args.workload)
        except (OSError, ValueError) as e:
            log(f"no report from bench_e2e: {e}")
            return 1
    # Per-layer metrics of a layer this workload never calls read 0.
    specs = spec["per_layer"] if traced else spec["end_to_end"]
    problems = check_units(report, specs, require_all=not traced)
    for p in problems:
        log(p)
    metrics = {}
    for s in specs:
        got = report["metrics"].get(s["name"], {"value": 0.0})
        metrics[s["name"]] = {"value": got["value"], "unit": s["unit"]}
    correct = report["correct"] and code == 0 and not problems
    if not correct:
        log(f"{args.workload}: wrong output {report['errors']}")
    print(json.dumps({"correct": correct,
                      "attempted": max(1, report["attempted"]),
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def smoke(args):
    spec = load_spec()
    binary = Path(args.binary) if args.binary else build()
    if binary is None:
        return 1
    problems = []
    reports = []
    with tempfile.TemporaryDirectory(dir=".", prefix="bench_e2e.smoke.") as tmp:
        trace = Path(tmp) / "trace.json"
        if run_binary(binary, ["--smoke", "--trace", str(trace)], tmp) != 0:
            problems.append("bench_e2e --smoke failed")
        for workload in WORKLOADS:
            try:
                reports.append(read_report(tmp, workload))
                traced = Path(tmp) / f"trace.{workload}.json"
                with open(traced) as f:
                    json.load(f)
            except (OSError, ValueError) as e:
                problems.append(f"{workload}: {e}")
    for report in reports:
        if not report["correct"]:
            problems.append(f"{report['workload']}: wrong output "
                            f"{report['errors']}")
        problems += check_units(report, spec["end_to_end"], require_all=True)
        problems += check_units(report, spec["per_layer"], require_all=False)
    for metric in spec["per_layer"]:
        if not any(metric["name"] in r["metrics"] for r in reports):
            problems.append(f"{metric['name']} emitted by no workload")
    for p in problems:
        log(p)
    log("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def baseline(args):
    binary = build()
    if binary is None:
        return 1
    out_dir = Path(args.baseline)
    out_dir.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        reports = []
        for _ in range(args.runs):
            with tempfile.TemporaryDirectory(dir=build_dir(), prefix="run.") as tmp:
                code = run_binary(binary, ["--workload", workload, "--seed",
                                           str(args.seed), "--seconds",
                                           str(args.seconds)], tmp)
                report = read_report(tmp, workload)
            if code != 0 or not report["correct"]:
                log(f"{workload}: run failed {report['errors']}")
                return 1
            reports.append(report)
        metrics = {}
        for name, m in reports[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in reports]
            q1, med, q3 = quartiles(values)
            metrics[name] = {"unit": m["unit"], "median": med, "q1": q1,
                             "q3": q3, "values": values}
        summary = {
            "workload": workload, "seed": args.seed, "seconds": args.seconds,
            "runs": args.runs, "machine": reports[0]["machine"],
            "failure_rates": [r["failed"] / max(1, r["attempted"])
                              for r in reports],
            "metrics": metrics,
        }
        with open(out_dir / f"{workload}.json", "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
        log(f"{workload}: {args.runs} runs -> {out_dir / (workload + '.json')}")
    return 0


def samples(paths):
    """workload -> metric -> [values], plus workload -> [failure rates].

    A file is one bench_e2e report, or a baseline holding "values" per
    metric."""
    values, failures = {}, {}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        w = report["workload"]
        for name, m in report["metrics"].items():
            values.setdefault(w, {}).setdefault(name, []).extend(
                m.get("values", [m.get("value")]))
        rates = report.get("failure_rates")
        if rates is None:
            rates = [report["failed"] / max(1, report["attempted"])]
        failures.setdefault(w, []).extend(rates)
    return values, failures


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def compare(args):
    spec = load_spec()
    gates = {m["name"]: m for m in spec["end_to_end"]}
    base, base_fail = samples(args.compare)
    new, new_fail = samples(args.against)
    status = 0
    for w in sorted(set(base) & set(new)):
        print(f"== {w}")
        print(f"  {'metric':34} {'base q1/med/q3':>38}   {'new q1/med/q3':>38}")
        for name in sorted(set(base[w]) & set(new[w])):
            b, n = quartiles(base[w][name]), quartiles(new[w][name])
            line = (f"  {name:34} {b[0]:12.5g} {b[1]:12.5g} {b[2]:12.5g}   "
                    f"{n[0]:12.5g} {n[1]:12.5g} {n[2]:12.5g}")
            gate = gates.get(name)
            if gate:
                worse = (n[1] - b[1]) if gate["better"] == "lower" else (b[1] - n[1])
                share = worse / b[1] if b[1] else 0
                if share > gate["bound"]:
                    counted = gate["unit"] in ("cycles", "B")
                    line += ("   WORSE (gate)" if counted else
                             f"   warning: {share:.1%} worse, bound "
                             f"{gate['bound']:.0%}")
                    if counted:
                        status = 1
            print(line)
        bf, nf = statistics.median(base_fail[w]), statistics.median(new_fail[w])
        print(f"  {'failure rate':34} {bf:38.5g}   {nf:38.5g}")
        if nf > bf:
            print("  failure rate WORSE (gate)")
            status = 1
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--binary", help="prebuilt bench_e2e (smoke mode)")
    p.add_argument("--compare", nargs="+", metavar="BASE.json")
    p.add_argument("--against", nargs="+", metavar="NEW.json")
    p.add_argument("--baseline", metavar="DIR",
                   help="record --runs runs per workload into DIR/<workload>.json")
    p.add_argument("--runs", type=int, default=5)
    args = p.parse_args()
    if args.smoke:
        return smoke(args)
    if args.baseline:
        return baseline(args)
    if args.compare or args.against:
        if not (args.compare and args.against):
            p.error("--compare needs --against")
        return compare(args)
    if not args.workload:
        p.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
