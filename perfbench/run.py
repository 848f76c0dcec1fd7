#!/usr/bin/env python3
"""The repository benchmark: builds perfbench_runner from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed n] [--seconds s] [--trace 0|1]
    python3 perfbench/run.py --workload <name> --repeat <k>   # spread over k seeds
    python3 perfbench/run.py --selftest

Run from the repository root. Each workload runs in its own process. The last
line of a single-workload run is one JSON object with the keys correct,
attempted, failed and metrics: the end_to_end metrics of BENCHMARK.json when
--trace is 0, its per_layer metrics when --trace is 1. A traced run also runs
the workload untraced with the same seed, checks that tracing changed no
outcome, and reports trace_overhead_share against it.

Builds go to perfbench/build/cmake and results to perfbench/build/results.
The exit code is non-zero when a correctness gate fails or the sources are
missing; the failed check is named on stderr.
"""
import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = BENCH_DIR / "build" / "cmake"
RESULTS_DIR = BENCH_DIR / "build" / "results"
WORKLOADS = ["serve_hot", "serve_churn", "event_strike_1m", "ring_recovery"]
CHILD_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_definition():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"no benchmark definition at {path}")
    return json.loads(path.read_text())


def build():
    """Configures once and builds incrementally; serialized by a file lock."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "build.log"
    with open(BUILD_DIR.parent / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_runner",
                      "perfbench_selftest", "-j", str(os.cpu_count() or 2)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)} (log: {log_path})", 3)


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_child(workload, seed, seconds, traced, echo=True):
    """Runs perfbench_runner once; returns its parsed result object."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / f"{workload}-seed{seed}-{'traced' if traced else 'untraced'}.json"
    cmd = [str(BUILD_DIR / "perfbench_runner"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0", "--out", str(out),
           "--commit", commit()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {CHILD_TIMEOUT_S} s", 4)
    lines = proc.stdout.rstrip("\n").splitlines()
    if echo:
        print("\n".join(lines[:-1]))
    if proc.stderr:
        print(proc.stderr, file=sys.stderr, end="")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload} printed no result (exit code {proc.returncode})", 4)
    result["exit_code"] = proc.returncode
    return result


def failed_gates(result, label):
    return [f"{label}: {g['name']} ({g['detail']})" for g in result["gates"] if not g["ok"]]


def run_workload(definition, workload, seed, seconds, trace, echo=True):
    """One benchmark run; returns (result line, failures, runner result)."""
    if trace:
        plain = run_child(workload, seed, seconds, False, echo=echo)
        traced = run_child(workload, seed, seconds, True, echo=echo)
        failures = failed_gates(plain, "untraced") + failed_gates(traced, "traced")
        if plain["fingerprint"] != traced["fingerprint"]:
            failures.append(f"tracing changed outcomes: untraced {plain['fingerprint']} "
                            f"vs traced {traced['fingerprint']}")
        base = plain["metrics"]["ops_per_s"]["value"]
        share = 1.0 - traced["metrics"]["ops_per_s"]["value"] / base
        traced["metrics"]["trace_overhead_share"] = {"value": share, "unit": "ratio"}
        print(f"trace_overhead_share = {share:.6f} (traced ops_per_s vs untraced, same seed)")
        result, wanted = traced, definition["per_layer"]
    else:
        result = run_child(workload, seed, seconds, False, echo=echo)
        failures = failed_gates(result, "untraced")
        wanted = definition["end_to_end"]
    if result["exit_code"] != 0 and not failures:
        failures.append(f"runner exited with code {result['exit_code']}")
    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None:
            failures.append(f"metric {spec['name']} missing from the runner's output")
            continue
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    line = {"correct": not failures, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    if trace:
        print("reconciliation: explained_share=%.6f unexplained_s=%.6f trace_overhead_share=%.6f"
              % (metrics.get("explained_share", {}).get("value", 0.0),
                 metrics.get("unexplained_s", {}).get("value", 0.0),
                 metrics.get("trace_overhead_share", {}).get("value", 0.0)))
    save = {"line": line, "provenance": result["provenance"], "seconds": seconds,
            "failures": failures, "notes": result["notes"]}
    (RESULTS_DIR / f"{workload}-seed{seed}-trace{int(trace)}-summary.json").write_text(
        json.dumps(save, indent=1) + "\n")
    return line, failures, result


def repeat(definition, workload, seeds, seconds):
    """Spread check: each end-to-end metric's IQR over k seeds as a share of
    the median, against the metric's bound (steady when below a third)."""
    values = {spec["name"]: [] for spec in definition["end_to_end"]}
    for seed in seeds:
        line, failures, _ = run_workload(definition, workload, seed, seconds, 0, echo=False)
        if failures:
            fail("; ".join(failures), 1)
        for name in values:
            values[name].append(line["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
              flush=True)
    print(f"\n{workload}: {len(seeds)} seeds, {seconds} s")
    print(f"{'metric':16} {'median':>14} {'iqr/median':>11} {'bound':>6}  steady")
    for spec in definition["end_to_end"]:
        data = values[spec["name"]]
        mid = statistics.median(data)
        q = statistics.quantiles(data, n=4) if len(data) > 1 else [data[0]] * 3
        spread = (q[2] - q[0]) / mid if mid else 0.0
        steady = "yes" if spread < spec["bound"] / 3 else "NO"
        print(f"{spec['name']:16} {mid:14.6g} {spread:11.4f} {spec['bound']:6.2f}  {steady}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--repeat", type=int, help="spread check over this many seeds")
    parser.add_argument("--selftest", action="store_true", help="test the statistics")
    args = parser.parse_args()

    definition = load_definition()
    build()
    seconds = args.seconds or definition["run_seconds"]
    if args.selftest:
        sys.exit(subprocess.run([str(BUILD_DIR / "perfbench_selftest")]).returncode)
    if args.repeat:
        if not args.workload:
            fail("--repeat needs --workload")
        repeat(definition, args.workload, range(args.seed, args.seed + args.repeat), seconds)
        return
    if args.all:
        rows, bad = [], []
        for workload in WORKLOADS:
            line, failures, result = run_workload(definition, workload, args.seed, seconds,
                                                  args.trace)
            rows.append((workload, line, result))
            bad += [f"{workload}: {f}" for f in failures]
        print(f"\n{'workload':17} {'metric':28} {'value':>12}  {'unit':10} samples")
        for workload, line, result in rows:
            for name, m in line["metrics"].items():
                samples = result["metrics"][name].get("samples") or "-"
                print(f"{workload:17} {name:28} {m['value']:>12.6g}  {m['unit']:10} {samples}")
            print(f"{workload:17} {'(ops attempted / failed)':28} "
                  f"{line['attempted']:>12} / {line['failed']}")
        if bad:
            fail("correctness gates failed: " + "; ".join(bad), 1)
        return
    if not args.workload:
        fail("give --workload, --all, --repeat or --selftest")
    line, failures, _ = run_workload(definition, args.workload, args.seed, seconds, args.trace)
    for f in failures:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    print(json.dumps(line))
    sys.exit(0 if not failures else 1)


if __name__ == "__main__":
    main()
