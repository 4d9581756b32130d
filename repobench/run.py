#!/usr/bin/env python3
"""Repository benchmark runner.

Run from the repository root:

    python3 repobench/run.py --workload attack-sweep --seed 1 --seconds 20 --trace 0

builds the measuring program (`repobench/`, a cargo package of its own with
path dependencies on the repository crates), keeps the `service-warm`
fixture current for that build, runs one measurement, and prints the result
object as the last line of standard output. Build output and diagnostics go
to standard error.

Two helper modes work on sets of runs:

    python3 repobench/run.py spread --workload W [--runs 10] [--seconds S] [--trace 0|1] [--out FILE]
        runs W on seeds 1..N and prints each metric's median and quartile
        spread (IQR / median) against its bound in BENCHMARK.json.

    python3 repobench/run.py pairs --parent DIR --change DIR [--workload W ...] [--runs 10] [--out FILE]
        runs the benchmark from two checkouts in alternating pairs (which
        side goes first alternates), then compares them.

    python3 repobench/run.py compare FILE [FILE2]
        compares two result sets: one file written by `pairs`, or a parent
        and a change file written by `spread --out`. For every end-to-end
        metric and workload it prints improved, worse, no change, or
        unresolved (see `verdict`).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))


def build():
    """Builds the measuring program; returns its path or None on failure."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "sim", "Cargo.toml")):
        log("the repository crates are missing next to the benchmark; nothing to build")
        return None
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(command, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(target_dir(), "release", "repobench")


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def ensure_fixture(binary):
    """The service-warm fixture (every smoke target simulated once), rebuilt
    whenever the program binary changes."""
    fixture = os.path.join(target_dir(), "repobench-fixture")
    stamp = os.path.join(fixture, "stamp")
    digest = file_digest(binary)
    if os.path.isfile(stamp) and open(stamp).read() == digest:
        return fixture
    log("building the service-warm fixture")
    result = subprocess.run([binary, "prepare", "--fixture", fixture], cwd=ROOT, stdout=sys.stderr,
                            timeout=RUN_TIMEOUT_S)
    if result.returncode != 0:
        return None
    with open(stamp, "w") as handle:
        handle.write(digest)
    return fixture


def measure(args):
    binary = build()
    if binary is None:
        return 1
    command = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.workload == "service-warm":
        fixture = ensure_fixture(binary)
        if fixture is None:
            log("could not build the service-warm fixture")
            return 1
        command += ["--fixture", os.path.relpath(fixture, ROOT)]
    work = os.path.join(target_dir(), "repobench-work", f"{args.workload}-{os.getpid()}")
    # Relative to the repository root where possible: service-warm binds a
    # Unix socket under it, and socket paths are limited to about 100 bytes.
    command += ["--work", os.path.relpath(work, ROOT)]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"measurement exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    if result.returncode != 0 or not lines:
        log(f"measurement failed with exit code {result.returncode}")
        return 1
    print(lines[-1], flush=True)
    return 0


# --- sets of runs ---------------------------------------------------------

def bench_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(root, workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(root, "repobench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise SystemExit(f"run failed: {' '.join(command)}")
    return json.loads(lines[-1])


def quartile_spread(values):
    """(median, IQR / median) with Python's default quantile method."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def spread(args):
    spec = bench_spec()
    seconds = args.seconds or spec["run_seconds"]
    records = []
    for seed in range(1, args.runs + 1):
        result = run_once(ROOT, args.workload, seed, seconds, args.trace)
        records.append({"workload": args.workload, "seed": seed, "result": result})
        log(f"{args.workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    if args.out:
        with open(args.out, "a") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = list(records[0]["result"]["metrics"])
    print(f"{'metric':32} {'median':>14} {'IQR/median':>11} {'bound':>7}")
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in records]
        median, rel = quartile_spread(values)
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if rel < bound / 3 else "WIDE")
        print(f"{name:32} {median:14.6g} {rel:11.4f} {bound if bound is not None else '-':>7} {flag}")
    return 0


def verdict(parent, change, better, bound):
    """choosing-metrics section 8 applied to one metric on one workload.

    `parent` and `change` are paired runs. The change improved when it wins
    at least 9 of 10 pairs (ties count for neither) and the medians differ
    by more than the parent's interquartile range; it is worse when its
    median is worse than the parent's by more than `bound`; the result is
    unresolved when the parent's own spread exceeds the bound, unless every
    change run beats every parent run; otherwise there is no change."""
    def beats(a, b):
        return a < b if better == "lower" else a > b

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if beats(c, p))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (med_p, med_p, med_p)
    iqr = q3 - q1
    worse_by = (med_c - med_p) / abs(med_p) if better == "lower" else (med_p - med_c) / abs(med_p)
    if wins >= 0.9 * len(pairs) and abs(med_c - med_p) > iqr:
        label = "improved"
    elif bound is not None and worse_by > bound:
        label = "worse"
    elif bound is not None and iqr / abs(med_p) > bound and not all(beats(c, p) for c in change for p in parent):
        label = "unresolved"
    else:
        label = "no change"
    return label, med_p, med_c, wins, len(pairs)


def load_records(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def compare_records(parent_records, change_records, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = []
    for record in parent_records:
        if record["workload"] not in workloads:
            workloads.append(record["workload"])
    print(f"{'workload':14} {'metric':18} {'parent':>14} {'change':>14} {'wins':>7}  verdict")
    for workload in workloads:
        parent = [r for r in parent_records if r["workload"] == workload]
        change = [r for r in change_records if r["workload"] == workload]
        n = min(len(parent), len(change))
        for name, metric in metrics.items():
            p = [r["result"]["metrics"][name]["value"] for r in parent[:n]]
            c = [r["result"]["metrics"][name]["value"] for r in change[:n]]
            if not p:
                continue
            label, med_p, med_c, wins, pairs = verdict(p, c, metric["better"], metric.get("bound"))
            print(f"{workload:14} {name:18} {med_p:14.6g} {med_c:14.6g} {wins:>3}/{pairs:<3}  {label}")
        failed = sum(r["result"]["failed"] for r in change[:n])
        if failed:
            print(f"{workload:14} change runs reported {failed} failed operation(s)")


def compare(args):
    if args.change is None:
        records = load_records(args.parent)
        parent = [r for r in records if r.get("side") == "parent"]
        change = [r for r in records if r.get("side") == "change"]
    else:
        parent, change = load_records(args.parent), load_records(args.change)
    compare_records(parent, change, bench_spec())
    return 0


def pairs(args):
    spec = bench_spec(args.parent)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    records = []
    for workload in workloads:
        for index in range(args.runs):
            seed = index + 1
            sides = [("parent", args.parent), ("change", args.change)]
            if index % 2:
                sides.reverse()
            for side, root in sides:
                result = run_once(os.path.abspath(root), workload, seed, seconds, 0)
                records.append({"side": side, "pair": index, "workload": workload, "seed": seed, "result": result})
                log(f"{workload} pair {index} {side}: correct={result['correct']}")
    if args.out:
        with open(args.out, "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    compare_records([r for r in records if r["side"] == "parent"],
                    [r for r in records if r["side"] == "change"], spec)
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("spread", "pairs", "compare"):
        mode = sys.argv[1]
        parser = argparse.ArgumentParser(prog=f"run.py {mode}")
        if mode == "spread":
            parser.add_argument("--workload", required=True)
            parser.add_argument("--runs", type=int, default=10)
            parser.add_argument("--seconds", type=int, default=0)
            parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
            parser.add_argument("--out")
            return spread(parser.parse_args(sys.argv[2:]))
        if mode == "pairs":
            parser.add_argument("--parent", required=True)
            parser.add_argument("--change", required=True)
            parser.add_argument("--workload", action="append")
            parser.add_argument("--runs", type=int, default=10)
            parser.add_argument("--seconds", type=int, default=0)
            parser.add_argument("--out")
            return pairs(parser.parse_args(sys.argv[2:]))
        parser.add_argument("parent")
        parser.add_argument("change", nargs="?")
        return compare(parser.parse_args(sys.argv[2:]))
    parser = argparse.ArgumentParser(description="Run one benchmark measurement.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    return measure(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
