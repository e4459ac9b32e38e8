#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json, or with --trace 1 its per-layer
metrics. A traced run also keeps its spans in .bench_build/perfbench/traces.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; the first build of a
    checkout compiles the engine."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True,
            timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
         "--target", "perfbench", "perfbench_logic_test"],
        stdout=sys.stderr, stderr=sys.stderr, check=True,
        timeout=BUILD_TIMEOUT_S)


def provenance():
    """The git commit when the checkout is a repository, and a digest of the
    sources either way (benchmark checkouts need not be repositories)."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return f"{commit or 'none'}+src:{digest.hexdigest()[:12]}"


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, spec, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys differ from the contract")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected_metrics(spec, trace):
        raise ValueError("result metrics differ from BENCHMARK.json")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the self-test of the benchmark logic")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_logic_test")],
                              timeout=RUN_TIMEOUT_S).returncode

    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads or args.seed is None or not args.seconds:
        parser.error(f"--workload (one of {workloads}), --seed and --seconds "
                     "are required")
    workdir = os.path.join(BUILD, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run(
            [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", workdir,
             "--commit", provenance()],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(lines))
            log(f"perfbench: the run failed with exit code {proc.returncode}")
            return 1
        check_result(lines[-1], spec, args.trace)
        trace_file = os.path.join(workdir, "trace.jsonl")
        if os.path.exists(trace_file):
            kept = os.path.join(BUILD, "traces",
                                f"{args.workload}-seed{args.seed}.jsonl")
            os.makedirs(os.path.dirname(kept), exist_ok=True)
            shutil.move(trace_file, kept)
            lines.insert(-1, f"spans: {os.path.relpath(kept, ROOT)}")
        print("\n".join(lines))
        return 0
    except subprocess.TimeoutExpired:
        log(f"perfbench: the run exceeded {RUN_TIMEOUT_S} s")
        return 1
    except ValueError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
