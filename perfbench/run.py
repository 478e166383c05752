#!/usr/bin/env python3
"""Build and run the end-to-end Mosaic benchmark.

    python3 perfbench/run.py --workload scan_serve --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is compiled from the
sources under src/ into $CARGO_TARGET_DIR (default .bench_build) with
CMake in Release mode; build output goes to stderr. The last line of
stdout is the result object of the run (see perfbench/README.md).

--self-test runs every workload at tiny sizes, untraced and traced, and asserts that each metric named in BENCHMARK.json is
printed with its unit and that a deliberately wrong expected answer
fails the run.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build; returns the benchmark binary's path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench-release"))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(2)
    return os.path.join(build_dir, "mosaic_perfbench")


def run(binary, args):
    """Run the benchmark; returns (exit code, stdout lines)."""
    try:
        result = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s and was killed")
        sys.exit(3)
    return result.returncode, result.stdout.splitlines()


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)
            log(f"SELF-TEST FAILED: {what}")

    # Every per-layer metric names the end-to-end metric it should move.
    for m in spec["per_layer"]:
        entry = layers.get(m["name"])
        expect(entry is not None and entry.get("moves"),
               f"layers.json maps {m['name']}")
        for move in (entry or {}).get("moves", []):
            expect(move["metric"] in e2e_names and move["workload"] in workloads,
                   f"{m['name']} moves a known metric on a known workload")

    for workload in workloads:
        for trace, metrics in (("0", spec["end_to_end"]),
                               ("1", spec["per_layer"])):
            code, out = run(binary, ["--workload", workload, "--seed", "7",
                                     "--seconds", "2", "--trace", trace,
                                     "--smoke"])
            result = json.loads(out[-1]) if out else {}
            expect(code == 0 and result.get("correct") is True,
                   f"{workload} trace={trace} passes its output checks")
            printed = result.get("metrics", {})
            for m in metrics:
                got = printed.get(m["name"])
                expect(got is not None and got.get("unit") == m["unit"],
                       f"{workload} trace={trace} prints {m['name']} "
                       f"in {m['unit']}")
            expect(set(printed) == {m["name"] for m in metrics},
                   f"{workload} trace={trace} prints no unlisted metric")
        code, out = run(binary, ["--workload", workload, "--seed", "7",
                                 "--seconds", "2", "--trace", "0", "--smoke",
                                 "--inject-wrong-answer"])
        result = json.loads(out[-1]) if out else {}
        expect(code != 0 and result.get("correct") is False
               and not result.get("metrics"),
               f"{workload}: a wrong expected answer fails the output check")
    if failures:
        log(f"self-test: {len(failures)} failure(s)")
        return 1
    log("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.self_test:
        return self_test(binary)
    if not args.workload:
        parser.error("--workload is required")
    code, out = run(binary, ["--workload", args.workload, "--seed", args.seed,
                             "--seconds", args.seconds, "--trace", args.trace])
    for line in out:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
