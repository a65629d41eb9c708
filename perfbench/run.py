#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke     # self-test, tiny counts
    python3 perfbench/run.py --record    # rewrite perfbench/reference/
                                         # (digests, then work counts)

Run from the repository root. The driver is built in
$CARGO_TARGET_DIR (default .bench_build), outputs and traces go to
<build>/out. The last line of stdout is the result JSON.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure and build the driver; build logs go to stderr."""
    build = build_dir()
    for cmd in (
        ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j4", "--target", "perfbench"],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build, "perfbench")


def driver(binary, args):
    """Run the driver; return (exit code, stdout lines)."""
    env = dict(os.environ)
    # The git SHA is read from this checkout only, never a parent.
    env["GIT_DIR"] = os.path.join(ROOT, ".git")
    cmd = [binary, "--ref", os.path.join(HERE, "reference"),
           "--out", os.path.join(build_dir(), "out")] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    return proc.returncode, proc.stdout.splitlines()


def smoke(binary):
    """Tiny runs: every metric is emitted with its unit, every
    traced run writes a loadable trace, and a wrong reference
    digest is caught."""
    failures = []
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, out = driver(binary, ["--workload", workload, "--seed", "7",
                                        "--seconds", "1", "--trace", str(trace),
                                        "--smoke"])
            tag = "%s trace=%d" % (workload, trace)
            if code != 0 or not out:
                failures.append("%s: exit %d" % (tag, code))
                continue
            result = json.loads(out[-1])
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s: outputs differ from reference" % tag)
            if trace and result["metrics"].get(
                    "obs.span_coverage_frac", {}).get("value", 0) < 0.95:
                failures.append("%s: layer spans cover < 95%%" % tag)
            for metric in SPEC[group]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    failures.append("%s: metric %s missing or wrong unit"
                                    % (tag, metric["name"]))
            extra = set(result["metrics"]) - {m["name"] for m in SPEC[group]}
            if extra:
                failures.append("%s: undeclared metrics %s" % (tag, sorted(extra)))
            if trace:
                path = os.path.join(build_dir(), "out", "trace_%s.json" % workload)
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                if not any(e.get("ph") == "X" for e in events):
                    failures.append("%s: trace has no spans" % tag)
    code, out = driver(binary, ["--workload", "reproduce_all", "--seed", "7",
                                "--seconds", "1", "--trace", "1", "--smoke",
                                "--corrupt-digest"])
    result = json.loads(out[-1]) if code == 0 and out else None
    if (result is None or result["correct"] or result["failed"] == 0
            or result["metrics"]["failed_frac"]["value"] <= 0):
        failures.append("wrong reference digest was not caught")
    for failure in failures:
        print("smoke: FAIL " + failure, file=sys.stderr)
    print("smoke: %s" % ("FAIL" if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.smoke:
        return smoke(binary)
    if args.record:
        for workload in WORKLOADS:
            runs = [["--trace", "0", "--record"],
                    ["--trace", "1", "--record-counts"],
                    ["--trace", "1", "--record-counts", "--smoke"]]
            for extra in runs:
                code, _ = driver(binary, ["--workload", workload,
                                          "--seed", "0", "--seconds", "600"]
                                 + extra)
                if code:
                    return code
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    code, out = driver(binary, ["--workload", args.workload,
                                "--seed", str(args.seed),
                                "--seconds", str(args.seconds),
                                "--trace", str(args.trace)])
    if code == 0 and out:
        print("\n".join(out))
    return code or (0 if out else 1)


if __name__ == "__main__":
    sys.exit(main())
