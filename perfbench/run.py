#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds hepq_bench (perfbench/CMakeLists.txt, which pulls in the hepquery
tree) into .bench_build/ at the repository root, then runs one workload:

    python3 perfbench/run.py --workload scan --seed 7 --seconds 10 --trace 0

The last line of stdout is the result JSON (see perfbench/README.md); build
output goes to stderr. With --smoke it instead runs every workload once at
tiny sizes, untraced and traced, and checks the result lines against
BENCHMARK.json (every metric present with its unit), the Chrome trace
(well formed) and bench.span_coverage (within [0.95, 1.00]).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "hepq_bench"
WORKLOADS = ["scan", "trijet", "session", "scatter"]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (first use) and builds hepq_bench; compiler scratch files
    stay under .bench_build/ too."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the hepquery sources (CMakeLists.txt, src/) are not beside "
             "perfbench/; run from a full checkout")
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                       "--target", "hepq_bench"],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def run_bench(args, capture=False):
    cmd = [str(BINARY)] + args
    return subprocess.run(cmd, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(["--workload", workload, "--smoke",
                              "--trace", str(trace), "--seed", "1"],
                             capture=True)
            tag = f"{workload} trace={trace}"
            before = len(problems)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}, no result")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{tag}: top-level keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"{tag}: results not correct")
            metrics = result.get("metrics", {})
            expected = {m["name"]: m["unit"] for m in spec[key]}
            if set(metrics) != set(expected):
                problems.append(f"{tag}: metric names differ from "
                                f"BENCHMARK.json: {sorted(set(metrics) ^ set(expected))}")
            for name, unit in expected.items():
                m = metrics.get(name, {})
                if m.get("unit") != unit or not isinstance(
                        m.get("value"), (int, float)) or not math.isfinite(
                            m["value"]):
                    problems.append(f"{tag}: metric {name} is {m}")
            if trace:
                coverage = metrics.get("bench.span_coverage", {}).get("value")
                if coverage is None or not 0.95 <= coverage <= 1.0:
                    problems.append(f"{tag}: span coverage {coverage}")
                trace_path = ROOT / ".bench_out" / f"trace_{workload}_s1.json"
                try:
                    events = json.loads(trace_path.read_text())["traceEvents"]
                    if not events or any(e.get("ph") != "X" for e in events):
                        problems.append(f"{tag}: trace has no complete events")
                except (OSError, ValueError, KeyError) as e:
                    problems.append(f"{tag}: trace unreadable: {e}")
            status = "ok" if len(problems) == before else "FAILED"
            print(f"smoke {tag}: {status}", file=sys.stderr)
    for p in problems:
        print(f"SMOKE FAILED {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20120601)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        fail("--workload is required")
    build()
    if args.smoke:
        return smoke()
    return run_bench(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
