#!/usr/bin/env python3
"""End-to-end profiling benchmark runner.

Builds the perfbench binary (perfbench/CMakeLists.txt, which compiles the
profiler from the repository's src/ tree) and runs one workload:

    python3 perfbench/run.py --workload seq-serial --seed 1 --seconds 30 \
        --trace 0

The binary prints every metric by name with its unit; the last stdout line
is one JSON object {correct, attempted, failed, metrics}.  With --trace 1 it
prints the per-layer metrics and writes the spans as Chrome trace-event
JSON under the build directory.

    python3 perfbench/run.py --smoke

runs every workload briefly at scale 1 in both modes and checks structure
only: every metric named in BENCHMARK.json is present with its unit, every
output check passes, the session ledger closes, no workload plans more
threads than the host has, and BENCHMARK.json describes the workloads the
binary runs.
"""

import argparse
import ctypes
import fcntl
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000
LEDGER = ["core.setup_s", "core.run_s", "core.finish_s", "analysis.s",
          "core.teardown_s", "core.unattributed_s"]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures and builds the binary once per checkout; later calls are
    no-op incremental builds.  Returns the binary path, or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: profiler sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return None
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode:
                print("perfbench: build failed: " + " ".join(cmd),
                      file=sys.stderr)
                return None
    return out / "perfbench"


def fixed_layout():
    """Runs in the child before exec: turns off address-space randomization
    for the benchmark process, so the packed store's page count and the
    process RSS do not change with where the kernel happens to place the
    heap and the thread stacks.  Best effort: a host that refuses the
    personality change runs with randomization."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def run_binary(binary, args, capture):
    try:
        proc = subprocess.run([str(binary)] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout or ""


def smoke(binary):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    code, out = run_binary(binary, ["--describe"], capture=True)
    described = json.loads(out) if code == 0 else []
    declared = {w["name"]: w["why"] for w in config["workloads"]}
    if {w["name"] for w in described} != set(declared):
        problems.append("BENCHMARK.json workloads differ from the binary's")
    for w in described:
        if declared.get(w["name"]) != w["why"]:
            problems.append("%s: BENCHMARK.json why differs" % w["name"])
        for p in w["programs"]:
            if "%s x%d" % (p["name"], p["scale"]) not in w["why"]:
                problems.append("%s: why omits %s x%d" %
                                (w["name"], p["name"], p["scale"]))
        if w["threads"] > (os.cpu_count() or 1):
            problems.append("%s: %d threads > nproc" %
                            (w["name"], w["threads"]))

    wanted = {0: config["end_to_end"], 1: config["per_layer"]}
    for w in described:
        for trace in (0, 1):
            tag = "%s trace=%d" % (w["name"], trace)
            chrome = build_dir() / ("smoke-%s.json" % w["name"])
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            if trace:
                args += ["--trace-out", str(chrome)]
            code, out = run_binary(binary, args, capture=True)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append("%s: exit %d" % (tag, code))
                continue
            result = json.loads(lines[-1])
            if (not result["correct"] or result["failed"]
                    or result["attempted"] < 1):
                problems.append("%s: output checks failed" % tag)
            metrics = result["metrics"]
            for m in wanted[trace]:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append("%s: metric %s missing or unit differs" %
                                    (tag, m["name"]))
                elif not math.isfinite(got["value"]) or (
                        trace == 0 and got["value"] <= 0):
                    problems.append("%s: metric %s = %r" %
                                    (tag, m["name"], got["value"]))
            if trace == 0 or any(n not in metrics for n in LEDGER):
                continue
            parts = sum(metrics[n]["value"] for n in LEDGER)
            total = metrics["core.session_s"]["value"]
            if metrics["core.unattributed_s"]["value"] < 0 or \
                    abs(parts - total) > 1e-9 * max(1.0, total):
                problems.append("%s: ledger does not close (%r vs %r)" %
                                (tag, parts, total))
            if metrics["bench.threads"]["value"] > (os.cpu_count() or 1):
                problems.append("%s: threads exceed nproc" % tag)
            try:
                spans = json.loads(chrome.read_text())["traceEvents"]
                if not any(s["name"] == "session" for s in spans):
                    problems.append("%s: no session spans" % tag)
            except (OSError, ValueError, KeyError):
                problems.append("%s: unreadable Chrome trace" % tag)

    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="structural self-test of every workload")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.smoke:
        return smoke(binary)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(build_dir() / ("trace-%s-seed%d.json" %
                                                  (args.workload, args.seed)))]
    sys.stdout.flush()
    code, _ = run_binary(binary, cmd, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
