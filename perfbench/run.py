#!/usr/bin/env python3
"""Host-performance benchmark of the RobuSTore simulator.

Builds the simulator libraries and the perfbench program from source (CMake,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then runs
one workload and passes its output through. The last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload paper_mix --seed 1 --trace 0
    python3 perfbench/run.py --workload all     # every workload, both modes
    python3 perfbench/run.py --selftest         # the benchmark's own tests
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_mix", "campaign", "dataplane")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(target):
    """Configures once and builds `target`; build chatter goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def expected_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f)
    if seed != recorded["seed"]:
        return None
    return recorded["prefix_digest"][workload]


def run_workload(exe, workload, seed, seconds, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    digest = expected_digest(workload, seed)
    if digest is not None:
        cmd += ["--expect-digest", digest]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{workload}-seed{seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(stdout)
        fail(f"{workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} printed a malformed result line")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    exe = build("perfbench")
    if args.workload != "all":
        run_workload(exe, args.workload, args.seed, args.seconds, args.trace)
        return
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            ok &= run_workload(exe, workload, args.seed, args.seconds,
                               trace)["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
