#!/usr/bin/env python3
"""The repository benchmark: build the simulator from source, run one
workload (or all of them, interleaved), check every simulated result
against its pin, and print the metrics.

Run from the repository root:

    python3 perfbench/run.py --workload cell-memory --seed 1 \\
        --seconds 20 --trace 0

--workload takes a name from BENCHMARK.json or `all`. --trace 0 prints
the end-to-end metrics, --trace 1 the per-layer metrics, and also
writes .bench_build/out/<workload>.seed<N>.layers.json and
.trace.json (Chrome trace_event format). Human-readable lines go
before the last line of stdout, which is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 only when every result matched its pin.
`--write-pins` re-simulates every pinned cell and rewrites
perfbench/pins.json (only after an intended change to simulated
results). Build logs go to stderr.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
CMAKE_DIR = BUILD_DIR / "cmake"
BIN_DIR = CMAKE_DIR / "bin"
PINS = BENCH_DIR / "pins.json"
# A run measures --seconds, then finishes the current pattern of specs;
# anything far past that is a hang.
DRIVER_GRACE_S = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then (re)build the driver and the daemon."""
    for need in ("src/CMakeLists.txt", "tools/mlpwind.cc",
                 "tools/mlpwin_worker.cc"):
        if not (ROOT / need).is_file():
            fail(f"{need} is missing: run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_driver(args, n_workloads):
    """Run the driver in its own process group; return its report."""
    cmd = [str(BIN_DIR / "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", str(BIN_DIR), "--pins", str(PINS),
           "--run-dir", str(BUILD_DIR / "run"),
           "--out-dir", str(BUILD_DIR / "out")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(
            timeout=args.seconds * n_workloads + DRIVER_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("driver timed out")
    finally:
        # The daemon and its workers share the driver's group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if not lines:
        fail(f"driver exited {proc.returncode} without a report")
    return json.loads(lines[-1]), proc.returncode


def select(spec, report, trace):
    """Metrics of one workload in BENCHMARK.json order and units.

    Per-layer metrics of a layer the workload does not run are 0.
    """
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = report["metrics"]
    out = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                fail(f"{name}: driver unit {got[name]['unit']} != {unit}")
            out[name] = got[name]
        elif trace:
            out[name] = {"value": 0, "unit": unit, "samples": 0}
        else:
            fail(f"driver did not report {name}")
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-pins", action="store_true")
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if args.seconds <= 0:
        fail("--seconds must be > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    build()
    if args.write_pins:
        r = subprocess.run([str(BIN_DIR / "perfbench_driver"),
                            "--write-pins", str(PINS)], cwd=ROOT)
        sys.exit(r.returncode)
    if args.workload not in names + ["all"]:
        fail(f"--workload must be one of {', '.join(names)} or all")

    started = time.time()
    raw, code = run_driver(args, len(names) if args.workload == "all" else 1)
    workloads = raw["workloads"]

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wname, rep in workloads.items():
        metrics = select(spec, rep, args.trace)
        attempted, failed = rep["attempted"], rep["failed"]
        result["attempted"] += attempted
        result["failed"] += failed
        result["correct"] &= failed == 0
        frac = failed / attempted if attempted else 1.0
        print(f"{wname}: seed {raw['seed']}, {attempted} cells attempted, "
              f"failed_frac {frac:.4f}")
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:8s} "
                  f"(n={m['samples']})")
        prefix = "" if args.workload != "all" else wname + "."
        for name, m in metrics.items():
            result["metrics"][prefix + name] = {"value": m["value"],
                                                "unit": m["unit"]}
        if args.trace:
            out = BUILD_DIR / "out" / f"{wname}.seed{args.seed}.layers.json"
            out.write_text(json.dumps({
                "bench": "perfbench", "workload": wname, "seed": raw["seed"],
                "seconds": args.seconds, "attempted": attempted,
                "failed": failed, "metrics": metrics}) + "\n")
    result["correct"] &= code == 0
    if result["attempted"] == 0:
        fail("no cell was attempted")
    print(f"wall {time.time() - started:.1f}s", file=sys.stderr)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
