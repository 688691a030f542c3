#!/usr/bin/env python3
"""The repository benchmark: one command per workload (see METRICS.md).

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. It builds perfbench_harness (the simulator
library from src/ plus perfbench/harness.cc) into .bench_build/perfbench,
runs untraced repetitions of the workload, each in a fresh process, until
--seconds have been measured (at least two), checks that every simulated
output is correct and identical across repetitions, and prints every metric
with its unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 adds one traced
repetition, the layer-cost kernels (and for fleet_dc a 1-shard pass), reports
the per-layer metrics instead, and writes the spans as a Chrome trace-event
file that opens in Perfetto.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
# One invocation must finish within 180 s after the build.
BUDGET_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"


def build():
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"], stdout=sys.stderr, check=True)
    return out / "perfbench_harness"


class Harness:
    """Runs perfbench_harness children one at a time, each killed at the
    invocation's deadline, and reaps each with its resource usage."""

    def __init__(self, binary, deadline):
        self.binary = binary
        self.deadline = deadline

    def run(self, *args):
        proc = subprocess.Popen([str(self.binary)] + [str(a) for a in args],
                                stdout=subprocess.PIPE)
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            raise RuntimeError("perfbench_harness %s exited with %d"
                               % (" ".join(map(str, args)), proc.returncode))
        return json.loads(out.decode().strip().splitlines()[-1]), rusage


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    binary = build()
    harness = Harness(binary, time.monotonic() + BUDGET_S)

    calib, _ = harness.run("calibrate")
    fingerprint = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": calib["compiler"],
        "build_type": calib["build_type"],
        "calibration_ms": calib["calibration_ms"],
    }

    rep_args = ("rep", "--workload", args.workload, "--seed", args.seed)
    reps, rss_kib = [], []
    start = time.monotonic()
    while len(reps) < 2 or time.monotonic() - start < args.seconds:
        rep, rusage = harness.run(*rep_args)
        reps.append(rep)
        rss_kib.append(rusage.ru_maxrss)
    checked = list(reps)

    traced = single = kernels = None
    if args.trace:
        traced, _ = harness.run(*rep_args, "--traced")
        checked.append(traced)
        if args.workload == "fleet_dc":
            single, _ = harness.run(*rep_args, "--shards", 1, "--config", "cfs")
        pending, armed, rq_depth = metrics.kernel_depths(traced)
        kernels, _ = harness.run("kernels", "--pending", max(1, round(pending)),
                                 "--armed", max(1, round(armed)),
                                 "--rq-depth", max(1, round(rq_depth)))
        kernels.update(pending=pending, armed=armed, rq_depth=rq_depth)

    statuses = [s for rep in checked + ([single] if single else [])
                for s in metrics.run_statuses(rep)]
    attempted = len(statuses)
    failed = sum(1 for s in statuses if s != "ok")
    errors = metrics.correctness_errors(args.workload, checked, single)

    if args.trace:
        values = metrics.per_layer(reps, traced, kernels, single, calib["calibration_ms"],
                                   attempted, failed)
        units = metrics.PER_LAYER
        spans = metrics.assign_lanes(metrics.concat_spans([traced["spans"], kernels["spans"]]))
        trace_path = build_dir() / "traces" / ("%s-seed%d.json" % (args.workload, args.seed))
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w") as f:
            json.dump(metrics.chrome_trace(spans, {"workload": args.workload, "seed": args.seed,
                                                   "fingerprint": fingerprint}), f)
        print("trace: %s" % trace_path)
    else:
        values = metrics.end_to_end(reps, rss_kib)
        units = metrics.END_TO_END

    print("repetitions: wall_s %s; peak_rss_mb %s"
          % (" ".join("%.3f" % (r["wall_ns"] / 1e9) for r in reps),
             " ".join("%.1f" % (kib / 1024) for kib in rss_kib)))
    print("fingerprint: %s" % json.dumps(fingerprint, sort_keys=True))
    print("digest: %s (%d repetitions)" % (metrics.digest(checked[0]), len(checked)))
    print("fidelity: %s" % json.dumps({k: v for k, v in metrics.fidelity(reps[0]["runs"]).items()
                                       if v}, sort_keys=True))
    for name, unit in units:
        print("%-34s %14.6g %s" % (name, values[name], unit))
    for error in errors:
        print("INCORRECT: %s" % error)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, RuntimeError, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
