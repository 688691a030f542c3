#!/usr/bin/env python3
"""Same-runner A/B perf gate: this tree against a base revision.

    python3 tools/perf_ab.py --base REV --workload W

Checks REV out with `git worktree` into a temporary directory and runs the
repository benchmark on both trees:

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0

from each tree's own root, so each side builds its own .bench_build from its
own sources. PAIRS fresh-process pairs run one after the other, alternating
which side goes first. A run that exits non-zero or reports "correct": false
fails the gate at once.

For every end_to_end metric in BENCHMARK.json the gate takes the bound and
the better direction from there and compares the medians over the pairs:

    ok          the change's median is within the bound of the base's
    FAIL        the change's median is worse than the base's by more than
                the bound
    unresolved  the base's inter-quartile spread is wider than the bound, so
                such a regression cannot be told from noise; this does not
                fail unless every change run is worse than every base run

Exits 0 when no metric fails and 1 otherwise. See docs/PERF.md, "The A/B gate".
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import metrics  # noqa: E402

# Fresh-process pairs per gate run.
PAIRS = 8
# Measured seconds per perfbench invocation; run.py always measures at least
# two repetitions, which is what this buys on every workload.
SECONDS = 1
SEED = 1


class GateError(Exception):
    """A run failed or was incorrect; the gate stops and fails."""


def bench_command(workload):
    return [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", "0"]


def parse_run(side, returncode, stdout):
    """The end-to-end metric values of one perfbench run. Raises GateError on a
    non-zero exit or a result that is not correct."""
    if returncode != 0:
        raise GateError("%s: perfbench exited with %d" % (side, returncode))
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise GateError("%s: perfbench printed no result line" % side)
    if result.get("correct") is not True:
        raise GateError("%s: perfbench reported an incorrect run" % side)
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def run_side(side, root, workload):
    """One perfbench invocation from `root`, in a fresh process."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # would make both sides share one build
    proc = subprocess.run(bench_command(workload), cwd=str(root), env=env,
                          stdout=subprocess.PIPE, universal_newlines=True)
    return parse_run(side, proc.returncode, proc.stdout)


def run_pairs(run, pairs=PAIRS):
    """Calls run(side) for "base" and "change" in `pairs` pairs, the base first
    in even pairs and the change first in odd ones. Returns each side's list of
    metric values, in pair order."""
    results = {"base": [], "change": []}
    for i in range(pairs):
        for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
            values = run(side)
            results[side].append(values)
            print("pair %d %-6s %s" % (i + 1, side, " ".join(
                "%s=%.4g" % (name, value) for name, value in sorted(values.items()))),
                flush=True)
    return results


def judge(metric, base, change):
    """(verdict, regression, spread) for one end_to_end metric, given each
    side's values. regression is the change's median relative to the base's,
    positive when worse; spread is the base's inter-quartile distance relative
    to its median."""
    lower = metric["better"] == "lower"
    q1, base_median, q3 = metrics.quartiles(base)
    change_median = metrics.median(change)
    worse_by = change_median - base_median if lower else base_median - change_median
    regression = worse_by / base_median
    spread = (q3 - q1) / base_median
    if spread > metric["bound"]:
        all_worse = max(base) < min(change) if lower else min(base) > max(change)
        return ("FAIL" if all_worse else "unresolved"), regression, spread
    return ("FAIL" if regression > metric["bound"] else "ok"), regression, spread


def gate(end_to_end, results):
    """Prints one verdict line per end_to_end metric; returns how many failed."""
    failures = 0
    for metric in end_to_end:
        name = metric["name"]
        base = [values[name] for values in results["base"]]
        change = [values[name] for values in results["change"]]
        verdict, regression, spread = judge(metric, base, change)
        failures += verdict == "FAIL"
        print("%-12s base %.4g  change %.4g %s  worse by %+.1f%%  base spread %.1f%%"
              "  bound %.0f%%  %s"
              % (name, metrics.median(base), metrics.median(change), metric["unit"],
                 100 * regression, 100 * spread, 100 * metric["bound"], verdict))
    return failures


def git(*args):
    return subprocess.run(["git"] + list(args), cwd=str(ROOT), check=True,
                          stdout=subprocess.PIPE, universal_newlines=True).stdout.strip()


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    args = parser.parse_args()

    rev = git("rev-parse", "--verify", args.base + "^{commit}")
    print("perf_ab: %s, base %s against this tree, %d pairs" % (args.workload, rev, PAIRS),
          flush=True)
    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
        base_root = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(base_root), rev)
        try:
            roots = {"base": base_root, "change": ROOT}
            results = run_pairs(lambda side: run_side(side, roots[side], args.workload))
        finally:
            git("worktree", "remove", "--force", str(base_root))
    return 1 if gate(spec["end_to_end"], results) else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (GateError, subprocess.CalledProcessError) as e:
        print("perf_ab: FAIL: %s" % e, file=sys.stderr)
        sys.exit(1)
