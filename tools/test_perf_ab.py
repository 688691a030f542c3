"""Tests of the A/B gate's decision logic, on injected results.

    python3 -m unittest discover -s tools -p test_perf_ab.py
"""

import contextlib
import io
import json
import unittest

import perf_ab

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}


def results(base, change, name="wall_s"):
    return {"base": [{name: v} for v in base], "change": [{name: v} for v in change]}


def quiet_gate(end_to_end, res):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        failures = perf_ab.gate(end_to_end, res)
    return failures, out.getvalue()


def perfbench_stdout(correct=True):
    return "digest: ab (2 repetitions)\n" + json.dumps({
        "correct": correct, "attempted": 2, "failed": 0,
        "metrics": {"wall_s": {"value": 7.5, "unit": "s"}}}) + "\n"


class JudgeTest(unittest.TestCase):
    def test_within_the_bound_passes(self):
        base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0]
        change = [v * 1.2 for v in base]
        verdict, regression, spread = perf_ab.judge(WALL, base, change)
        self.assertEqual(verdict, "ok")
        self.assertAlmostEqual(regression, 0.2)
        self.assertLess(spread, WALL["bound"])
        self.assertEqual(quiet_gate([WALL], results(base, change))[0], 0)

    def test_past_the_bound_fails(self):
        base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0]
        change = [v * 1.3 for v in base]
        self.assertEqual(perf_ab.judge(WALL, base, change)[0], "FAIL")
        failures, out = quiet_gate([WALL], results(base, change))
        self.assertEqual(failures, 1)
        self.assertIn("FAIL", out)

    def test_the_bound_comes_from_the_metric(self):
        base = [10.0] * 8
        change = [11.5] * 8
        self.assertEqual(perf_ab.judge(WALL, base, change)[0], "ok")
        self.assertEqual(perf_ab.judge(dict(WALL, bound=0.1), base, change)[0], "FAIL")

    def test_higher_is_better_regresses_downwards(self):
        base = [100.0] * 8
        self.assertEqual(perf_ab.judge(RATE, base, [140.0] * 8)[0], "ok")
        self.assertEqual(perf_ab.judge(RATE, base, [70.0] * 8)[0], "FAIL")
        self.assertEqual(perf_ab.judge(WALL, base, [70.0] * 8)[0], "ok")

    def test_wide_base_spread_is_unresolved_and_does_not_fail(self):
        base = [6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 6.5, 13.5]
        change = [v * 1.35 for v in base]  # median 35% worse, runs overlap
        verdict, _, spread = perf_ab.judge(WALL, base, change)
        self.assertGreater(spread, WALL["bound"])
        self.assertEqual(verdict, "unresolved")
        failures, out = quiet_gate([WALL], results(base, change))
        self.assertEqual(failures, 0)
        self.assertIn("unresolved", out)

    def test_every_change_run_worse_fails_even_when_unresolved(self):
        base = [6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 6.5, 13.5]
        change = [14.5, 15.0, 16.0, 14.1, 15.5, 17.0, 14.2, 18.0]
        verdict, _, spread = perf_ab.judge(WALL, base, change)
        self.assertGreater(spread, WALL["bound"])
        self.assertEqual(verdict, "FAIL")
        self.assertEqual(quiet_gate([WALL], results(base, change))[0], 1)

    def test_every_metric_is_judged(self):
        res = {"base": [{"wall_s": 10.0, "rate": 100.0}] * 4,
               "change": [{"wall_s": 20.0, "rate": 40.0}] * 4}
        self.assertEqual(quiet_gate([WALL, RATE], res)[0], 2)


class RunTest(unittest.TestCase):
    def test_a_correct_run_yields_its_metrics(self):
        self.assertEqual(perf_ab.parse_run("base", 0, perfbench_stdout()), {"wall_s": 7.5})

    def test_an_incorrect_run_fails(self):
        with self.assertRaisesRegex(perf_ab.GateError, "incorrect"):
            perf_ab.parse_run("change", 0, perfbench_stdout(correct=False))

    def test_a_nonzero_exit_fails(self):
        with self.assertRaisesRegex(perf_ab.GateError, "exited with 1"):
            perf_ab.parse_run("change", 1, perfbench_stdout())
        with self.assertRaisesRegex(perf_ab.GateError, "no result line"):
            perf_ab.parse_run("base", 0, "")

    def test_a_failing_run_stops_the_pairs_at_once(self):
        calls = []

        def run(side):
            calls.append(side)
            return perf_ab.parse_run(side, 0, perfbench_stdout(correct=len(calls) < 3))

        with contextlib.redirect_stdout(io.StringIO()):
            with self.assertRaises(perf_ab.GateError):
                perf_ab.run_pairs(run, pairs=4)
        self.assertEqual(len(calls), 3)

    def test_first_side_alternates(self):
        calls = []

        def run(side):
            calls.append(side)
            return {"wall_s": 1.0}

        with contextlib.redirect_stdout(io.StringIO()):
            res = perf_ab.run_pairs(run, pairs=4)
        self.assertEqual(calls, ["base", "change", "change", "base",
                                 "base", "change", "change", "base"])
        self.assertEqual(len(res["base"]), 4)
        self.assertEqual(len(res["change"]), 4)

    def test_the_command_is_the_benchmark_of_record(self):
        cmd = perf_ab.bench_command("fig02_tickless")
        self.assertEqual(cmd[1:], ["perfbench/run.py", "--workload", "fig02_tickless",
                                   "--seed", "1", "--seconds", str(perf_ab.SECONDS),
                                   "--trace", "0"])


if __name__ == "__main__":
    unittest.main()
