"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import statistics
import unittest
from pathlib import Path

import metrics


def span(name, start, end, parent=-1, cat="x", lane=0):
    return {"name": name, "cat": cat, "start_ns": start, "end_ns": end,
            "parent": parent, "lane": lane}


def samples_beyond(n, pct):
    """Samples strictly above the nearest-rank pct-th percentile of n."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def overall_run(family, workload, config, perf, kind="tput", status="ok"):
    return {"family": family, "workload": workload, "config": config, "perf": perf,
            "kind": kind, "status": status}


class StatisticsTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics_module(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
        self.assertEqual(metrics.median(values), 5.5)
        self.assertEqual(metrics.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        q1, q2, q3 = metrics.quartiles(values)
        self.assertAlmostEqual(metrics.spread(values), (q3 - q1) / q2)

    def test_spread_of_constant_is_zero(self):
        self.assertEqual(metrics.spread([2.0] * 10), 0.0)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile(values, 100), 100)
        self.assertEqual(metrics.percentile([7], 90), 7)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        values = list(range(1, 101))
        pct, value = metrics.tail_percentile(values)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        # 24 runs: only the 58.3rd percentile has ten samples beyond it.
        pct, value = metrics.tail_percentile(list(range(24)))
        self.assertAlmostEqual(pct, 100 * 14 / 24)
        self.assertEqual(sum(1 for v in range(24) if v > value), 10)
        self.assertEqual(samples_beyond(24, pct), 10)

    def test_tail_percentile_needs_more_than_ten_samples(self):
        self.assertEqual(metrics.tail_percentile(list(range(10))), (0.0, 0.0))
        pct, value = metrics.tail_percentile(list(range(11)))
        self.assertEqual(value, 0)
        self.assertEqual(samples_beyond(11, pct), 10)

    def test_p90_is_valid_only_with_a_hundred_samples(self):
        self.assertGreaterEqual(samples_beyond(100, 90), 10)
        self.assertLess(samples_beyond(99, 90), 10)
        self.assertLess(samples_beyond(24, 90), 10)


class FidelityTest(unittest.TestCase):
    def test_geomean_and_log_error(self):
        self.assertAlmostEqual(metrics.geomean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(metrics.geomean([2.0, 2.0, 2.0]), 2.0)
        self.assertEqual(metrics.log_err(1.69, 1.69), 0.0)
        self.assertAlmostEqual(metrics.log_err(3.38, 1.69), math.log(2))
        self.assertAlmostEqual(metrics.log_err(0.845, 1.69), math.log(2))

    def test_overall_gains_follow_the_report(self):
        runs = []
        for workload, cfs, full, kind in (("a", 1.0, 2.0, "tput"), ("b", 1.0, 8.0, "tput"),
                                          ("c", 2.0, 3.0, "p95")):
            runs += [overall_run("fig18_rcvm", workload, "cfs", cfs, kind),
                     overall_run("fig18_rcvm", workload, "enhanced", cfs, kind),
                     overall_run("fig18_rcvm", workload, "vsched", full, kind)]
        # Missing enhanced row: skipped, like PrintOverallReport.
        runs += [overall_run("fig18_rcvm", "d", "cfs", 1.0),
                 overall_run("fig18_rcvm", "d", "vsched", 100.0)]
        # Other family: ignored.
        runs += [overall_run("fig19_hpvm", "a", "cfs", 1.0)]
        tput, p95 = metrics.overall_gains(runs, "fig18_rcvm")
        self.assertAlmostEqual(tput, 4.0)
        self.assertAlmostEqual(p95, 1.5)
        self.assertEqual(metrics.overall_gains(runs, "fig19_hpvm"), (0.0, 0.0))

    def test_failed_runs_do_not_count(self):
        runs = [overall_run("fig18_rcvm", "a", c, 1.0) for c in ("cfs", "enhanced")]
        runs.append(overall_run("fig18_rcvm", "a", "vsched", 2.0, status="failed"))
        self.assertEqual(metrics.overall_gains(runs, "fig18_rcvm"), (0.0, 0.0))

    def test_fig02_blowup_is_the_largest_series_ratio(self):
        runs = []
        for app, be, p2, p16 in (("x", False, 2.0, 10.0), ("x", True, 1.0, 20.0),
                                 ("y", False, 4.0, 8.0)):
            for lat, p95 in ((2, p2), (4, p2), (8, p16), (16, p16)):
                runs.append({"family": "fig02", "workload": app, "best_effort": be,
                             "vcpu_latency_ms": lat, "p95_ns": p95, "status": "ok"})
        self.assertEqual(metrics.fig02_blowup(runs), 20.0)
        fid = metrics.fidelity(runs)
        self.assertAlmostEqual(fid["fidelity.fig02_err"], 0.0)
        self.assertEqual(fid["fidelity.rcvm_err"], 0.0)

    def test_err_is_the_mean_of_both_log_errors(self):
        runs = []
        for workload, kind, gain in (("t", "tput", 1.69 * 2), ("l", "p95", 1.6 / 2)):
            runs += [overall_run("fig18_rcvm", workload, "cfs", 1.0, kind),
                     overall_run("fig18_rcvm", workload, "enhanced", 1.0, kind),
                     overall_run("fig18_rcvm", workload, "vsched", gain, kind)]
        self.assertAlmostEqual(metrics.fidelity(runs)["fidelity.rcvm_err"], math.log(2))


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_child_coverage(self):
        spans = [span("root", 0, 100),
                 span("a", 10, 40, parent=0),
                 span("b", 30, 50, parent=0),   # overlaps a: union is 10..50
                 span("c", 90, 120, parent=0),  # clipped to the parent's end
                 span("a.1", 15, 20, parent=1)]
        self.assertEqual(metrics.self_times(spans), [100 - 40 - 10, 25, 20, 30, 5])

    def test_self_time_without_children_is_duration(self):
        self.assertEqual(metrics.self_times([span("x", 5, 9)]), [4])

    def test_lanes_separate_concurrent_runs(self):
        spans = [span("r0", 0, 10, lane=-1), span("r1", 0, 5, lane=-1),
                 span("r2", 5, 8, lane=-1), span("main", 0, 10)]
        metrics.assign_lanes(spans)
        self.assertEqual([s["lane"] for s in spans], [1, 2, 2, 0])

    def test_concat_spans_rebases_parents_and_times(self):
        first = [span("a", 100, 200), span("a.1", 120, 150, parent=0)]
        second = [span("k", 5, 10), span("k.1", 6, 7, parent=0)]
        joined = metrics.concat_spans([first, [], second])
        self.assertEqual([s["parent"] for s in joined], [-1, 0, -1, 2])
        self.assertEqual([(s["start_ns"], s["end_ns"]) for s in joined],
                         [(0, 100), (20, 50), (100, 105), (101, 102)])
        self.assertEqual(first[1]["parent"], 0)  # inputs untouched

    def test_idle_tail_starts_at_first_finish_after_last_start(self):
        runs = [span("a", 0, 10), span("b", 0, 6), span("c", 6, 9), span("d", 7, 20)]
        self.assertEqual(metrics.idle_tail_ns(runs, 21), 21 - 9)
        self.assertEqual(metrics.idle_tail_ns([], 5), 0)

    def test_chrome_trace_is_complete_events_in_microseconds(self):
        trace = metrics.chrome_trace([span("root", 0, 2000), span("kid", 500, 1500, parent=0)],
                                     {"seed": 1})
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(events[1]["ts"], 0.5)
        self.assertEqual(events[1]["dur"], 1.0)
        self.assertEqual(events[0]["args"]["self_us"], 1.0)
        self.assertEqual(events[1]["args"]["parent_name"], "root")
        json.dumps(trace)


class NamingTest(unittest.TestCase):
    def test_metric_name_charset(self):
        self.assertTrue(metrics.valid_metric_name("sim.ns_per_timer_fire"))
        self.assertTrue(metrics.valid_metric_name("9lives-ok"))
        self.assertFalse(metrics.valid_metric_name(".leading_dot"))
        self.assertFalse(metrics.valid_metric_name("has space"))
        self.assertFalse(metrics.valid_metric_name("a" * 65))
        self.assertTrue(metrics.valid_unit("sim_ms/s"))
        self.assertFalse(metrics.valid_unit("per second"))

    def test_every_metric_is_valid_and_unique(self):
        names = [n for n, _ in metrics.END_TO_END + metrics.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in metrics.END_TO_END + metrics.PER_LAYER:
            self.assertTrue(metrics.valid_metric_name(name), name)
            self.assertTrue(metrics.valid_unit(unit), unit)

    def test_benchmark_json_lists_the_metrics_run_py_prints(self):
        spec = json.loads((Path(__file__).resolve().parent.parent /
                           "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(metrics.PER_LAYER))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), metrics.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
