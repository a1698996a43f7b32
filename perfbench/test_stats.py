"""Tests of perfbench's own arithmetic, on synthetic inputs.

Run from the repository root:

    python3 perfbench/test_stats.py
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


class Percentile(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        xs = list(range(1, 101))  # 100 samples
        self.assertEqual(stats.percentile(xs, 90), 90)  # 10 beyond
        self.assertIsNone(stats.percentile(xs, 91))     # 9 beyond
        self.assertIsNone(stats.percentile(xs, 99))
        self.assertEqual(stats.percentile(list(range(1, 1001)), 99), 990)

    def test_median_and_empty(self):
        self.assertEqual(stats.percentile(list(range(1, 22)), 50), 11)
        self.assertIsNone(stats.percentile([], 50))
        self.assertIsNone(stats.percentile([1.0] * 10, 50))  # 5 beyond

    def test_highest_supported_falls_back(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.highest_supported(xs), (90, 90))
        self.assertEqual(stats.highest_supported([3, 1, 2]), (100, 3))

    def test_failures_count_as_infinite_latency(self):
        phase = {"latency_ms": [1.0] * 95 + [2.0] * 5 + [None] * 11,
                 "status": [0] * 100 + [3] * 11}
        lat = stats.phase_latencies(phase)
        self.assertEqual(sum(math.isinf(x) for x in lat), 11)
        self.assertTrue(math.isinf(max(lat)))


class FailShare(unittest.TestCase):
    def test_share_of_attempts(self):
        self.assertEqual(stats.fail_share(200, 0), 0.0)
        self.assertEqual(stats.fail_share(200, 3), 0.015)
        self.assertEqual(stats.fail_share(1, 1), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.fail_share(0, 0)
        with self.assertRaises(ValueError):
            stats.fail_share(5, 6)

    def test_goodput_excludes_failures(self):
        # 100 requests at 100/s; 10 shed: 90 good over the 1 s schedule.
        phase = {"rate": 100.0, "duration_s": 1.0,
                 "latency_ms": [5.0] * 100, "status": [0] * 90 + [1] * 10}
        self.assertAlmostEqual(stats.goodput(phase), 90.0)

    def test_goodput_spans_until_the_last_reply(self):
        phase = {"rate": 100.0, "duration_s": 1.0,
                 "latency_ms": [5.0] * 99 + [1010.0], "status": [0] * 100}
        self.assertAlmostEqual(stats.goodput(phase), 100 / 2.0)


class ParallelEfficiency(unittest.TestCase):
    def test_busy_over_capacity(self):
        self.assertEqual(stats.parallel_efficiency(4000, 1000, 4), 1.0)
        self.assertEqual(stats.parallel_efficiency(3000, 1000, 4), 0.75)
        self.assertEqual(stats.parallel_efficiency(1000, 1000, 1), 1.0)

    def test_rejects_empty_capacity(self):
        with self.assertRaises(ValueError):
            stats.parallel_efficiency(1, 0, 4)
        with self.assertRaises(ValueError):
            stats.parallel_efficiency(1, 1, 0)


def span(i, parent, name, start, end):
    return {"id": i, "parent": parent, "name": name, "key": 0,
            "start_ns": start * 1_000_000, "end_ns": end * 1_000_000}


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [span(1, 0, "sweep", 0, 100),
                 span(2, 1, "cell", 10, 40),
                 span(3, 1, "cell", 50, 60),
                 span(4, 2, "build", 10, 15)]
        st = stats.self_times(spans)
        self.assertAlmostEqual(st["sweep"]["self_ms"], 60.0)
        self.assertAlmostEqual(st["cell"]["self_ms"], 35.0)
        self.assertAlmostEqual(st["cell"]["total_ms"], 40.0)
        self.assertEqual(st["cell"]["count"], 2)
        self.assertAlmostEqual(st["build"]["self_ms"], 5.0)

    def test_overlapping_children_count_once(self):
        # Parallel cells under one sweep: their union, not their sum.
        spans = [span(1, 0, "sweep", 0, 100),
                 span(2, 1, "cell", 0, 80),
                 span(3, 1, "cell", 20, 90),
                 span(4, 1, "cell", 120, 130)]  # outside: clipped away
        self.assertAlmostEqual(stats.self_times(spans)["sweep"]["self_ms"],
                               10.0)

    def test_columns_round_trip(self):
        cols = {"name": ["a", "b"], "id": [1, 2], "parent": [0, 1],
                "key": [7, 8], "start_ns": [0, 5], "end_ns": [10, 6]}
        spans = stats.spans_from_columns(cols)
        self.assertEqual(spans[1], {"name": "b", "id": 2, "parent": 1,
                                    "key": 8, "start_ns": 5, "end_ns": 6})


class Ladder(unittest.TestCase):
    def phase(self, rate, lat):
        return {"rate": rate, "duration_s": len(lat) / rate,
                "latency_ms": lat, "status": [0] * len(lat),
                "lateness_ms": [0.01] * len(lat)}

    def test_highest_rung_within_limit(self):
        ladder = [self.phase(10, [1.0] * 200), self.phase(20, [1.5] * 200),
                  self.phase(30, [9.0] * 200), self.phase(40, [1.0] * 200)]
        # Climbing stops at the first rung over the limit.
        self.assertEqual(stats.max_rps_slo(ladder, 99, 2.0), 20)

    def test_growing_backlog_fails_a_rung(self):
        growing = [0.1 * i / 200 for i in range(200)]  # 0 -> 0.1 ms
        steady = self.phase(10, [0.05] * 200)
        self.assertTrue(stats.backlog_grows(self.phase(20, growing), 0.2))
        self.assertEqual(stats.max_rps_slo(
            [steady, self.phase(20, growing)], 99, 0.2), 10)


def synthetic_raw(family):
    counts = {"events": 1000, "instructions": 5e6, "l1_hits": 10,
              "l2_hits": 20, "l3_hits": 30, "dram_loads": 40,
              "store_bursts": 5, "epochs": 7, "collections": 2,
              "gc_ticks": 10, "sim_ticks": 100}
    raw = {"family": family, "width": 4, "setup_s": [0.5, 0.4, 0.6],
           "depburst_err_pct": [2.0, 4.0], "peak_rss_mb": 100.0,
           "attempted": 10, "failed": 0, "counts": counts,
           "unit_costs": {"sim.event_ns": 1.0, "uarch.cache_load_ns": 2.0,
                          "uarch.dram_access_ns": 3.0,
                          "pred.predict_us": 1.0},
           "trace_phase": {"image_bytes": 2e6, "encode_s": 0.01,
                           "decode_s": 0.005, "replay_s": 0.001,
                           "replay_cells": 10}}
    ok = {"latency_ms": [1.0] * 200, "lateness_ms": [0.01] * 200,
          "status": [0] * 200, "kind": [0, 1, 2, 3, 4] * 40}
    if family == "sim":
        raw.update({"sweep_cells": 4, "sweep_wall_s": [1.0, 1.1, 0.9],
                    "sweep_busy_ms": [3600, 3700, 3500],
                    "sweep_fixed_busy_ms": [3000, 3100, 2900],
                    "sweep_traced": [0, 1, 0],
                    "cell_ms": [900.0] * 12,
                    "cell_done_ms": [float(i) for i in range(1, 121)],
                    "sampling_err_pct": [1.0],
                    "serve_inproc": {
                        "cache_hits": 9, "cache_misses": 0,
                        "replay": {"encode_us": [1.0], "decode_us": [1.0],
                                   "handle_us": [1.0, 2.0, 3.0, 4.0, 5.0],
                                   "kind": [0, 1, 2, 3, 4]}}})
    else:
        raw.update({"limit_ms": 2.0,
                    "phases": [dict(ok, name=n, rate=100.0, duration_s=2.0)
                               for n in ("low", "high", "high_traced")],
                    "ladder": [dict(ok, name="ladder", rate=100.0,
                                    duration_s=2.0)],
                    "server": {"requests": 600, "cache_hits": 500,
                               "cache_misses": 0, "evictions": 3,
                               "shed": 0, "batches": 300, "max_batch": 4},
                    "replay": {"encode_us": [1.0], "decode_us": [1.0],
                               "handle_us": [1.0, 2.0, 3.0, 4.0, 5.0],
                               "kind": [0, 1, 2, 3, 4]}})
    return raw


class MetricsMatchBenchmarkJson(unittest.TestCase):
    """Every metric BENCHMARK.json names is printed, with its unit."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check(self, produced, declared, extra=None):
        self.assertEqual(stats.metric_mismatches(produced, declared,
                                                 exact=extra is None), {})
        self.assertEqual(sorted(produced), sorted(
            [m["name"] for m in declared] + list(extra or {})))
        for name, (value, unit) in produced.items():
            self.assertTrue(math.isfinite(value), name)
            if extra and name in extra:
                self.assertEqual(unit, extra[name], name)

    def test_end_to_end(self):
        for family in ("sim", "serve"):
            produced = stats.end_to_end(synthetic_raw(family))
            self.check(produced, self.bench["end_to_end"])
            for name, (value, _) in produced.items():
                self.assertNotEqual(value, 0, (family, name))

    def test_latency_log(self):
        lat = stats.latency(synthetic_raw("sim"))
        self.assertEqual(lat["samples"], 120)
        self.assertEqual(lat["p50_ms"], 60.0)
        self.assertNotIn("p99_ms", lat)  # 1 sample beyond it
        served = stats.latency(synthetic_raw("serve"))  # 200 samples
        self.assertEqual(served["p90_ms"], 1.0)
        self.assertNotIn("p99_ms", served)

    def test_per_layer(self):
        spans = [span(1, 0, "sweepMap", 0, 100), span(2, 1, "runFixed", 0, 90),
                 span(3, 0, "buildBenchmark", 0, 1)]
        self.check(stats.per_layer(synthetic_raw("sim"), spans),
                   self.bench["per_layer"])
        # The unlisted serve-* workloads also print the socket loop's and
        # the loader's metrics.
        self.check(stats.per_layer(synthetic_raw("serve"), spans),
                   self.bench["per_layer"], extra=stats.SERVE_ONLY_UNITS)

    def test_count_ratios_use_fixed_cells_time(self):
        # Counts come from the fixed cells only; untraced sweep 2 has
        # 2900 ms of fixed-cell time out of 3500 ms busy.
        m = stats.per_layer(synthetic_raw("sim"),
                            [span(3, 0, "buildBenchmark", 0, 1)])
        self.assertAlmostEqual(m["sim.ns_per_event"][0], 2900e6 / 1000)
        self.assertAlmostEqual(m["sim.mips"][0], 5e6 / 2.9 / 1e6)
        self.assertAlmostEqual(m["sweep.parallel_eff"][0], 3500 / (900 * 4))

    def test_mismatches(self):
        declared = [{"name": "a", "unit": "ms"}, {"name": "b", "unit": "s"}]
        printed = {"a": (1.0, "ms"), "b": (2.0, "ms"), "c": (3.0, "%")}
        self.assertEqual(stats.metric_mismatches(printed, declared, False),
                         {"b": ("s", "ms")})
        self.assertEqual(stats.metric_mismatches(printed, declared, True),
                         {"b": ("s", "ms"), "c": (None, "%")})
        self.assertEqual(stats.metric_mismatches({}, declared, False),
                         {"a": ("ms", None), "b": ("s", None)})

    def test_workloads_are_the_runner_s(self):
        import run
        for w in self.bench["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
