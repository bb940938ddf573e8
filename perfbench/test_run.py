#!/usr/bin/env python3
"""Tests for the benchmark's own code.

    python3 perfbench/test_run.py

The statistics, span and metric tests are pure Python. PlumbingTest builds
perfbench (like run.py does) and runs every workload once at reduced size.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


class StatisticsTest(unittest.TestCase):
    def test_percentile_interpolates(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(run.percentile(values, 0), 1.0)
        self.assertEqual(run.percentile(values, 50), 2.5)
        self.assertEqual(run.percentile(values, 25), 1.75)
        self.assertEqual(run.percentile(values, 100), 4.0)
        self.assertEqual(run.percentile([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(1))
        self.assertIsNone(run.tail_percentile(39))
        self.assertEqual(run.tail_percentile(40), 75.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(199), 90.0)
        self.assertEqual(run.tail_percentile(200), 95.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_summarize_states_sample_count(self):
        values = [float(v) for v in range(1, 101)]
        summary = run.summarize(values)
        self.assertEqual(summary["samples"], 100)
        self.assertEqual(summary["median"], 50.5)
        self.assertEqual(summary["tail_p"], 90.0)
        self.assertAlmostEqual(summary["tail"], 90.1)
        short = run.summarize([3.0, 1.0, 2.0])
        self.assertEqual((short["samples"], short["median"]), (3, 2.0))
        self.assertIsNone(short["tail"])


def span(id_, parent, name, start, end):
    return {"id": id_, "parent": parent, "name": name, "start": start, "end": end}


class SpanTest(unittest.TestCase):
    SPANS = [
        span(0, -1, "root", 0.0, 10.0),
        span(1, 0, "rep", 1.0, 6.0),
        span(2, 1, "run", 1.5, 3.5),
        span(3, 1, "run", 4.0, 5.0),
        span(4, 0, "probe", 7.0, 9.0),
    ]

    def test_self_time_subtracts_direct_children_only(self):
        own = run.self_times(self.SPANS)
        self.assertAlmostEqual(own[0], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(own[1], 5.0 - 2.0 - 1.0)
        self.assertAlmostEqual(own[2], 2.0)
        self.assertAlmostEqual(own[4], 2.0)
        self.assertAlmostEqual(sum(own.values()), 10.0)

    def test_span_table_aggregates_by_name(self):
        table = run.span_table(self.SPANS)
        self.assertEqual(table["run"]["calls"], 2)
        self.assertAlmostEqual(table["run"]["total_s"], 3.0)
        self.assertAlmostEqual(table["rep"]["self_s"], 2.0)


def timed_run(rep, job, wall, restore=False, ok=True, phase="timed"):
    return {"phase": phase, "rep": rep, "job": job, "label": f"j{job}",
            "ok": ok, "errors": [] if ok else ["x"], "wall_s": wall,
            "restore": restore, "peak_rss_mb": 10.0 + rep,
            "total_local_iterations": 100, "sim_time_to_loss_s": 5.0,
            "final_accuracy": 0.5 + 0.1 * job, "bytes_sent": 1000}


class EndToEndTest(unittest.TestCase):
    def test_metrics_from_raw_report(self):
        raw = {
            "samples": {"setup_s": [0.3, 0.1, 0.2]},
            "runs": [timed_run(0, 0, 9.0, phase="warmup"),
                     timed_run(0, 0, 1.0), timed_run(0, 1, 3.0),
                     timed_run(0, 2, 0.5, restore=True),
                     timed_run(1, 0, 2.0), timed_run(1, 1, 4.0, ok=False),
                     timed_run(1, 2, 0.5, restore=True)],
        }
        values, stats, attempted, failed = run.end_to_end(raw)
        # The warm-up run counts as attempted but is not timed.
        self.assertEqual((attempted, failed), (7, 1))
        # Per repetition: wall per run, and non-restore steps per wall second;
        # the metrics are the fastest repetition's.
        self.assertAlmostEqual(values["run_wall_min_s"], 4.5 / 3)
        self.assertAlmostEqual(values["steps_per_s_max"], 200 / 4.5)
        self.assertAlmostEqual(stats["run_wall_min_s"]["median"], (4.5 / 3 + 6.5 / 3) / 2)
        self.assertEqual(stats["run_wall_min_s"]["samples"], 2)
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertAlmostEqual(values["ok_runs_share"], 6 / 7)
        self.assertEqual(values["peak_rss_mb"], 10.0)
        self.assertAlmostEqual(values["sim_time_to_loss_s"], 10.0)
        self.assertAlmostEqual(values["final_accuracy"], 0.55)
        self.assertEqual(values["wire_bytes"], 2000.0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class PlumbingTest(unittest.TestCase):
    def test_every_workload_runs_and_reports_every_metric(self):
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--plumbing"],
                              cwd=run.ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=900)
        lines = [json.loads(line) for line in proc.stdout.splitlines()
                 if line.startswith("{")]
        self.assertEqual(proc.returncode, 0, lines)
        self.assertEqual(len(lines), 2 * len(run.WORKLOADS))
        for line in lines:
            expected = spec["per_layer"] if line["trace"] else spec["end_to_end"]
            self.assertTrue(line["correct"], line["failures"])
            self.assertEqual(set(line["metrics"]), {m["name"] for m in expected})
            self.assertTrue(all(m["value"] is None for m in line["metrics"].values()))


if __name__ == "__main__":
    unittest.main()
