#!/usr/bin/env python3
"""Tests for the benchmark's own derivations (no build needed):

    python3 perfbench/test_run.py
"""

import json
import unittest
from pathlib import Path

import run

FP = [["files_produced", "300"], ["makespan", "19241.25"], ["mean_lag", "7240.05"]]


def traced_record(**over):
    rec = {
        "wall_s": 2.0,
        "traced_wall_s": 3.0,
        "counts": {"events_executed": 100, "events_scheduled": 400, "events_cancelled": 300,
                   "flows_done": 8, "flows_not_done": 2, "analysis_jobs": 4, "windows": 50,
                   "lookups_succeeded": 90, "lookups_failed": 10},
        "times": {"queue_s": 0.75, "serial_wall_s": 0.5, "unobserved_wall_s": 1.6},
        "lp_events": [10, 30, 20, 40],
        "fingerprint": FP,
        "checks": [],
    }
    rec.update(over)
    return rec


class RatioBases(unittest.TestCase):
    def setUp(self):
        self.m = run.derive_layers(traced_record())

    def test_core_ratios(self):
        self.assertEqual(self.m["core.cancel_per_executed"], 3.0)    # cancelled / executed
        self.assertEqual(self.m["core.queue_share"], 0.25)           # queue_s / traced wall
        self.assertEqual(self.m["core.ns_per_event"], 2.0e7)         # untraced wall / executed

    def test_layer_ratios(self):
        self.assertEqual(self.m["net.flow.events_per_flow"], 50.0)   # scheduled / completed
        self.assertEqual(self.m["sim.monarc.events_per_job"], 25.0)  # executed / analysis jobs
        self.assertEqual(self.m["core.parallel.events_per_window"], 2.0)
        self.assertEqual(self.m["core.parallel.us_per_window"], 4.0e4)
        self.assertEqual(self.m["core.parallel.lp_imbalance"], 1.6)  # max / mean LP events
        self.assertEqual(self.m["p2p.lookup_fail_ratio"], 0.1)       # failed / resolved

    def test_overhead_and_speedup_bases(self):
        self.assertEqual(self.m["core.parallel.speedup_vs_serial"], 0.25)  # serial / parallel
        self.assertEqual(self.m["obs.overhead_ratio"], 1.25)   # observed / unobserved
        self.assertEqual(self.m["trace.overhead_ratio"], 1.5)  # traced / untraced

    def test_unexercised_layers_read_zero(self):
        m = run.derive_layers({"wall_s": 1.0, "traced_wall_s": 1.0})
        self.assertEqual(m["net.flow.events_per_flow"], 0.0)
        self.assertEqual(m["core.parallel.speedup_vs_serial"], 0.0)
        self.assertEqual(m["obs.overhead_ratio"], 0.0)
        self.assertEqual(m["core.parallel.lp_imbalance"], 0.0)

    def test_every_metric_is_derived(self):
        self.assertEqual(set(self.m), set(run.PER_LAYER))
        ref = run.CALIBRATION_REF_S
        rec = {"wall_s": 1.0, "setup_s": [0.3, 0.1, 0.2], "peak_rss_mb": 5.0, "calib_s": [ref, ref]}
        e2e = run.derive_end_to_end(rec)
        self.assertEqual(set(e2e), set(run.END_TO_END))
        self.assertEqual(e2e["setup_s"], 0.2)  # median set-up call

    def test_times_are_rescaled_to_the_reference_host_speed(self):
        ref = run.CALIBRATION_REF_S
        # The kernel ran at half the reference speed around this run (mean of
        # the before/after samples), so the run counts as half as long.
        rec = {"wall_s": 1.0, "setup_s": [0.4], "peak_rss_mb": 5.0, "calib_s": [1.5 * ref, 2.5 * ref]}
        e2e = run.derive_end_to_end(rec)
        self.assertAlmostEqual(e2e["wall_s"], 0.5)
        self.assertAlmostEqual(e2e["setup_s"], 0.2)
        self.assertEqual(e2e["peak_rss_mb"], 5.0)  # memory is not rescaled


class Fingerprints(unittest.TestCase):
    def test_match_passes(self):
        self.assertIsNone(run.judge(traced_record(), FP))

    def test_mismatch_fails_and_names_first_field(self):
        got = [FP[0], ["makespan", "19241.5"], ["mean_lag", "1"]]
        why = run.judge(traced_record(fingerprint=got), FP)
        self.assertIn("fingerprint mismatch", why)
        self.assertIn("makespan", why)
        self.assertNotIn("mean_lag", why)

    def test_missing_field_fails(self):
        self.assertIn("mean_lag", run.first_difference(FP[:2], FP))

    def test_unrecorded_seed_passes(self):
        self.assertIsNone(run.judge(traced_record(fingerprint=[["x", "1"]]), None))

    def test_failed_check_fails(self):
        rec = traced_record(checks=[{"name": "parallel == serial", "ok": False, "detail": "a vs b"}])
        self.assertIn("parallel == serial", run.judge(rec, None))

    def test_hash_is_stable_and_field_sensitive(self):
        self.assertEqual(run.fingerprint_hash(FP), run.fingerprint_hash([list(f) for f in FP]))
        self.assertNotEqual(run.fingerprint_hash(FP), run.fingerprint_hash(FP[:2]))


class Summary(unittest.TestCase):
    def test_failed_runs_are_counted_and_excluded(self):
        ref = [run.CALIBRATION_REF_S] * 2
        ok = {"wall_s": 1.0, "setup_s": [0.1], "peak_rss_mb": 10.0, "calib_s": ref}
        slow = {"wall_s": 9.0, "setup_s": [0.9], "peak_rss_mb": 90.0, "calib_s": ref}
        res = run.summarize([(dict(ok, wall_s=3.0), None), (ok, None),
                             (slow, "fingerprint mismatch"), (None, "timed out")], traced=False)
        self.assertEqual((res["attempted"], res["failed"], res["correct"]), (4, 2, False))
        self.assertEqual(res["metrics"]["wall_s"], {"value": 2.0, "unit": "s"})  # median

    def test_all_good_is_correct(self):
        res = run.summarize([(traced_record(), None)], traced=True)
        self.assertTrue(res["correct"])
        self.assertEqual(set(res["metrics"]), set(run.PER_LAYER))

    def test_no_successful_run_is_not_correct(self):
        res = run.summarize([(None, "exit code 1")], traced=False)
        self.assertFalse(res["correct"])
        self.assertEqual(res["metrics"], {})


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        spec = json.loads((Path(run.REPO) / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
