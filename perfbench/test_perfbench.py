#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the root of the repository:

    python3 perfbench/test_perfbench.py

They build the benchmark binary if needed, then check that the metric
names agree with BENCHMARK.json, that the outcome check rejects a
perturbed outcome, that plain, sliced and traced runs of one seed
agree on the trace digest and on every exact work count, that the setup
mode times set-ups only, and that a run outlasting the budget raises.
"""

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# Short horizons keep each run under a second or two.
SHORT_HORIZON_S = {"social": 1.0, "incast": 1.0, "stampede_disk": 2.0,
                   "power_diurnal": 4.0}


def run_binary(workload, seed, mode, *extra):
    proc = subprocess.run(
        [str(run.BINARY), "--workload", workload, "--seed", str(seed),
         "--mode", mode, *extra],
        capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.pins = json.loads(run.PINS.read_text())

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        for workload in run.WORKLOADS:
            self.assertEqual(
                sorted(self.pins["workloads"][workload]),
                sorted(str(s) for s in run.input_seeds(
                    workload, self.pins["default_seed"])))

    def test_outcome_check_rejects_other_seed(self):
        workload = "stampede_disk"
        pinned_seed, other_seed = run.input_seeds(
            workload, self.pins["default_seed"])[:2]
        pinned = self.pins["workloads"][workload][str(pinned_seed)]
        checker = run.Checker(pinned)
        self.assertEqual(
            checker.check(run_binary(workload, pinned_seed, "plain")), [])
        other = run_binary(workload, other_seed, "plain")
        self.assertNotEqual(
            run.outcome_mismatches(other["outcome"], pinned,
                                   run.LATENCY_TOLERANCE_MS), [])
        self.assertNotEqual(run.Checker(pinned).check(other), [])

    def test_outcome_check_latency_tolerance_is_one_ns(self):
        pinned = next(iter(self.pins["workloads"]["social"].values()))
        within = copy.deepcopy(pinned)
        within["tiers"]["post_mongo"]["p99_ms"] += 0.5e-6
        self.assertEqual(
            run.outcome_mismatches(within, pinned,
                                   run.LATENCY_TOLERANCE_MS), [])
        beyond = copy.deepcopy(pinned)
        beyond["end_to_end"]["mean_ms"] += 2e-6
        self.assertEqual(
            len(run.outcome_mismatches(beyond, pinned,
                                       run.LATENCY_TOLERANCE_MS)), 1)
        folded = copy.deepcopy(pinned)
        folded["completion_fold"] = "0" * 16
        self.assertEqual(
            len(run.outcome_mismatches(folded, pinned,
                                       run.LATENCY_TOLERANCE_MS)), 1)

    def test_plain_sliced_traced_runs_agree(self):
        for workload, horizon in SHORT_HORIZON_S.items():
            with self.subTest(workload=workload):
                checker = run.Checker()
                results = [run_binary(workload, 5, mode, "--horizon",
                                      str(horizon))
                           for mode in ("plain", "sliced", "traced")]
                for result in results:
                    self.assertEqual(checker.check(result), [])
                traced = results[2]
                self.assertEqual(
                    sum(layer["events"]
                        for layer in traced["layers"].values()),
                    traced["engine_events"])

    def test_setup_mode_times_set_ups_only(self):
        result = run_binary("stampede_disk", 5, "setup")
        self.assertGreater(len(result["setup_s"]), 1)
        self.assertTrue(all(s > 0 for s in result["setup_s"]))
        self.assertNotIn("outcome", result)

    def test_run_stopped_by_deadline_raises(self):
        with self.assertRaises(run.DeadlineExceeded):
            run.run_op("power_diurnal", 5, "plain", 0.05)

    def test_checker_rejects_digest_mismatch(self):
        result = run_binary("social", 5, "plain", "--horizon", "1.0")
        checker = run.Checker()
        self.assertEqual(checker.check(result), [])
        other = copy.deepcopy(result)
        other["digest"] = "0" * 16
        self.assertEqual(len(checker.check(other)), 1)


if __name__ == "__main__":
    unittest.main()
