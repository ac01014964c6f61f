#!/usr/bin/env python3
"""Pins every bound check_baseline.py enforces.

Each case perturbs a committed baseline in memory, writes it to a scratch
file and runs the checker on it, so the inputs always track the committed
bench/baselines/BENCH_{hotpath,fleet,whatif}.json.

Usage:
    python3 scripts/test_check_baseline.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(HERE, "check_baseline.py")
BASELINES = os.path.join(HERE, os.pardir, "bench", "baselines")
KINDS = ("hotpath", "fleet", "whatif")


def load(kind):
    with open(os.path.join(BASELINES, f"BENCH_{kind}.json")) as f:
        return json.load(f)


def nudge(kind, bench, factor):
    """Scale one gated, clearly non-zero figure of `bench` by `factor`."""
    if kind == "hotpath":
        bench["policies"][0]["jain"] *= factor
    elif kind == "fleet":
        bench["policies"][0]["admission"]["worst_slowdown_p99"] *= factor
    else:
        key = next(k for k, v in sorted(bench["whatif"].items())
                   if abs(v) > 1e-3)
        bench["whatif"][key] *= factor


class CheckerCase(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def run_checker(self, fresh, kind):
        path = os.path.join(self.tmp.name, "fresh.json")
        with open(path, "w") as f:
            json.dump(fresh, f)
        base = os.path.join(BASELINES, f"BENCH_{kind}.json")
        return subprocess.run([sys.executable, CHECKER, path, base],
                              capture_output=True, text=True)

    def assert_passes(self, fresh, kind):
        r = self.run_checker(fresh, kind)
        self.assertEqual(r.returncode, 0, r.stderr)
        return r.stdout

    def assert_fails(self, fresh, kind, needle):
        r = self.run_checker(fresh, kind)
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn(needle, r.stderr)


class CheckBaselineTest(CheckerCase):
    def test_each_baseline_passes_against_itself(self):
        counts = {"hotpath": 24, "fleet": 84, "whatif": 40}
        for kind in KINDS:
            with self.subTest(kind=kind):
                out = self.assert_passes(load(kind), kind)
                self.assertIn(f"{counts[kind]} keys within 0.5%", out)

    def test_drift_bound_is_half_a_percent(self):
        for kind in KINDS:
            with self.subTest(kind=kind):
                inside = load(kind)
                nudge(kind, inside, 1.004)
                self.assert_passes(inside, kind)
                outside = load(kind)
                nudge(kind, outside, 1.006)
                self.assert_fails(outside, kind, "drift beyond 0.5%")

    def test_changed_seed_fails(self):
        for kind in KINDS:
            with self.subTest(kind=kind):
                bench = load(kind)
                bench["seed"] += 1
                self.assert_fails(bench, kind, "seed differs")

    def test_dropped_policy_fails(self):
        for kind in ("hotpath", "fleet"):
            with self.subTest(kind=kind):
                bench = load(kind)
                bench["policies"].pop()
                self.assert_fails(bench, kind, "FAILED")

    def test_changed_fleet_window_count_fails(self):
        bench = load("fleet")
        bench["policies"][0]["windows"] += 1
        self.assert_fails(bench, "fleet", "window counts changed")

    def test_changed_top_knob_fails(self):
        bench = load("whatif")
        bench["top_knob"][0]["knob"] = "copy"
        self.assert_fails(bench, "whatif", "top-knob ranking changed")


class TelemetryGateTest(CheckerCase):
    # Budget is the hotpath baseline's 5% plus 5 ms of absolute slack.
    REPORT = {
        "telemetry_off_ms": 1000.0,
        "telemetry_on_ms": 1054.0,
        "overhead": 0.054,
        "identical_fairness": True,
    }

    def test_within_budget_passes(self):
        out = self.assert_passes(self.REPORT, "hotpath")
        self.assertIn("telemetry overhead ok", out)

    def test_over_budget_fails(self):
        report = dict(self.REPORT, telemetry_on_ms=1056.0, overhead=0.056)
        self.assert_fails(report, "hotpath", "exceeds the 5% budget")

    def test_changed_fairness_fails(self):
        report = dict(self.REPORT, identical_fairness=False)
        self.assert_fails(report, "hotpath", "changed the fairness artefacts")


if __name__ == "__main__":
    unittest.main()
