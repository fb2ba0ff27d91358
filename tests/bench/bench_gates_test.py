#!/usr/bin/env python3
"""Tests for scripts/bench_gates.py against bench/gates.json: synthetic
reports carrying the smoke shard's values pass; each row kind (path,
wildcard min/max, ratio) fails once its value crosses the bound; a missing
report, curve or metric fails; a table row with an unknown key is rejected.

Stdlib-only (unittest + subprocess), no build needed; registered as the
`bench_gates` ctest (label: bench). Run standalone with:
  python3 tests/bench/bench_gates_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
GATES = os.path.join(REPO, "scripts", "bench_gates.py")
sys.path.insert(0, os.path.dirname(GATES))
import bench_gates  # noqa: E402

# net.delivery_delay_ns (p95, p99) per report, as the smoke shard measures them.
DELIVERY = {
    "e10_recovery": (77823, 79992),
    "e11_offered_load": (77823, 80000),
    "e12_sharded_bank": (77823, 80000),
    "e1_group_size_scaling": (196607, 199979),
    "e5_early_vote": (77823, 79987),
    "e7_it_overhead": (77823, 79984),
    "e8_nested_invocations": (77823, 79688),
    "e9_large_messages": (77823, 79942),
    "fig1_end_to_end": (77823, 79986),
    "fig2_stack_breakdown": (196607, 199817),
    "fig3_connection_establishment": (77823, 79992),
}


def point(rate, p99_ns=0, goodput=0.0):
    return {"rate_per_s": float(rate), "p99_ns": p99_ns, "goodput_per_s": goodput}


def parent_reports():
    """Report name -> the fields the gates read, at the smoke shard's values."""
    reports = {name: {"histograms": {"net.delivery_delay_ns": {
        "p95": p95, "p99": p99}}} for name, (p95, p99) in DELIVERY.items()}
    reports["e10_recovery"]["histograms"]["recovery.mttr_ns"] = {"max": 10_000_000}
    reports["e9_large_messages"]["counters"] = {"buf.copies": 26, "e9.ops": 5}
    reports["e11_offered_load"]["curves"] = {
        "attack_controller_off": [point(800, 2031615), point(1600, 120563364)],
        "attack_controller_on": [point(800, 2228223), point(1600, 2359295)],
    }
    reports["e12_sharded_bank"]["curves"] = {
        f"shards_{n}": [point(1600, 557055, 1580.0), point(6400, 524287, good)]
        for n, good in ((1, 816.0), (2, 6268.0), (4, 6268.0))
    }
    reports["e1_group_size_scaling"]["curves"] = {
        f"batch_{n}": [point(depth, 0, good) for depth, good in zip((1, 4, 16), goods)]
        for n, goods in ((1, (6645.762, 24982.738, 1989.185)),
                         (4, (5627.053, 23845.052, 89319.109)),
                         (8, (5530.665, 22220.426, 85540.211)))
    }
    return reports


def run_gates(reports):
    """Writes `reports` as BENCH_<name>.json and returns (exit code, stdout)."""
    with tempfile.TemporaryDirectory() as work:
        for name, report in reports.items():
            with open(os.path.join(work, f"BENCH_{name}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(report, fh)
        proc = subprocess.run([sys.executable, GATES], cwd=work,
                              capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


class BenchGates(unittest.TestCase):

    def assert_fails(self, reports, needle):
        code, out = run_gates(reports)
        self.assertEqual(code, 1, out)
        failing = [line for line in out.splitlines() if line.startswith("FAIL")]
        self.assertEqual(len(failing), 1, out)
        self.assertIn(needle, failing[0])

    def test_parent_values_pass(self):
        code, out = run_gates(parent_reports())
        self.assertEqual(code, 0, out)
        rows = bench_gates.load_gates()
        self.assertIn(f"{len(rows)}/{len(rows)} rows ok", out)
        self.assertEqual(len(rows), 6 + 2 * len(DELIVERY))

    def test_path_row_fails_past_its_bound(self):
        reports = parent_reports()
        mttr = reports["e10_recovery"]["histograms"]["recovery.mttr_ns"]
        mttr["max"] = 6_200_000_000
        self.assertEqual(run_gates(reports)[0], 0)
        mttr["max"] = 6_200_000_001
        self.assert_fails(reports, "recovery.mttr_ns/max")
        reports = parent_reports()
        reports["fig2_stack_breakdown"]["histograms"]["net.delivery_delay_ns"]["p99"] = 249772
        self.assert_fails(reports, "fig2_stack_breakdown")

    def test_wildcard_min_fails_only_when_every_curve_crosses(self):
        reports = parent_reports()
        curves = reports["e11_offered_load"]["curves"]
        # The controller-off curve is already past the ceiling at 1600 req/s.
        curves["attack_controller_on"][1]["p99_ns"] = 50_000_000
        self.assertEqual(run_gates(reports)[0], 0)
        curves["attack_controller_on"][1]["p99_ns"] = 50_000_001
        self.assert_fails(reports, "e11_offered_load curves/*/rate_per_s=1600")

    def test_wildcard_max_ratio_fails_when_best_batch_drops(self):
        reports = parent_reports()
        baseline = reports["e1_group_size_scaling"]["curves"]["batch_1"][0]
        for name in ("batch_4", "batch_8"):
            for entry in reports["e1_group_size_scaling"]["curves"][name]:
                entry["goodput_per_s"] = 2 * baseline["goodput_per_s"] - 1
        # batch_1 itself is not a candidate, however fast it runs.
        reports["e1_group_size_scaling"]["curves"]["batch_1"][1]["goodput_per_s"] = 1e9
        self.assert_fails(reports, "batch_4|batch_8")

    def test_ratio_rows_fail_past_their_bounds(self):
        reports = parent_reports()
        # Over 5 ops, 32 copies (6.4) is the most the 6.5 ceiling admits.
        reports["e9_large_messages"]["counters"]["buf.copies"] = 32
        self.assertEqual(run_gates(reports)[0], 0)
        reports["e9_large_messages"]["counters"]["buf.copies"] = 33
        self.assert_fails(reports, "counters/buf.copies / counters/e9.ops")
        reports = parent_reports()
        reports["e12_sharded_bank"]["curves"]["shards_4"][1]["goodput_per_s"] = 1631.0
        self.assert_fails(reports, "shards_4")

    def test_missing_report_curve_or_metric_fails(self):
        reports = parent_reports()
        del reports["e9_large_messages"]
        code, out = run_gates(reports)
        self.assertEqual(code, 1, out)
        self.assertEqual(out.count("FAIL e9_large_messages"), 3, out)
        for mutate, needle in (
                (lambda r: r["e12_sharded_bank"]["curves"].pop("shards_4"),
                 "shards_4"),
                (lambda r: r["e1_group_size_scaling"]["curves"].pop("batch_8"),
                 "batch_4|batch_8"),
                (lambda r: r["e11_offered_load"]["curves"]["attack_controller_on"].pop(1),
                 "e11_offered_load curves/*/rate_per_s=1600"),
                (lambda r: r["e10_recovery"]["histograms"].pop("recovery.mttr_ns"),
                 "recovery.mttr_ns"),
                (lambda r: r["e9_large_messages"]["counters"].pop("e9.ops"),
                 "e9.ops")):
            reports = parent_reports()
            mutate(reports)
            self.assert_fails(reports, needle)

    def test_malformed_rows_are_rejected(self):
        good = {"report": "e10_recovery", "path": "histograms/recovery.mttr_ns/max",
                "max": 1, "why": "test"}
        bad_rows = [dict(good, tolerance=0.25), {**good, "min": 0},
                    {k: v for k, v in good.items() if k != "why"},
                    dict(good, reduce="mean")]
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "gates.json")
            for row in [good] + bad_rows:
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump([row], fh)
                if row is good:
                    self.assertEqual(bench_gates.load_gates(path), [good])
                    continue
                with self.assertRaises(bench_gates.GateError, msg=row):
                    bench_gates.load_gates(path)

    def test_arguments_are_refused(self):
        proc = subprocess.run([sys.executable, GATES, "--strict"],
                              capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
