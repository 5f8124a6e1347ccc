#!/usr/bin/env python3
"""Unit tests for tools/zero_counter_gate.py on small report fixtures.

    python3 tools/test_zero_counter_gate.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import zero_counter_gate  # noqa: E402


def report(counters=None, series=None):
    """One meshnet-bench-v1 report with one point."""
    doc = {"points": [{"id": "arm", "counters": counters or {}}]}
    if series is not None:
        doc["metrics"] = {"series": series}
    return doc


def counter(value):
    return {"kind": "counter", "value": value}


def gate(reports, listed):
    seen = zero_counter_gate.collect(reports)
    return zero_counter_gate.gate(seen, listed)


class Collect(unittest.TestCase):
    def test_series_labels_are_stripped_and_gauges_ignored(self):
        seen = zero_counter_gate.collect({"A": report(series={
            "shed_total{class=ls}": counter(0),
            "shed_total{class=li}": counter(4),
            "depth_peak{service=a}": {"kind": "gauge", "value": 0},
        })})
        self.assertEqual(sorted(seen), ["shed_total"])
        self.assertEqual(sorted(v for _, _, v in seen["shed_total"]), [0, 4])


class Gate(unittest.TestCase):
    def test_passes_when_every_zero_counter_is_listed(self):
        reports = {"A": report({"nacks": 0, "pushes": 3}),
                   "B": report({"nacks": 0})}
        self.assertEqual(gate(reports, {"nacks": ("witness", "x")}), [])

    def test_unlisted_zero_counter_fails(self):
        failures = gate({"A": report({"denied": 0})}, {})
        self.assertEqual(len(failures), 1)
        self.assertIn("0 in every baseline: denied (A)", failures[0])

    def test_counter_non_zero_in_one_report_needs_no_entry(self):
        reports = {"A": report({"retries": 0}), "B": report({"retries": 2})}
        self.assertEqual(gate(reports, {}), [])

    def test_series_counter_zero_everywhere_fails(self):
        failures = gate({"A": report(series={
            "limit_decrease_total{service=a}": counter(0),
            "limit_decrease_total{service=b}": counter(0)})}, {})
        self.assertEqual(len(failures), 1)
        self.assertIn("limit_decrease_total", failures[0])

    def test_witness_that_fires_fails(self):
        reports = {"A": report({"nacks": 0}), "B": report({"nacks": 1})}
        failures = gate(reports, {"nacks": ("witness", "x")})
        self.assertEqual(len(failures), 1)
        self.assertIn("witness fired: nacks = 1 in B", failures[0])

    def test_idle_counter_that_acts_is_stale(self):
        failures = gate({"A": report({"evictions": 5})},
                        {"evictions": ("idle", "memory bound")})
        self.assertEqual(len(failures), 1)
        self.assertIn("entry is stale: evictions = 5", failures[0])

    def test_listed_counter_gone_from_every_report_fails(self):
        failures = gate({"A": report({"pushes": 1})},
                        {"flap_damps": ("idle", "x")})
        self.assertEqual(failures,
                         ["listed counter no longer in any baseline: "
                          "flap_damps"])


class ReadList(unittest.TestCase):
    def write(self, text):
        f = tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False)
        f.write(text)
        f.close()
        self.addCleanup(os.unlink, f.name)
        return f.name

    def test_parses_both_kinds_and_skips_comments(self):
        path = self.write("# header\n\nnacks  witness: refused pushes\n"
                          "evictions  idle: memory bound\n")
        self.assertEqual(zero_counter_gate.read_list(path),
                         {"nacks": ("witness", "refused pushes"),
                          "evictions": ("idle", "memory bound")})

    def test_rejects_unknown_kind_or_missing_reason(self):
        for line in ("nacks  broken: x\n", "nacks  witness:\n",
                     "nacks  idle\n", "nacks\n"):
            with self.subTest(line=line):
                with self.assertRaises(SystemExit):
                    zero_counter_gate.read_list(self.write(line))

    def test_rejects_duplicate_names(self):
        path = self.write("nacks  witness: a\nnacks  idle: b\n")
        with self.assertRaises(SystemExit):
            zero_counter_gate.read_list(path)


class Main(unittest.TestCase):
    def test_exit_code_follows_the_gate(self):
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "BENCH_a.json"), "w") as f:
                json.dump(report({"nacks": 0, "pushes": 2}), f)
            listing = os.path.join(tmp, "zero.txt")
            with open(listing, "w") as f:
                f.write("nacks  witness: refused pushes\n")
            argv = [f"--baselines={tmp}", f"--list={listing}"]
            self.assertEqual(zero_counter_gate.main(argv), 0)
            with open(listing, "w") as f:
                f.write("")
            self.assertEqual(zero_counter_gate.main(argv), 1)


if __name__ == "__main__":
    unittest.main()
