"""Tests of the repository benchmark.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The arithmetic tests run on synthetic inputs. The others build meshbench
(as run.py does) and run short windows of the real workloads.
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ledger  # noqa: E402
import run  # noqa: E402


def sample(wall_ns, utime_us, stime_us, minflt, allocs, hwm_kb):
    return {"wall_ns": wall_ns, "utime_us": utime_us, "stime_us": stime_us,
            "minflt": minflt, "allocs": allocs, "hwm_kb": hwm_kb}


def span(name, start, end, parent):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent}


class ProcessDeltaTest(unittest.TestCase):
    def test_phase_cost_is_the_difference_of_two_samples(self):
        before = sample(1_000_000_000, 2_000_000, 500_000, 100, 7_000, 10_240)
        after = sample(3_500_000_000, 3_250_000, 1_750_000, 1_100, 9_500,
                       20_480)
        delta = ledger.proc_delta(before, after)
        self.assertAlmostEqual(delta["wall_s"], 2.5)
        self.assertAlmostEqual(delta["user_s"], 1.25)
        self.assertAlmostEqual(delta["sys_s"], 1.25)
        self.assertAlmostEqual(delta["cpu_s"], 2.5)
        self.assertEqual(delta["minor_faults"], 1_000)
        self.assertEqual(delta["allocs"], 2_500)
        # Peak RSS is a level, read from the later sample, in MiB.
        self.assertAlmostEqual(delta["peak_rss_mb"], 20.0)

    def test_count_delta_subtracts_per_name(self):
        self.assertEqual(ledger.count_delta({"a": 3, "b": 10},
                                            {"a": 5, "b": 10}),
                         {"a": 2, "b": 0})

    def test_run_counts_keep_levels_absolute(self):
        it = {"setup_counts": {"sim.events": 10, "cp.sidecars": 7,
                               "obs.series": 40},
              "run_counts": {"sim.events": 35, "cp.sidecars": 7,
                             "obs.series": 44}}
        self.assertEqual(run.run_counts(it),
                         {"sim.events": 25, "cp.sidecars": 7,
                          "obs.series": 44})


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_direct_children(self):
        spans = [
            span("root", 0, 100, -1),
            span("a", 10, 40, 0),
            span("b", 30, 70, 0),   # overlaps a: the union is 10..70
            span("a.inner", 15, 20, 1),
            span("b", 80, 90, 0),
        ]
        times = ledger.self_times(spans)
        self.assertEqual(times["root"]["count"], 1)
        self.assertAlmostEqual(times["root"]["total_s"], 100e-9)
        self.assertAlmostEqual(times["root"]["self_s"], 30e-9)
        self.assertAlmostEqual(times["a"]["self_s"], 25e-9)
        self.assertEqual(times["b"]["count"], 2)
        self.assertAlmostEqual(times["b"]["total_s"], 50e-9)
        self.assertAlmostEqual(times["b"]["self_s"], 50e-9)
        self.assertAlmostEqual(times["a.inner"]["self_s"], 5e-9)

    def test_children_are_clipped_to_the_parent(self):
        times = ledger.self_times([span("p", 10, 20, -1),
                                   span("c", 5, 15, 0)])
        self.assertAlmostEqual(times["p"]["self_s"], 5e-9)


def probes():
    return {
        "probe.sim": {"ns": 10.0, "allocs": 1.0},
        "probe.net": {"ns": 50.0, "allocs": 2.0, "events": 2.0},
        "probe.transport": {"ns": 200.0, "allocs": 6.0, "packets": 2.0,
                            "events": 4.0},
        "probe.transport.small": {"ns": 150.0, "allocs": 6.0,
                                  "packets": 2.0, "events": 4.0},
        "probe.http.parse_small": {"ns": 100.0, "allocs": 20.0,
                                   "bytes": 300.0},
        "probe.http.parse_large": {"ns": 1000.0, "allocs": 9.0,
                                   "bytes": 10000.0},
        "probe.http.parse_typical": {"ns": 300.0, "allocs": 9.0,
                                     "bytes": 600.0},
        "probe.http.serialize": {"ns": 50.0, "allocs": 3.0},
        "probe.mesh": {"ns": 10000.0, "allocs": 200.0, "events": 40.0,
                       "packets": 10.0, "segments": 5.0},
        "probe.obs": {"ns": 20.0, "allocs": 0.0},
        "probe.cp": {"ns": 1000.0, "allocs": 700.0},
    }


class LedgerTest(unittest.TestCase):
    def test_self_costs_subtract_the_layers_below(self):
        cost = ledger.self_costs(probes())
        self.assertAlmostEqual(cost["sim"], 10.0)
        self.assertAlmostEqual(cost["net"], 50.0 - 2 * 10.0)
        self.assertAlmostEqual(cost["transport"], 200.0 - 2 * 50.0)
        self.assertAlmostEqual(cost["http_head"], 3 * (100.0 + 2 * 50.0))
        self.assertAlmostEqual(cost["http_per_byte"], 0.1)
        below = (40 * 10.0 + 10 * 30.0 + 5 * (150.0 - 2 * 50.0) + 600.0
                 + 3 * 300.0 + 20.0)
        self.assertAlmostEqual(cost["mesh"], 10000.0 - below)

    def test_negative_self_cost_is_reported_as_zero(self):
        p = probes()
        p["probe.net"]["ns"] = 5.0  # cheaper than the two events it fires
        self.assertEqual(ledger.self_costs(p)["net"], 0.0)

    def test_shares_and_residual_sum_to_one(self):
        counts = {"sim.events": 1_000_000, "net.packets": 100_000,
                  "transport.segments": 50_000,
                  "transport.bytes_received": 10_000_000,
                  "mesh.requests": 1_000, "cp.epochs": 4,
                  "cp.sidecars": 200}
        shares = ledger.ledger(counts, probes(), run_s=0.1)
        self.assertAlmostEqual(shares["sim"], 1e6 * 10.0 / 1e8)
        self.assertAlmostEqual(shares["net"], 1e5 * 30.0 / 1e8)
        self.assertAlmostEqual(shares["transport"], 5e4 * 100.0 / 1e8)
        self.assertAlmostEqual(shares["http"],
                               (1000 * 600.0 + 1e7 * 0.1) / 1e8)
        self.assertAlmostEqual(shares["obs"], 1000 * 20.0 / 1e8)
        self.assertAlmostEqual(shares["cp"], 4 * 200 * 1000.0 / 1e8)
        self.assertAlmostEqual(sum(shares.values()), 1.0)


class RunnerTest(unittest.TestCase):
    def test_conservation_flags_lost_and_pending_requests(self):
        ok = {"traffic": {"generated": 10, "completed": 9, "errored": 1,
                          "abandoned": 0}}
        self.assertEqual(run.conservation_failures(ok), [])
        lost = {"traffic": {"generated": 10, "completed": 8, "errored": 1,
                            "abandoned": 0}}
        self.assertEqual(len(run.conservation_failures(lost)), 1)
        pending = {"traffic": {"generated": 10, "completed": 9, "errored": 0,
                               "abandoned": 1}}
        self.assertEqual(len(run.conservation_failures(pending)), 1)

    def test_sub_seeds_repeat_within_a_run_and_differ_across_runs(self):
        seeds = [run.sub_seed(3, i) for i in range(run.MIN_ITERATIONS)]
        self.assertEqual(len(set(seeds)), run.SUB_SEEDS)
        self.assertEqual(seeds[0], seeds[run.SUB_SEEDS])
        self.assertFalse(set(seeds) & {run.sub_seed(4, i)
                                       for i in range(run.SUB_SEEDS)})

    def test_benchmark_json_names_every_metric_the_runner_prints(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(run.WORKLOADS))


class WorkloadTest(unittest.TestCase):
    """Short windows of the real workloads through meshbench."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def iterate(self, workload, seed, **kwargs):
        return run.iterate(self.binary, workload, seed, scale=0.05, **kwargs)

    def test_digest_is_stable_for_a_seed_and_moves_with_it(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.iterate(workload, 16)
                again = self.iterate(workload, 16)
                other = self.iterate(workload, 17)
                self.assertEqual(first["digest"], again["digest"])
                self.assertNotEqual(first["digest"], other["digest"])
                self.assertEqual(run.conservation_failures(first), [])

    def test_tracing_leaves_the_digest_unchanged(self):
        plain = self.iterate("elibrary_bulk", 16)
        traced = self.iterate("elibrary_bulk", 16, trace=True)
        self.assertEqual(plain["digest"], traced["digest"])
        names = {s["name"] for s in traced["spans"]}
        self.assertLessEqual({"setup.build", "setup.converge", "run.slice",
                              "collect.snapshot"}, names)

    def test_fanout_digest_is_thread_invariant(self):
        one = self.iterate("fanout_small", 16, threads=1)
        two = self.iterate("fanout_small", 16, threads=2)
        self.assertEqual(one["digest"], two["digest"])

    def test_smoke_runs_every_workload_end_to_end(self):
        self.assertEqual(run.main(["--smoke"]), 0)


if __name__ == "__main__":
    unittest.main()
