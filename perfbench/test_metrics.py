"""Tests of the benchmark's metric arithmetic and correctness gate.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no simulator build: records are written out by hand in the
shape `bopsim --serve` answers with.
"""

import copy
import json
import os
import unittest

import client
import metrics
from workloads import Point, make

POINT = Point("429.mcf", "bo", 1, "4k", 7, 300000, 50000)
SHARED = Point("433.milc", "bo", 1, "4k", 9, 300000, 20000, "share")


def record(point=POINT, **changes):
    """A run record as serve prints it for @p point."""
    rec = {
        "workload": point.workload,
        "config": "%d-core, %s pages, L2 %s, L3 5P, DL1 stride"
                  % (point.cores, "4MB" if point.page == "4m" else "4KB",
                     metrics.PREFETCHER_LABEL[point.prefetcher][3:]),
        "trace_source": "generator", "ipc": 0.25, "cycles": 200020,
        "instructions": point.instr + 5, "l2_mpki": 40.0,
        "prefetch_coverage": 0.2, "prefetch_accuracy": 0.3,
        "prefetch_timeliness": 0.9, "dram_reads": 3000, "dram_writes": 1000,
        "dram_per_1k_instr": 4000000.0 / (point.instr + 5),
        "l3_channel_stalls": 0, "bo_final_offset": 5, "jobs": 3,
        "job_index": 0, "attempts": 1, "wall_seconds": 0.05,
        "queue_wait_seconds": 0.0001, "checkpoint": "none",
    }
    rec.update(changes)
    return rec


class PercentileTest(unittest.TestCase):
    def test_p90_only_with_ten_samples_beyond_it(self):
        self.assertIsNone(metrics.p90_or_none(list(range(99))))
        self.assertEqual(metrics.p90_or_none(list(range(1, 101))), 90)
        self.assertEqual(metrics.p90_or_none(list(range(1, 1001))), 900)

    def test_nearest_rank(self):
        self.assertEqual(metrics.percentile([5, 1, 3], 50), 3)
        self.assertEqual(metrics.percentile([1, 2, 3, 4], 100), 4)


class ThroughputTest(unittest.TestCase):
    def test_memo_hits_do_not_count_as_simulated(self):
        sims = [{"simulated_instr": 2_000_000, "latency_s": 0.5},
                {"simulated_instr": 1_000_000, "latency_s": 0.5}]
        hits = [{"simulated_instr": 0, "latency_s": 0.0001}] * 50
        self.assertAlmostEqual(metrics.minstr_per_s(sims), 3.0)
        self.assertAlmostEqual(metrics.minstr_per_s(sims + hits), 3.0)

    def test_answer_kinds_are_read_from_the_records(self):
        shared_b = SHARED._replace(instr=40000)
        cold = SHARED._replace(checkpoint="cold")
        answers = [
            (POINT, record(wall_seconds=0.5)),
            (POINT, record(job_index=1, wall_seconds=0.5)),
            (SHARED, record(SHARED, checkpoint="warm-shared",
                            wall_seconds=0.4)),
            (shared_b, record(shared_b, checkpoint="warm-shared",
                              wall_seconds=0.05)),
            (SHARED, record(SHARED, checkpoint="warm-shared",
                            wall_seconds=0.4)),
            (cold, record(SHARED, wall_seconds=0.41)),
            (POINT, {"error": "job failed", "job_index": 6}),
        ]
        kinds = metrics.answer_kinds(answers)
        self.assertEqual(kinds, [metrics.SIMULATE, metrics.MEMO,
                                 metrics.SIMULATE, metrics.RESTORE,
                                 metrics.MEMO, metrics.SIMULATE,
                                 metrics.ERROR])
        self.assertEqual(
            [metrics.simulated_instructions(p, k)
             for (p, _), k in zip(answers, kinds)],
            [350000, 0, 320000, 40000, 0, 320000, 0])

    def test_a_repeat_that_simulated_again_counts(self):
        # A broken memo: the repeat carries its own wall_seconds, so it
        # is counted as simulated work, not excluded as a hit.
        answers = [(POINT, record(wall_seconds=0.5)),
                   (POINT, record(job_index=1, wall_seconds=0.48))]
        self.assertEqual(metrics.answer_kinds(answers),
                         [metrics.SIMULATE, metrics.SIMULATE])


    def test_bo_speedup_pairs_on_everything_but_the_prefetcher(self):
        bo = POINT.key()
        nl = POINT._replace(prefetcher="nl").key()
        lone = POINT._replace(prefetcher="bo", cores=2).key()
        gm, pairs = metrics.bo_speedup({bo: 0.3, nl: 0.2, lone: 9.0})
        self.assertAlmostEqual(gm, 1.5)
        self.assertEqual(pairs, 1)
        self.assertIsNone(metrics.bo_speedup({lone: 9.0}))


class GateTest(unittest.TestCase):
    def test_clean_record_passes(self):
        gate = metrics.Gate()
        self.assertTrue(gate.check(POINT, record()))
        self.assertTrue(gate.correct)
        self.assertEqual((gate.attempted, gate.failed), (1, 0))

    def test_unknown_fields_and_record_types_are_ignored(self):
        gate = metrics.Gate()
        self.assertTrue(gate.check(POINT, record(l2_pref_fills=12,
                                                 interval=3)))
        self.assertFalse(metrics.is_terminal({"type": "interval",
                                              "job_index": 0,
                                              "instructions": 10}))
        self.assertFalse(metrics.is_terminal({"type": "serve_metrics",
                                              "accepted": 4}))
        self.assertTrue(metrics.is_terminal(record()))
        self.assertTrue(metrics.is_terminal({"error": "job failed",
                                             "job_index": 3}))

    def test_perturbed_records_fail(self):
        perturbations = [
            {"instructions": POINT.instr + 40},
            {"instructions": POINT.instr - 1},
            {"prefetch_coverage": 1.2},
            {"prefetch_timeliness": -0.1},
            {"dram_per_1k_instr": 1.0},
            {"workload": "470.lbm"},
            {"config": "2-core, 4KB pages, L2 best-offset, L3 5P"},
            {"config": "1-core, 4KB pages, L2 next-line, L3 5P"},
            {"cycles": 0},
        ]
        for change in perturbations:
            gate = metrics.Gate()
            self.assertFalse(gate.check(POINT, record(**change)), change)
            self.assertEqual(gate.failed, 1)

    def test_answers_for_one_point_must_be_identical(self):
        gate = metrics.Gate()
        self.assertTrue(gate.check(POINT, record()))
        # A memo answer: same stats, different timing fields.
        self.assertTrue(gate.check(POINT, record(job_index=5,
                                                 wall_seconds=0.07,
                                                 queue_wait_seconds=0.3)))
        self.assertFalse(gate.check(POINT, record(cycles=200021)))
        self.assertEqual((gate.attempted, gate.failed), (3, 1))

    def test_warm_restore_must_equal_cold(self):
        gate = metrics.Gate()
        warm = record(SHARED, checkpoint="warm-shared")
        self.assertTrue(gate.check(SHARED, warm))
        cold = SHARED._replace(checkpoint="cold")
        self.assertTrue(gate.check(cold, record(SHARED)))
        self.assertFalse(gate.check(cold, record(SHARED, dram_reads=3001)))

    def test_failed_frac_counts_errors_and_mismatches(self):
        gate = metrics.Gate()
        for _ in range(6):
            gate.check(POINT, record())
        gate.check(POINT, {"error": "job failed", "kind": "simulation",
                           "detail": "boom", "job_index": 6})
        gate.check(POINT, record(prefetch_accuracy=7.0))
        gate.fail("a job line that never answered")
        self.assertEqual((gate.attempted, gate.failed), (9, 3))
        self.assertAlmostEqual(
            metrics.failed_frac(gate.attempted, gate.failed), 3 / 9)
        self.assertFalse(gate.correct)

    def test_gate_is_not_fooled_by_a_copy(self):
        gate = metrics.Gate()
        rec = record()
        gate.check(POINT, rec)
        changed = copy.deepcopy(rec)
        changed["bo_final_offset"] = 6
        self.assertFalse(gate.check(POINT, changed))


class EnvironmentTest(unittest.TestCase):
    def test_simulator_env_drops_every_bop_setting(self):
        saved = dict(os.environ)
        try:
            os.environ.update(BOP_THREADS="4", BOP_DISABLE_FASTFORWARD="1",
                              BOP_CKPT_DIR="/elsewhere", PERFBENCH_KEEP="1")
            env = client.simulator_env()
            self.assertFalse([k for k in env if k.startswith("BOP_")])
            self.assertEqual(env["PERFBENCH_KEEP"], "1")
            self.assertEqual(client.simulator_env("ckpt")["BOP_CKPT_DIR"],
                             "ckpt")
        finally:
            os.environ.clear()
            os.environ.update(saved)


class WorkloadTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in ("solo-mem", "sweep-grid", "serve-reuse"):
            self.assertEqual(make(name, 5), make(name, 5))
            self.assertNotEqual(make(name, 5).round, make(name, 6).round)

    def test_sweep_pairs_share_a_seed(self):
        grid = make("sweep-grid", 3).round
        self.assertEqual(len(grid), 48)
        keys = {p.key() for p in grid}
        for p in grid:
            other = "nl" if p.prefetcher == "bo" else "bo"
            self.assertIn(p._replace(prefetcher=other).key(), keys)

    def test_job_lines_use_only_the_kept_grammar(self):
        allowed = {"workload", "prefetcher", "cores", "page", "seed",
                   "warmup", "instr", "checkpoint"}
        for name in ("solo-mem", "sweep-grid", "serve-reuse"):
            wl = make(name, 1)
            for p in wl.round + wl.probes:
                self.assertLessEqual(set(json.loads(p.line())), allowed)


if __name__ == "__main__":
    unittest.main()
