"""Self-test of the benchmark: its references, its metric list, and that its gate can fail.

    python3 perfbench/selftest.py

Broken kernels are substituted in-process, on every binding the traced
run would wrap, and only the operations that reach them are run, so the
whole test takes a few seconds.
"""

from __future__ import annotations

import json
import time
import unittest
from pathlib import Path

import layers
import run
import workloads
from tracing import rebind
from worker import REFERENCE_PROBE_S, SpeedProbe, import_exactcomb, run_ops

import_exactcomb()

from exactcomb import plactic, posets  # noqa: E402

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _run_named(ops, wanted):
    """Run the operations whose names start with one of ``wanted``."""
    return run_ops([(name, op) for name, op in ops if name.startswith(wanted)])


class References(unittest.TestCase):
    def test_slices_concatenate_to_one_battery_output(self):
        text = "".join(workloads.reference_slice(w) for w in workloads.SWEEPS)
        reports = json.loads(text)
        self.assertEqual([r["theorem"] for r in reports], list(layers.THEOREMS))
        self.assertTrue(all(r["status"] == "verified" for r in reports))
        elements = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in reports]
        self.assertEqual("[" + ",".join(elements) + "]\n", text)

    def test_seed_rule_is_identity_at_the_reference_seed(self):
        for w in workloads.SWEEPS:
            slice_text = workloads.reference_slice(w)
            for element in workloads.expected_elements(w, workloads.REFERENCE_SEED).values():
                self.assertIn(element, slice_text)

    def test_seed_rule_tracks_the_seed_width(self):
        det = json.loads(workloads.expected_elements(
            workloads.WORD_PARKING_SWEEP, 123)["report-determinism"])
        ref = json.loads(workloads.expected_elements(
            workloads.WORD_PARKING_SWEEP, 0)["report-determinism"])
        self.assertEqual(det["witness"]["seed"], 123)
        self.assertEqual(det["witness"]["report_bytes"], ref["witness"]["report_bytes"] + 2)


class MetricList(unittest.TestCase):
    def test_benchmark_json_lists_the_measured_metrics(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        self.assertEqual(spec["per_layer"],
                         [{k: m[k] for k in ("name", "unit", "better")} for m in layers.PER_LAYER])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.UNITS)


class Rescaling(unittest.TestCase):
    def test_probes_at_twice_the_reference_halve_the_time(self):
        probe = SpeedProbe()
        probe.durations = [2 * REFERENCE_PROBE_S] * 10
        self.assertAlmostEqual(probe.rescale(1.0 + sum(probe.durations)), 0.5)

    def test_probe_samples_while_the_block_runs(self):
        with SpeedProbe() as probe:
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                pass
        self.assertGreaterEqual(len(probe.durations), 3)


class GateCanFail(unittest.TestCase):
    def substitute(self, original, broken):
        rebind(original, broken)
        self.addCleanup(rebind, broken, original)

    def assert_fails(self, records, name_prefix):
        summary = run.summarize({}, [{"ops": records}])
        self.assertGreater(summary["failed"] / summary["attempted"], 0)
        failed = [r["name"] for r in records if not r["ok"]]
        self.assertTrue(failed and all(n.startswith(name_prefix) for n in failed), failed)

    def test_identity_rowmotion_fails_the_lattice_sweep(self):
        self.substitute(posets.rowmotion_distributive, lambda lat: tuple(range(lat.n)))
        ops = workloads.build_ops(workloads.LATTICE_SWEEP, 0)
        self.assert_fails(_run_named(ops, "echelon-equals-rowmotion"),
                          "echelon-equals-rowmotion")

    def test_identity_rowmotion_fails_single_queries(self):
        self.substitute(posets.rowmotion_distributive, lambda lat: tuple(range(lat.n)))
        ops = workloads.build_ops(workloads.SINGLE_QUERIES, 0)
        self.assert_fails(_run_named(ops, "rowmotion-"), "rowmotion-")

    def test_greene_off_by_one_fails_both_gates(self):
        original = plactic.greene_oracle

        def off_by_one(word, k, mode="increasing"):
            return original(word, k, mode) + 1

        self.substitute(original, off_by_one)
        sweep = workloads.build_ops(workloads.WORD_PARKING_SWEEP, 0)
        self.assert_fails(_run_named(sweep, "greene-invariants"), "greene-invariants")
        queries = workloads.build_ops(workloads.SINGLE_QUERIES, 0)
        self.assert_fails(_run_named(queries, "greene#"), "greene#")


if __name__ == "__main__":
    unittest.main()
