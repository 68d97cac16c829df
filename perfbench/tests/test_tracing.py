"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import run as bench  # noqa: E402
import tracing  # noqa: E402
import vqpde  # noqa: E402
from vqpde import ansatz, costlib, evolve, statevec  # noqa: E402
from calibration import REFERENCE_S  # noqa: E402
from workloads import (BoundaryTimer, CallResult, Execution,  # noqa: E402
                       ShotsCH)


class SelfTimeArithmetic(unittest.TestCase):
    def test_nested_tree(self):
        # root [0, 100) > a [10, 40) > b [15, 25); root > a [50, 60) > a [52, 58)
        sp = tracing.Spans()
        root = sp.add("root", 0, 100, -1)
        a1 = sp.add("a", 10, 40, root)
        sp.add("b", 15, 25, a1)
        a2 = sp.add("a", 50, 60, root)
        sp.add("a", 52, 58, a2)
        t = {k: {m: round(v * 1e9, 6) if m != "calls" else v
                 for m, v in d.items()}
             for k, d in tracing.layer_times(sp).items()}
        self.assertEqual(t["root"], {"calls": 1, "total_s": 100, "self_s": 60})
        # recursion: the inner "a" adds to self time but not to total time
        self.assertEqual(t["a"], {"calls": 3, "total_s": 40, "self_s": 30})
        self.assertEqual(t["b"], {"calls": 1, "total_s": 10, "self_s": 10})
        self_sum = sum(d["self_s"] for d in t.values())
        self.assertEqual(self_sum, 100)  # self times partition the root

    def test_within_restricts_to_a_subtree(self):
        sp = tracing.Spans()
        root = sp.add("root", 0, 100, -1)
        step = sp.add("step", 10, 50, root)
        sp.add("gate", 20, 30, step)
        sp.add("gate", 60, 70, root)
        t = tracing.layer_times(sp, within="step")
        self.assertEqual(set(t), {"step", "gate"})
        self.assertEqual(t["gate"]["calls"], 1)
        self.assertAlmostEqual(t["step"]["self_s"], 30e-9)


class Teardown(unittest.TestCase):
    def test_every_binding_is_restored(self):
        before = tracing.installed_bindings()
        tracer = tracing.Tracer()
        with tracer:
            during = tracing.installed_bindings()
            self.assertTrue(all(during[k] is not before[k] for k in before))
            statevec.apply_gate(statevec.QuantumState.zero(1),
                                statevec.Gate("X"), (0,))  # not a patched name
            ansatz.prepare(ansatz.AnsatzSpec(n_qubits=2), np.zeros(2))
        after = tracing.installed_bindings()
        self.assertTrue(all(after[k] is before[k] for k in before))
        self.assertIs(vqpde.ansatz.apply_gate, vqpde.statevec.apply_gate)
        self.assertIs(costlib.prepare, ansatz.prepare)
        self.assertIs(evolve.minimize, vqpde.optim.minimize)
        self.assertEqual(tracer.layer_metrics()["ansatz.prepare.calls"], 1)
        self.assertEqual(tracer.layer_metrics()["statevec.apply_gate.calls"], 3)

    def test_stale_patch_table_fails_and_restores(self):
        before = tracing.installed_bindings()
        original = costlib.prepare
        costlib.prepare = lambda spec, lam: original(spec, lam)
        try:
            with self.assertRaises(RuntimeError):
                tracing.Tracer().install()
        finally:
            costlib.prepare = original
        after = tracing.installed_bindings()
        self.assertTrue(all(after[k] is before[k] for k in before))

    def test_boundary_timer_restores(self):
        step = evolve.step
        with BoundaryTimer():
            self.assertIsNot(evolve.step, step)
        self.assertIs(evolve.step, step)


class Repeatability(unittest.TestCase):
    def test_counts_and_digests_repeat_for_one_seed(self):
        wl = ShotsCH()
        wl.n_steps = 1
        out = Path(tempfile.mkdtemp())
        try:
            seen = []
            for _ in range(2):
                inputs = wl.make_inputs(np.random.default_rng(7))
                tracer = tracing.Tracer()
                with tracer:
                    ex = wl.execute(inputs, out)
                res = wl.check(inputs, ex, out)
                self.assertEqual(res.problems, [])
                counts = {k: v for k, v in tracer.layer_metrics().items()
                          if k.endswith((".calls", ".shots", "_calls"))}
                seen.append((counts, res.n_evals, res.digest))
        finally:
            shutil.rmtree(out)
        self.assertGreater(seen[0][0]["statevec.hadamard_test.shots"], 0)
        self.assertEqual(seen[0], seen[1])


class EndToEndArithmetic(unittest.TestCase):
    def test_medians_over_calls(self):
        calls = [CallResult(run_s=r, setup_s=s, step_s=st, n_evals=[5, 7],
                            attempted=2, failed=0, max_rel_l2=1e-6,
                            digest="d", kernel_s=[k])
                 for r, s, st, k in ((9.0, 3.0, [2.0, 6.0], 0.1),
                                     (7.0, 5.0, [4.0, 3.0], 0.3),
                                     (8.0, 4.0, [1.0, 5.0], 0.2))]
        e2e, samples = bench._end_to_end(calls)
        self.assertEqual(e2e["run_s"], 8.0)
        self.assertEqual(e2e["setup_s"], 4.0)
        self.assertEqual(e2e["step_s_p50"], 3.5)  # median of all six steps
        self.assertEqual(e2e["evals_per_step"], 6.0)
        self.assertAlmostEqual(e2e["kernel_slowdown"], 0.2 / REFERENCE_S)
        self.assertEqual(samples, 6)

    def test_spans_are_scaled_by_the_kernel_around_them(self):
        timer = BoundaryTimer()
        timer.kernel_on_entry = 2 * REFERENCE_S
        timer.overhead = 0.25
        # (entered, start, end, n_evals, kernel before, kernel after)
        timer.steps = [(10.0, 10.125, 11.125, 40, 2 * REFERENCE_S,
                        2 * REFERENCE_S),
                       (11.25, 11.375, 11.875, 41, REFERENCE_S,
                        3 * REFERENCE_S)]
        ex = Execution(start=4.0, end=12.0, timer=timer)
        self.assertEqual(ex.run_s, 7.75)
        self.assertAlmostEqual(ex.setup_s, 3.0)  # 6 s at half speed
        for got, want in zip(ex.step_s, [0.5, 0.25]):
            self.assertAlmostEqual(got, want)
        self.assertEqual(ex.n_evals, [40, 41])


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(e2e, bench.END_TO_END)
        self.assertEqual(layer, bench.PER_LAYER)
        from workloads import WORKLOADS
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        bounds = [m["bound"] for m in spec["end_to_end"]]
        self.assertEqual(max(bounds), next(
            m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"))

    def test_fails_without_the_package_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "shots-ch",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
