"""Self-test of the benchmark harness at toy sizes.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

Covers the percentile rule, self-time arithmetic on a hand-built span
tree, the score oracle on hand-worked cases (and against the package's
scorer on a small random case), and layer attribution of a traced toy
network's forward and backward pass.
"""

from __future__ import annotations

import os
import sys
import unittest
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stats import credit_spread_normalized, high_percentile, self_times  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_too_few_samples(self):
        self.assertIsNone(high_percentile(range(19)))

    def test_twenty_samples_give_the_median(self):
        # rank ceil(20 * 0.5) = 10, leaving exactly 10 samples beyond it
        self.assertEqual(high_percentile(range(1, 21)), (50.0, 10))

    def test_hundred_samples_give_p90(self):
        # p90: rank 90 with 10 beyond; p99 would leave only 1
        self.assertEqual(high_percentile(range(1, 101)), (90.0, 90))

    def test_thousand_samples_give_p99(self):
        self.assertEqual(high_percentile(range(1, 1001)), (99.0, 990))

    def test_unsorted_input(self):
        self.assertEqual(high_percentile(list(range(100, 0, -1))), (90.0, 90))


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            (0.0, 10.0, None),   # 0 root
            (1.0, 4.0, 0),       # 1 child of root
            (3.0, 6.0, 0),       # 2 overlaps 1: union of 1 and 2 is [1, 6]
            (2.0, 3.0, 1),       # 3 grandchild, not a child of the root
            (8.0, 12.0, 0),      # 4 runs past the root: clipped to [8, 10]
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 3.0, 1.0, 4.0])

    def test_leaf_and_empty(self):
        self.assertEqual(self_times([(5.0, 7.5, None)]), [2.5])
        self.assertEqual(self_times([]), [])


class ScoreOracle(unittest.TestCase):
    W = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]]

    def test_perfect_predictions_score_one(self):
        truth = [{0}, {1, 2}]
        self.assertEqual(credit_spread_normalized(truth, truth, self.W, 0), 1.0)

    def test_inactive_predictions_score_zero(self):
        truth = [{1}, {2}]
        self.assertEqual(credit_spread_normalized([{0}, {0}], truth, self.W, 0), 0.0)

    def test_hand_worked_partial_credit(self):
        # record 1: P={1}, G={1}            -> a[1][1] += 1
        # record 2: P={1, 2}, G={2}, |G u P|=2 -> a[1][2] += .5, a[2][2] += .5
        # observed = W11*1 + W12*.5 + W22*.5 = 1 + .25 + .5 = 1.75
        # correct  = 2 (each record a[j][j] += 1)
        # inactive (always {0}): |G u P| = 2 each -> a[0][1] += .5, a[0][2] += .5
        #          = 0
        # normalized = (1.75 - 0) / (2 - 0) = 0.875
        got = credit_spread_normalized([{1}, {1, 2}], [{1}, {2}], self.W, 0)
        self.assertEqual(got, 0.875)

    def test_empty_records_are_skipped(self):
        got = credit_spread_normalized([set(), {1}], [set(), {1}], self.W, 0)
        self.assertEqual(got, 1.0)

    def test_matches_package_scorer(self):
        import numpy as np
        from ecgdx.records import ClassMap
        from ecgdx.scoring import RewardMatrix, challenge_score
        cmap = ClassMap.default()
        rng = np.random.default_rng(0)
        truth = (rng.random((40, 27)) < 0.1).astype(np.uint8)
        truth[np.arange(40), rng.integers(0, 27, 40)] = 1
        pred = (rng.random((40, 27)) < 0.15).astype(np.uint8)
        w = RewardMatrix.identity(cmap)
        merged = [int(m) for m in cmap.merged_index]

        def sets(m):
            return [{merged[i] for i in np.flatnonzero(row)} for row in m]
        want = challenge_score(pred, truth, w, cmap=cmap).normalized
        got = credit_spread_normalized(sets(pred), sets(truth), w.values.tolist(),
                                       merged[cmap.sinus_rhythm_index])
        self.assertAlmostEqual(got, want, delta=1e-12)


class TracedToyNetwork(unittest.TestCase):
    def test_layer_attribution(self):
        import numpy as np
        from ecgdx.nn import SeResNet, SeResNetConfig
        from ecgdx.nn import autodiff as ad
        import tracing

        model = SeResNet(SeResNetConfig.small(input_length=64))
        x = np.random.default_rng(1).standard_normal((2, 8, 64))
        original_conv1d = ad.conv1d
        tracer = tracing.Tracer("toy")
        tracing.install(tracer)
        try:
            logits, pvars = model.forward(x, training=True)
            ad.backward(logits)
        finally:
            tracer.uninstall()
        self.assertIs(ad.conv1d, original_conv1d)
        m = tracing.layer_metrics([tracer.report()])
        for layer in ("stem", "stage0.block0", "stage1.block0", "head"):
            self.assertGreater(m[f"nn.model.{layer}.fwd_ms"], 0, layer)
            self.assertGreater(m[f"nn.model.{layer}.bwd_ms"], 0, layer)
        self.assertEqual(m["nn.model.stage2.block0.fwd_ms"], 0)   # no such stage
        self.assertGreater(m["nn.autodiff.se_block.bwd_ms"], 0)
        self.assertGreater(m["nn.autodiff.backward.self_ms"], 0)
        # stem conv: 2*B*C_out*C_in*k*T_out flop = 2*2*16*8*7*32; backward twice that
        stem = 2 * 2 * 16 * 8 * 7 * 32
        self.assertGreater(m["nn.autodiff.conv1d.gflop"] * 1e9, 3 * stem)
        self.assertGreater(m["nn.autodiff.graph_nodes"], 10)
        # gradients reach the parameters through the wrapped vjps
        self.assertTrue(all(pvars[n].grad is not None for n in model.params))


if __name__ == "__main__":
    unittest.main()
