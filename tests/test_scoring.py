"""Challenge metric: confusion spreading, normalization, and per-class stats."""

import numpy as np
import pytest

from ecgdx.errors import EcgdxError
from ecgdx.records import ClassMap
from ecgdx.scoring import (PerClassMetrics, RewardMatrix, challenge_score,
                           confusion, merge_pairs, per_class_metrics)

CMAP = ClassMap.default()
SNR_MERGED = int(CMAP.merged_index[CMAP.sinus_rhythm_index])


# ----------------------------------------------------------------------
# independent oracle: plain-loop reimplementation of the whole metric
# ----------------------------------------------------------------------

def oracle_confusion(preds, truths):
    n_cat = len(preds[0])
    a = [[0.0] * n_cat for _ in range(n_cat)]
    for p_row, g_row in zip(preds, truths):
        union = sum(1 for i in range(n_cat) if p_row[i] or g_row[i])
        if union == 0:
            continue
        for i in range(n_cat):
            if p_row[i]:
                for j in range(n_cat):
                    if g_row[j]:
                        a[i][j] += 1.0 / union
    return a


def oracle_score(preds, truths, w):
    def weighted(a):
        return sum(w[i][j] * a[i][j]
                   for i in range(len(a)) for j in range(len(a)))

    unnorm = weighted(oracle_confusion(preds, truths))
    correct = weighted(oracle_confusion(truths, truths))
    inactive_preds = []
    for _ in truths:
        row = [0] * len(truths[0])
        row[SNR_MERGED] = 1
        inactive_preds.append(row)
    inactive = weighted(oracle_confusion(inactive_preds, truths))
    return (unnorm - inactive) / (correct - inactive)


def random_dataset(rng, n_records, ensure_calibratable=True):
    truths = rng.integers(0, 2, size=(n_records, 27)).astype(np.uint8)
    if ensure_calibratable:
        truths[0, CMAP.abbreviations.index("AF")] = 1   # keep correct != inactive
    for row in truths:
        if row.sum() == 0:
            row[CMAP.sinus_rhythm_index] = 1
    preds = rng.integers(0, 2, size=(n_records, 27)).astype(np.uint8)
    for row in preds:
        if row.sum() == 0:
            row[CMAP.sinus_rhythm_index] = 1
    return preds, truths


class TestMergePairs:
    def test_single_pair_member_sets_merged_bit(self):
        labels = np.zeros(27, dtype=np.uint8)
        labels[CMAP.abbreviations.index("CRBBB")] = 1
        merged = merge_pairs(labels)
        group = int(CMAP.merged_index[CMAP.abbreviations.index("RBBB")])
        assert merged[group] == 1
        assert merged.sum() == 1

    def test_both_pair_members_one_bit(self):
        labels = np.zeros(27, dtype=np.uint8)
        labels[CMAP.abbreviations.index("PAC")] = 1
        labels[CMAP.abbreviations.index("SVPB")] = 1
        merged = merge_pairs(labels)
        assert merged.sum() == 1

    def test_singletons_pass_through(self):
        labels = np.zeros(27, dtype=np.uint8)
        labels[CMAP.abbreviations.index("AF")] = 1
        labels[CMAP.abbreviations.index("LBBB")] = 1
        merged = merge_pairs(labels)
        assert merged.sum() == 2

    def test_surjective_onto_merged_space(self):
        rng = np.random.default_rng(1)
        first_member = {}
        for idx, m in enumerate(CMAP.merged_index):
            first_member.setdefault(int(m), idx)
        for _ in range(100):
            target = rng.integers(0, 2, size=24).astype(np.uint8)
            expanded = np.zeros(27, dtype=np.uint8)
            for m, idx in first_member.items():
                expanded[idx] = target[m]
            np.testing.assert_array_equal(merge_pairs(expanded), target)


class TestConfusion:
    def test_single_correct_record(self):
        pred = np.zeros((1, 24), dtype=np.uint8)
        pred[0, SNR_MERGED] = 1
        a = confusion(pred, pred)
        assert a[SNR_MERGED, SNR_MERGED] == 1.0
        assert a.sum() == 1.0

    def test_single_miss_spreads_half(self):
        pred = np.zeros((1, 24), dtype=np.uint8)
        truth = np.zeros((1, 24), dtype=np.uint8)
        pred[0, 2] = 1    # predicted B
        truth[0, 5] = 1   # true A
        a = confusion(pred, truth)
        assert a[2, 5] == 0.5
        assert a.sum() == 0.5

    def test_identical_records_accumulate(self):
        pred = np.zeros((2, 24), dtype=np.uint8)
        pred[:, 3] = 1
        a = confusion(pred, pred)
        assert a[3, 3] == 2.0

    def test_mass_per_record(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pred = rng.integers(0, 2, size=(1, 24))
            truth = rng.integers(0, 2, size=(1, 24))
            a = confusion(pred, truth)
            p, g = pred.sum(), truth.sum()
            union = np.count_nonzero(pred[0] | truth[0])
            expected = p * g / union if union else 0.0
            assert abs(a.sum() - expected) < 1e-12

    def test_empty_record_skipped(self, caplog):
        with caplog.at_level("WARNING"):
            a = confusion(np.zeros((1, 24)), np.zeros((1, 24)))
        assert a.sum() == 0.0
        assert "skipped" in caplog.text

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        pred = rng.integers(0, 2, size=(10, 24))
        truth = rng.integers(0, 2, size=(10, 24))
        np.testing.assert_allclose(confusion(pred, truth),
                                   oracle_confusion(pred.tolist(), truth.tolist()),
                                   atol=1e-12)

    def test_matches_oracle_with_empty_records(self, caplog):
        # 1000 sparse records; 129 of them have an empty union
        rng = np.random.default_rng(3)
        pred = (rng.random((1000, 24)) < 0.04).astype(int)
        truth = (rng.random((1000, 24)) < 0.04).astype(int)
        with caplog.at_level("WARNING"):
            a = confusion(pred, truth)
        np.testing.assert_allclose(a, oracle_confusion(pred.tolist(), truth.tolist()),
                                   atol=1e-12)
        assert caplog.text.count("skipped") == 129


class TestChallengeScore:
    W_ID = RewardMatrix.identity(CMAP)

    def _synthetic_weights(self, rng):
        w = rng.uniform(0.0, 0.9, size=(24, 24))
        np.fill_diagonal(w, 1.0)
        return RewardMatrix(values=w, abbreviations=CMAP.merged_abbreviations)

    def test_perfect_predictions_score_one(self):
        rng = np.random.default_rng(4)
        _, truths = random_dataset(rng, 20)
        for w in (self.W_ID, self._synthetic_weights(rng)):
            report = challenge_score(truths, truths, w, cmap=CMAP)
            assert abs(report.normalized - 1.0) < 1e-12

    def test_always_sinus_scores_zero(self):
        rng = np.random.default_rng(5)
        _, truths = random_dataset(rng, 20)
        always = np.zeros_like(truths)
        always[:, CMAP.sinus_rhythm_index] = 1
        for w in (self.W_ID, self._synthetic_weights(rng)):
            report = challenge_score(always, truths, w, cmap=CMAP)
            assert abs(report.normalized - 0.0) < 1e-12

    def test_hand_evaluated_single_record(self):
        # truth {A}, prediction {B}, w[B][A] = 0.5 -> unnormalized 0.5 * 0.5
        a_idx = CMAP.abbreviations.index("AF")
        b_idx = CMAP.abbreviations.index("LBBB")
        a_m = int(CMAP.merged_index[a_idx])
        b_m = int(CMAP.merged_index[b_idx])
        w = np.eye(24)
        w[b_m, a_m] = 0.5
        matrix = RewardMatrix(values=w, abbreviations=CMAP.merged_abbreviations)
        truth = np.zeros((1, 27), dtype=np.uint8)
        truth[0, a_idx] = 1
        pred = np.zeros((1, 27), dtype=np.uint8)
        pred[0, b_idx] = 1
        report = challenge_score(pred, truth, matrix, cmap=CMAP)
        assert report.unnormalized == 0.25
        assert report.correct == 1.0
        assert report.inactive == 0.0
        assert report.normalized == 0.25

    def test_invariant_under_record_permutation(self):
        rng = np.random.default_rng(6)
        preds, truths = random_dataset(rng, 50)
        w = self._synthetic_weights(rng)
        base = challenge_score(preds, truths, w, cmap=CMAP)
        perm = rng.permutation(50)
        shuffled = challenge_score(preds[perm], truths[perm], w, cmap=CMAP)
        assert abs(base.normalized - shuffled.normalized) < 1e-12

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 17):
            preds, truths = random_dataset(rng, n)
            w = self._synthetic_weights(rng)
            got = challenge_score(preds, truths, w, cmap=CMAP).normalized
            want = oracle_score(merge_pairs(preds).tolist(),
                                merge_pairs(truths).tolist(),
                                w.values.tolist())
            assert abs(got - want) < 1e-10

    def test_monotone_repair_against_bruteforce(self):
        # without off-diagonal credit, correcting any one wrong bit cannot
        # hurt; exhaustively brute-forced on tiny datasets.  (This does NOT
        # hold for partial-credit matrices: see the counterexample below.)
        rng = np.random.default_rng(8)
        first_member = {}
        for idx, m in enumerate(CMAP.merged_index):
            first_member.setdefault(int(m), idx)

        def expand(merged):   # 24 -> 27 through first pair members
            out = np.zeros((merged.shape[0], 27), dtype=np.uint8)
            for m, idx in first_member.items():
                out[:, idx] = merged[:, m]
            return out

        for _ in range(20):
            n = int(rng.integers(1, 5))
            merged_pred = rng.integers(0, 2, size=(n, 24)).astype(np.uint8)
            merged_truth = rng.integers(0, 2, size=(n, 24)).astype(np.uint8)
            merged_truth[0, 1] = 1          # keep correct != inactive
            for row in merged_pred:
                if row.sum() == 0:
                    row[SNR_MERGED] = 1
            for row in merged_truth:
                if row.sum() == 0:
                    row[SNR_MERGED] = 1
            base = challenge_score(expand(merged_pred), expand(merged_truth),
                                   self.W_ID, cmap=CMAP).normalized
            for rec, cls in np.argwhere(merged_pred != merged_truth):
                repaired = merged_pred.copy()
                repaired[rec, cls] = merged_truth[rec, cls]
                if repaired[rec].sum() == 0:
                    continue   # repair may not leave a record empty
                score = challenge_score(expand(repaired), expand(merged_truth),
                                        self.W_ID, cmap=CMAP).normalized
                assert score >= base - 1e-12

    def test_partial_credit_makes_some_wrong_bits_beneficial(self):
        # counterexample to naive monotone repair: a false positive with
        # high off-diagonal reward earns more than the credit it dilutes
        a = CMAP.abbreviations.index("AF")
        b = CMAP.abbreviations.index("LBBB")
        g1 = CMAP.abbreviations.index("SB")
        g2 = CMAP.abbreviations.index("STach")
        w = np.eye(24)
        bm = int(CMAP.merged_index[b])
        w[bm, int(CMAP.merged_index[g1])] = 0.9
        w[bm, int(CMAP.merged_index[g2])] = 0.9
        matrix = RewardMatrix(values=w, abbreviations=CMAP.merged_abbreviations)
        truth = np.zeros((2, 27), dtype=np.uint8)
        truth[0, [g1, g2]] = 1
        truth[1, CMAP.abbreviations.index("AFL")] = 1   # calibration record
        pred = np.zeros((2, 27), dtype=np.uint8)
        pred[0, [a, b]] = 1
        pred[1, CMAP.abbreviations.index("AFL")] = 1
        with_fp = challenge_score(pred, truth, matrix, cmap=CMAP).normalized
        repaired = pred.copy()
        repaired[0, b] = 0
        without_fp = challenge_score(repaired, truth, matrix, cmap=CMAP).normalized
        assert without_fp < with_fp

    def test_degenerate_dataset_rejected(self):
        truth = np.zeros((3, 27), dtype=np.uint8)
        truth[:, CMAP.sinus_rhythm_index] = 1
        with pytest.raises(EcgdxError, match="correct and inactive scores coincide"):
            challenge_score(truth, truth, self.W_ID, cmap=CMAP)

    def test_alignment_checked(self):
        with pytest.raises(EcgdxError, match="do not align"):
            challenge_score(np.zeros((2, 27)), np.zeros((3, 27)), self.W_ID,
                            cmap=CMAP)


class TestRewardMatrix:
    def test_identity_default(self):
        w = RewardMatrix.identity(CMAP)
        assert w.values.shape == (24, 24)
        np.testing.assert_array_equal(np.diag(w.values), 1.0)

    def test_diagonal_must_be_one(self):
        w = np.eye(24)
        w[0, 0] = 0.9
        with pytest.raises(EcgdxError, match="diagonal must be exactly 1"):
            RewardMatrix(values=w, abbreviations=CMAP.merged_abbreviations)

    def test_entries_capped_at_one(self):
        w = np.eye(24)
        w[1, 2] = 1.5
        with pytest.raises(EcgdxError, match="must be <= 1"):
            RewardMatrix(values=w, abbreviations=CMAP.merged_abbreviations)

    def test_packaged_default_loads(self):
        from importlib import resources
        text = resources.files("ecgdx.data").joinpath(
            "reward_weights.csv").read_text(encoding="utf-8")
        w = RewardMatrix.from_csv(text)
        assert w.abbreviations == CMAP.merged_abbreviations


class TestPerClassMetrics:
    def test_perfect_separation(self):
        probs = np.array([[0.9], [0.8], [0.2], [0.1]])
        truths = np.array([[1], [1], [0], [0]])
        m = per_class_metrics(probs, truths, probs >= 0.36)
        assert m.auc[0] == 1.0

    def test_identical_scores_give_half(self):
        probs = np.full((6, 1), 0.4)
        truths = np.array([[1], [0], [1], [0], [1], [0]])
        m = per_class_metrics(probs, truths, probs >= 0.36)
        assert m.auc[0] == 0.5

    def test_hand_example(self):
        probs = np.array([[0.9], [0.8], [0.3]])
        truths = np.array([[1], [0], [1]])
        m = per_class_metrics(probs, truths, probs >= 0.36)
        assert m.auc[0] == 0.5
        assert abs(m.f1[0] - 0.5) < 1e-12

    def test_undefined_auc_marked(self):
        probs = np.array([[0.9], [0.8]])
        truths = np.array([[1], [1]])   # no negatives
        m = per_class_metrics(probs, truths, probs >= 0.36)
        assert np.isnan(m.auc[0])

    def test_zero_denominator_f1_is_zero(self):
        probs = np.array([[0.1], [0.2]])
        truths = np.array([[0], [0]])
        m = per_class_metrics(probs, truths, probs >= 0.36)
        assert m.f1[0] == 0.0
        assert isinstance(m, PerClassMetrics)
