import numpy as np
import pytest

from noisytrain.data import make_gaussian_blobs
from noisytrain.kernel import Matrix
from noisytrain.metrics import (_tied_ranks, accuracy, pseudo_label_recall, roc_auc,
                                selection_precision_recall)
from noisytrain.model import Arch, ensemble_softmax, forward_softmax, init_twins
from noisytrain.selection import DivergenceReport, SelectionResult, select_clean


def make_selection(clean, total):
    clean = np.asarray(clean, dtype=np.int64)
    mask = np.zeros(total, dtype=bool)
    mask[clean] = True
    return SelectionResult(clean, np.flatnonzero(~mask), 0.0, 0.0,
                           np.empty(0, dtype=np.int64))


def dataset_with_labels(true_labels, given_labels, num_classes):
    n = len(true_labels)
    feats = Matrix(np.random.default_rng(0).normal(size=(n, 2)))
    from noisytrain.data import LabeledDataset
    return LabeledDataset(feats, np.array(true_labels), np.array(given_labels), num_classes)


class TestPrecisionRecall:
    def test_noise_free_precision_one(self):
        ds = dataset_with_labels([0, 1, 0, 1], [0, 1, 0, 1], 2)
        precision, _ = selection_precision_recall(make_selection([0, 2], 4), ds)
        assert precision == 1.0

    def test_perfect_selection(self):
        ds = dataset_with_labels([0, 1, 0, 1], [0, 1, 1, 1], 2)  # sample 2 corrupted
        sel = make_selection([0, 1, 3], 4)
        precision, recall = selection_precision_recall(sel, ds)
        assert precision == 1.0 and recall == 1.0

    def test_counting_example(self):
        # 8 samples, 6 truly clean; select 4 of which 3 truly clean
        true = [0] * 8
        given = [0, 0, 0, 0, 0, 0, 1, 1]
        ds = dataset_with_labels(true, given, 2)
        sel = make_selection([0, 1, 2, 6], 8)
        precision, recall = selection_precision_recall(sel, ds)
        assert precision == 0.75
        assert recall == 0.5

    def test_empty_selection_convention(self):
        ds = dataset_with_labels([0, 1], [0, 1], 2)
        precision, recall = selection_precision_recall(make_selection([], 2), ds)
        assert precision is None and recall == 0.0

    def test_no_truly_clean_sample_leaves_recall_undefined(self):
        ds = dataset_with_labels([0, 1], [1, 0], 2)
        precision, recall = selection_precision_recall(make_selection([0], 2), ds)
        assert precision == 0.0 and recall is None


def loop_tied_ranks(values):
    """Reference: walk the sorted values, giving each run of ties its mid-rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestTiedRanks:
    def test_matches_loop_on_tie_heavy_inputs(self, rng):
        for _ in range(2000):
            n = int(rng.integers(0, 60))
            levels = rng.uniform(0, 1, int(rng.integers(1, 6)))
            values = rng.choice(levels, size=n)
            assert np.array_equal(_tied_ranks(values), loop_tied_ranks(values))

    def test_matches_loop_on_distinct_and_signed_zero(self, rng):
        for values in (rng.uniform(-1, 1, 50), np.array([0.0, -0.0, 0.0, 1.0]),
                       np.array([0.5]), np.empty(0)):
            assert np.array_equal(_tied_ranks(values), loop_tied_ranks(values))

    def test_worked_mid_ranks(self):
        assert _tied_ranks(np.array([0.3, 0.1, 0.3, 0.2])).tolist() == [3.5, 1.0, 3.5, 2.0]


class TestRocAuc:
    def _ds(self, true, given):
        return dataset_with_labels(true, given, 2)

    def test_perfect_separation(self):
        ds = self._ds([0, 0, 0, 0], [0, 0, 1, 1])
        report = DivergenceReport.from_values([0.1, 0.2, 0.8, 0.9])
        assert roc_auc(report, ds) == 1.0

    def test_identical_scores_half(self):
        ds = self._ds([0, 0, 0, 0], [0, 0, 1, 1])
        report = DivergenceReport.from_values([0.5, 0.5, 0.5, 0.5])
        assert roc_auc(report, ds) == 0.5

    def test_worked_value(self):
        ds = self._ds([0, 0, 0, 0], [0, 0, 1, 1])
        report = DivergenceReport.from_values([0.1, 0.4, 0.3, 0.9])
        assert roc_auc(report, ds) == 0.75

    def test_single_class_undefined(self):
        # no truly-noisy sample, then no truly-clean one
        report = DivergenceReport.from_values([0.1, 0.2])
        assert roc_auc(report, self._ds([0, 0], [0, 0])) is None
        assert roc_auc(report, self._ds([0, 0], [1, 1])) is None

    def test_oracle_equivalence_with_ties(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 40))
            d = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)  # force ties
            clean_mask = rng.random(n) < 0.5
            if clean_mask.all() or not clean_mask.any():
                continue
            true = np.zeros(n, dtype=int)
            given = np.where(clean_mask, 0, 1)
            ds = self._ds(true.tolist(), given.tolist())
            report = DivergenceReport.from_values(d)
            fast = roc_auc(report, ds)
            # brute-force pair counting, ties worth 1/2
            scores = 1.0 - d
            total, correct = 0, 0.0
            for i in np.flatnonzero(clean_mask):
                for j in np.flatnonzero(~clean_mask):
                    total += 1
                    if scores[i] > scores[j]:
                        correct += 1.0
                    elif scores[i] == scores[j]:
                        correct += 0.5
            assert fast == pytest.approx(correct / total, abs=1e-12)


def ensemble(twins, x):
    return ensemble_softmax(forward_softmax(twins.net1, x), forward_softmax(twins.net2, x))


class TestPseudoLabelRecall:
    def test_macro_average_arithmetic(self):
        # class 2 has no member in the noisy set, so the average is over 0 and 1
        ds = make_gaussian_blobs(3, 15, 4, 8.0, seed=3)
        probs = ensemble(init_twins(Arch(4, 16, 3, 4), seed=1), ds.features)
        idx = np.flatnonzero(ds.true_labels != 2)[::2]
        predicted = probs[idx].argmax(1)
        true = ds.true_labels[idx]
        manual = np.mean([np.mean(predicted[true == c] == c) for c in (0, 1)])
        assert pseudo_label_recall(probs, ds, idx) == manual

    def test_empty_noisy_set_is_none(self):
        ds = make_gaussian_blobs(2, 5, 4, 10.0, seed=3)
        probs = ensemble(init_twins(Arch(4, 16, 2, 4), seed=1), ds.features)
        assert pseudo_label_recall(probs, ds, []) is None
        assert pseudo_label_recall(probs, ds, np.array([], dtype=np.int64)) is None


class TestAccuracy:
    def test_three_of_four(self):
        ds = make_gaussian_blobs(2, 50, 4, 10.0, seed=9)
        probs = ensemble(init_twins(Arch(4, 16, 2, 4), seed=2), ds.features)
        manual = float((probs.argmax(axis=1) == ds.true_labels).mean())
        assert accuracy(probs, ds.true_labels) == manual

    def test_perfect_labels(self):
        ds = make_gaussian_blobs(2, 50, 4, 10.0, seed=9)
        probs = ensemble(init_twins(Arch(4, 16, 2, 4), seed=2), ds.features)
        assert accuracy(probs, probs.argmax(axis=1)) == 1.0

    def test_fractional_labels_refused_not_truncated(self):
        probs = np.array([[0.2, 0.8], [0.3, 0.7]])
        with pytest.raises(ValueError, match=r"^labels: 0\.9 is not an integer$"):
            accuracy(probs, [0.9, 1.0])


@pytest.mark.parametrize("call,message", [
    (lambda probs, ds: accuracy(probs, [0]),
     "labels: 1 entries for a dataset of 40 samples"),
    (lambda probs, ds: accuracy(probs, np.full(40, 7)),
     r"labels: indices 7\.\.7 outside \[0, 2\)"),
    (lambda probs, ds: accuracy(probs, np.full(40, -1)),
     r"labels: indices -1\.\.-1 outside \[0, 2\)"),
    (lambda probs, ds: roc_auc(DivergenceReport.from_values(np.full(10, 0.5)), ds),
     "report: 10 entries for a dataset of 40 samples"),
    (lambda probs, ds: selection_precision_recall(
        SelectionResult(np.array([-1, 3]), np.array([0]), 0.5, 0.5, np.array([1, 1])), ds),
     r"clean_indices: indices -1\.\.3 outside \[0, 40\)"),
    (lambda probs, ds: pseudo_label_recall(probs, ds, [3, 40]),
     r"noisy_indices: indices 3\.\.40 outside \[0, 40\)"),
    (lambda probs, ds: pseudo_label_recall(probs[:39], ds, [3]),
     "probs: 39 entries for a dataset of 40 samples"),
    (lambda probs, ds: pseudo_label_recall(np.full((40, 3), 1 / 3), ds, [3]),
     "probs: 3 columns for a dataset of 2 classes"),
], ids=["accuracy-labels", "accuracy-label-above", "accuracy-label-below", "auc-report",
        "precision-negative-index", "pseudo-recall-index", "pseudo-recall-probs",
        "pseudo-recall-probs-width"])
def test_inputs_of_another_size_refused(call, message):
    ds = make_gaussian_blobs(2, 20, 4, 10.0, seed=3)
    with pytest.raises(ValueError, match=message):
        call(ensemble(init_twins(Arch(4, 16, 2, 4), seed=1), ds.features), ds)


@pytest.mark.parametrize("probs", [np.full(4, 0.5), np.full((4, 2, 1), 0.5)], ids=["1-D", "3-D"])
def test_prediction_that_is_not_2d_refused(probs):
    # a 1-D row would otherwise read its argmax as one prediction for every label
    ds = make_gaussian_blobs(2, 2, 4, 10.0, seed=3)
    with pytest.raises(ValueError, match=f"^probs: expected a 2-D array, got {probs.ndim} dimensions$"):
        accuracy(probs, ds.true_labels)
    with pytest.raises(ValueError, match=f"^probs: expected a 2-D array, got {probs.ndim} dimensions$"):
        pseudo_label_recall(probs, ds, [0])


class TestClassHistogram:
    """``class_counts`` holds each class's selected count."""

    def test_uniform_selection_balanced(self, rng):
        labels = np.repeat(np.arange(4), 30)
        d = rng.uniform(0, 1, 120)
        report = DivergenceReport.from_values(d)
        sel = select_clean(report, labels, 4, 0.5)
        counts = sel.class_counts
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == len(sel.clean_indices)

    def test_empty_selection_zeros(self):
        labels = np.array([0, 1, 0, 1])
        report = DivergenceReport.from_values([0.1, 0.2, 0.3, 0.4])
        sel = select_clean(report, labels, 2, 0.0)
        assert len(sel.clean_indices) == 0
        assert sel.class_counts.tolist() == [0, 0]

    def test_skewed_baseline_histogram(self):
        d = np.concatenate([np.linspace(0.01, 0.1, 6), np.linspace(0.9, 0.99, 6)])
        labels = np.array([0] * 6 + [1] * 6)
        report = DivergenceReport.from_values(d)
        sel = select_clean(report, labels, 2, 0.5, balancing=False)
        assert sel.class_counts.tolist() == [6, 0]


@pytest.mark.parametrize("seed", range(12))
def test_per_class_quota_is_the_selected_count_per_class(seed):
    """``class_counts``, the count each class contributes, in every arm and quota mode."""
    rng = np.random.default_rng(seed)
    C = int(rng.integers(2, 7))
    labels = rng.integers(0, C, int(rng.integers(1, 80)))
    labels[rng.permutation(len(labels))[:int(rng.integers(0, len(labels)))]] = 0   # skew
    report = DivergenceReport.from_values(rng.uniform(0, 1, len(labels)))
    for rate in (0.0, 1.0, float(rng.uniform())):
        for sel in (select_clean(report, labels, C, rate),
                    select_clean(report, labels, C, rate, quota_mode="dataset_fraction"),
                    select_clean(report, labels, C, rate, balancing=False)):
            counts = np.bincount(labels[sel.clean_indices], minlength=C)
            assert sel.class_counts.tolist() == counts.tolist()
