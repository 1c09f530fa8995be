from pathlib import Path

import numpy as np
import pytest

from noisytrain.data import make_gaussian_blobs, round_half_up
from noisytrain.kernel import Matrix, wrap
from noisytrain.model import Arch, init_twins
from noisytrain.selection import (CutoffParams, DistributionError,
                                  DivergenceReport, baseline_global_select,
                                  compute_cutoff, compute_divergences,
                                  compute_filter_rate, divergences_from_probs,
                                  export_selection_csv, jsd, uniform_select)


class TestJsd:
    def test_identical_inputs_zero(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            assert jsd(p, p) == 0.0

    def test_disjoint_one_hots_exactly_one(self):
        assert jsd([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert jsd([0, 0, 1], [0, 1, 0]) == 1.0

    def test_worked_value(self):
        assert jsd([1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.311278, abs=1e-5)

    def test_symmetry_and_range(self, rng):
        for _ in range(200):
            c = rng.integers(2, 7)
            p = rng.dirichlet(np.ones(c))
            q = rng.dirichlet(np.ones(c))
            v = jsd(p, q)
            assert v == jsd(q, p)
            assert 0.0 <= v <= 1.0

    def test_zero_iff_equal(self, rng):
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            if np.max(np.abs(p - q)) > 1e-6:
                assert jsd(p, q) > 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(DistributionError, match="^y has negative or non-finite entries$"):
            jsd([bad, 1.0], [0.5, 0.5])
        with pytest.raises(DistributionError, match="^p has negative or non-finite entries$"):
            jsd([0.5, 0.5], [1.0, bad])

    def test_rejects_non_distribution(self):
        with pytest.raises(DistributionError):
            jsd([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(DistributionError):
            jsd([-0.1, 1.1], [0.5, 0.5])
        with pytest.raises(DistributionError):
            jsd([0.5, 0.5], [0.3, 0.3, 0.4])

    def test_vectorized_matches_scalar(self, rng):
        n, c = 40, 5
        probs = rng.dirichlet(np.ones(c), size=n)
        labels = rng.integers(0, c, size=n)
        report = divergences_from_probs(Matrix(probs), labels)
        for i in range(n):
            onehot = np.zeros(c)
            onehot[labels[i]] = 1.0
            assert report.d[i] == pytest.approx(jsd(onehot, probs[i]), abs=1e-12)


class TestComputeDivergences:
    def test_untrained_nets_cluster(self):
        ds = make_gaussian_blobs(4, 50, 6, 8.0, seed=2)
        twins = init_twins(Arch(6, 16, 4, 4), seed=0)
        report = compute_divergences(twins, ds)
        assert len(report) == len(ds)
        assert np.all((report.d > 0.0) & (report.d < 1.0))
        assert report.d.std() < 0.2

    def test_perfect_prediction_zero(self):
        ds = make_gaussian_blobs(2, 5, 3, 6.0, seed=2)
        onehot = np.zeros((len(ds), 2))
        onehot[np.arange(len(ds)), ds.given_labels] = 1.0
        report = divergences_from_probs(Matrix(onehot), ds.given_labels)
        assert np.all(report.d == 0.0)

    def test_report_invariants(self, rng):
        d = rng.uniform(0, 1, size=30)
        report = DivergenceReport.from_values(d)
        assert report.d_avg == pytest.approx(d.mean(), abs=1e-12)
        assert report.d_min == d.min()

    @pytest.mark.parametrize("d", [[0.1, np.nan, 0.3], [np.nan], [-0.1, 0.5], [0.5, 1.2]])
    def test_report_rejects_values_outside_unit_interval(self, d):
        with pytest.raises(ValueError, match=r"divergences must lie in \[0, 1\]"):
            DivergenceReport.from_values(d)

    def test_nan_probability_row_rejected(self):
        # unchecked softmax output (wrap, not Matrix) is how a NaN row arrives
        probs = wrap(np.array([[0.9, 0.1], [np.nan, np.nan], [0.2, 0.8]]))
        with pytest.raises(ValueError, match=r"divergences must lie in \[0, 1\]"):
            divergences_from_probs(probs, np.array([0, 1, 1]))


@pytest.mark.parametrize("kwargs", [{"tau": 0.0}, {"d_mu": 1.0}, {"quota_mode": "per_class"}])
def test_cutoff_params_validated(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        CutoffParams(**kwargs)


class TestCutoffAndFilterRate:
    def test_worked_value(self):
        report = DivergenceReport(np.array([0.2, 0.8]), d_avg=0.8, d_min=0.2)
        assert compute_cutoff(report, CutoffParams(tau=5.0, d_mu=0.7)) == pytest.approx(0.68, abs=1e-12)

    def test_below_threshold_branch(self):
        report = DivergenceReport(np.array([0.5]), d_avg=0.5, d_min=0.1)
        assert compute_cutoff(report, CutoffParams(tau=5.0, d_mu=0.7)) == 0.5

    def test_degenerate_spread(self):
        report = DivergenceReport(np.array([0.9]), d_avg=0.9, d_min=0.9)
        assert compute_cutoff(report, CutoffParams()) == pytest.approx(0.9, abs=1e-15)

    def test_cutoff_between_min_and_avg_when_high(self, rng):
        for _ in range(50):
            d = rng.uniform(0.5, 1.0, size=20)
            report = DivergenceReport.from_values(d)
            if report.d_avg >= 0.7:
                cut = compute_cutoff(report, CutoffParams())
                assert report.d_min <= cut <= report.d_avg

    def test_filter_rate_strict_inequality(self):
        report = DivergenceReport.from_values([0.1, 0.3, 0.68, 0.9])
        assert compute_filter_rate(report, 0.68) == 0.5

    def test_filter_rate_extremes(self):
        report = DivergenceReport.from_values([0.5, 0.6, 0.7])
        assert compute_filter_rate(report, 0.5) == 0.0
        assert compute_filter_rate(report, 0.71) == 1.0


def brute_force_uniform_select(d, labels, num_classes, rate):
    """Independent oracle: full sort per class, lowest round(R*N_c) win."""
    clean = []
    for c in range(num_classes):
        members = [i for i in range(len(d)) if labels[i] == c]
        members.sort(key=lambda i: (d[i], i))
        quota = round_half_up(rate * len(members))
        clean.extend(members[:quota])
    return sorted(clean)


class TestUniformSelect:
    def test_worked_example(self):
        d = np.array([0.1, 0.2, 0.9, 0.95, 0.05, 0.4, 0.6, 0.8])
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        report = DivergenceReport.from_values(d)
        sel = uniform_select(report, labels, 2, 0.5)
        assert sorted(sel.clean_indices.tolist()) == [0, 1, 4, 5]

    def test_rate_zero_empty(self):
        report = DivergenceReport.from_values([0.1, 0.2, 0.3, 0.4])
        sel = uniform_select(report, [0, 0, 1, 1], 2, 0.0)
        assert len(sel.clean_indices) == 0
        assert len(sel.noisy_indices) == 4

    def test_rate_one_everything(self):
        report = DivergenceReport.from_values([0.1, 0.2, 0.3, 0.4])
        sel = uniform_select(report, [0, 0, 1, 1], 2, 1.0)
        assert len(sel.clean_indices) == 4
        assert len(sel.noisy_indices) == 0

    def test_partition_is_exact(self, rng):
        d = rng.uniform(0, 1, 37)
        labels = rng.integers(0, 3, 37)
        report = DivergenceReport.from_values(d)
        sel = uniform_select(report, labels, 3, 0.4)
        combined = np.sort(np.concatenate([sel.clean_indices, sel.noisy_indices]))
        assert np.array_equal(combined, np.arange(37))
        assert len(np.intersect1d(sel.clean_indices, sel.noisy_indices)) == 0

    def test_oracle_equivalence_random_instances(self, rng):
        for _ in range(100):
            c = int(rng.integers(2, 7))
            n = int(rng.integers(20, 120))
            d = rng.uniform(0, 1, n)
            labels = rng.integers(0, c, n)
            rate = float(rng.uniform(0, 1))
            report = DivergenceReport.from_values(d)
            sel = uniform_select(report, labels, c, rate)
            oracle = brute_force_uniform_select(d, labels, c, rate)
            assert sel.clean_indices.tolist() == oracle

    def test_class_balance_for_equal_classes(self, rng):
        labels = np.repeat(np.arange(4), 25)
        d = rng.uniform(0, 1, 100)
        report = DivergenceReport.from_values(d)
        for rate in np.linspace(0, 1, 11):
            sel = uniform_select(report, labels, 4, float(rate))
            counts = np.bincount(labels[sel.clean_indices], minlength=4)
            assert counts.max() - counts.min() <= 1

    def test_monotone_in_rate(self, rng):
        labels = rng.integers(0, 3, 60)
        d = rng.uniform(0, 1, 60)
        report = DivergenceReport.from_values(d)
        previous = set()
        for rate in np.linspace(0, 1, 21):
            sel = uniform_select(report, labels, 3, float(rate))
            current = set(sel.clean_indices.tolist())
            assert previous <= current
            previous = current

    def test_dataset_fraction_quota_with_deficit(self):
        # class 1 holds 2 of 10 samples; target N*R/C = 3 exceeds it
        d = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.15, 0.25])
        labels = np.array([0, 0, 0, 0, 0, 0, 0, 0, 1, 1])
        report = DivergenceReport.from_values(d)
        sel = uniform_select(report, labels, 2, 0.6, quota_mode="dataset_fraction")
        counts = np.bincount(labels[sel.clean_indices], minlength=2)
        assert counts[1] == 2  # both available samples taken
        assert counts[0] == 3  # round(0.6 * 10 / 2)

    def test_label_range_validated(self):
        report = DivergenceReport.from_values([0.1, 0.2])
        with pytest.raises(ValueError):
            uniform_select(report, [0, 5], 2, 0.5)


class TestBaselineGlobalSelect:
    def test_same_as_uniform_on_balanced_example(self):
        d = np.array([0.1, 0.2, 0.9, 0.95, 0.05, 0.4, 0.6, 0.8])
        report = DivergenceReport.from_values(d)
        sel = baseline_global_select(report, 0.5, np.array([0, 0, 0, 0, 1, 1, 1, 1]), 2)
        assert sorted(sel.clean_indices.tolist()) == [0, 1, 4, 5]

    def test_skew_case_differs_from_uniform(self):
        d = np.concatenate([np.linspace(0.01, 0.1, 5), np.linspace(0.9, 0.99, 5)])
        labels = np.array([0] * 5 + [1] * 5)
        report = DivergenceReport.from_values(d)
        global_sel = baseline_global_select(report, 0.5, labels, 2)
        uniform_sel = uniform_select(report, labels, 2, 0.5)
        global_counts = np.bincount(labels[global_sel.clean_indices], minlength=2)
        uniform_counts = np.bincount(labels[uniform_sel.clean_indices], minlength=2)
        assert global_counts.tolist() == [5, 0]
        assert uniform_counts.tolist() == [3, 3]

    def test_rate_one_takes_everything(self):
        report = DivergenceReport.from_values([0.5, 0.1, 0.9])
        sel = baseline_global_select(report, 1.0, np.array([0, 1, 1]), 2)
        assert len(sel.clean_indices) == 3


both_selectors = pytest.mark.parametrize("select", [
    lambda report, labels, rate: uniform_select(report, labels, 2, rate),
    lambda report, labels, rate: baseline_global_select(report, rate, labels, 2),
], ids=["uniform", "baseline"])


@pytest.mark.parametrize("rate", [True, float("nan"), "0.5", -0.1, 1.5])
@both_selectors
def test_bad_filter_rate_is_named(select, rate):
    report = DivergenceReport.from_values([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError, match="^filter_rate: "):
        select(report, np.array([0, 0, 1, 1]), rate)


@pytest.mark.parametrize("labels,message", [
    ([0, 2, 1, 1], r"labels out of range \[0, 2\)"),
    ([0, -1, 1, 1], r"labels out of range \[0, 2\)"),
    ([0, 0, 1], "labels and divergences disagree in length"),
    ([0, 0, 1, 1, 1], "labels and divergences disagree in length"),
], ids=["label-C", "negative", "shorter", "longer"])
@both_selectors
def test_bad_labels_refused(select, labels, message):
    report = DivergenceReport.from_values([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError, match=f"^{message}$"):
        select(report, np.array(labels), 0.5)


def test_export_selection_csv(tmp_path, rng):
    d = rng.uniform(0, 1, 10)
    labels = rng.integers(0, 2, 10)
    report = DivergenceReport.from_values(d)
    sel = uniform_select(report, labels, 2, 0.5)
    path = str(tmp_path / "sel.csv")
    export_selection_csv(sel, report, labels, path)
    lines = Path(path).read_text().strip().split("\n")
    assert lines[0] == "index,given_label,d,selected"
    assert len(lines) == 11
    selected = {int(line.split(",")[0]) for line in lines[1:] if line.split(",")[3] == "1"}
    assert selected == set(sel.clean_indices.tolist())


def test_export_selection_csv_bytes_match_row_by_row_writer(tmp_path, rng):
    """Reference: the row-at-a-time writer the export replaced."""
    import csv
    for n in (1, 37, 500):
        labels = rng.integers(0, 4, n)
        report = DivergenceReport.from_values(rng.uniform(0, 1, n) ** 3)
        sel = uniform_select(report, labels, 4, 0.4)
        path = str(tmp_path / "sel.csv")
        export_selection_csv(sel, report, labels, path)
        mask = np.zeros(n, dtype=bool)
        mask[sel.clean_indices] = True
        ref = str(tmp_path / "ref.csv")
        with open(ref, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["index", "given_label", "d", "selected"])
            for i in range(n):
                w.writerow([i, int(labels[i]), repr(float(report.d[i])), int(mask[i])])
        assert Path(path).read_bytes() == Path(ref).read_bytes()


def test_export_selection_csv_rejects_length_mismatch(tmp_path):
    report = DivergenceReport.from_values([0.1, 0.2, 0.3])
    sel = uniform_select(report, [0, 1, 0], 2, 0.5)
    with pytest.raises(ValueError):
        export_selection_csv(sel, report, [0, 1], str(tmp_path / "sel.csv"))
