import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from noisytrain.data import make_gaussian_blobs, round_half_up
from noisytrain.model import Arch, ensemble_softmax, forward_softmax, init_twins
from noisytrain.selection import (DivergenceReport, SelectionResult, compute_cutoff,
                                  compute_filter_rate, divergences_from_probs,
                                  export_selection_csv, jsd, select_clean)
from noisytrain.training import AblationFlags, select_for_network


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
        with pytest.raises(ValueError, match="^y has negative or non-finite entries$"):
            jsd([bad, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="^p has negative or non-finite entries$"):
            jsd([0.5, 0.5], [1.0, bad])

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError, match=r"^y sums to 1\.10000000, not 1$"):
            jsd([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(ValueError, match="^y has negative or non-finite entries$"):
            jsd([-0.1, 1.1], [0.5, 0.5])
        with pytest.raises(ValueError, match="^length mismatch: 2 vs 3$"):
            jsd([0.5, 0.5], [0.3, 0.3, 0.4])

    def test_vectorized_matches_scalar(self, rng):
        n, c = 40, 5
        probs = rng.dirichlet(np.ones(c), size=n)
        labels = rng.integers(0, c, size=n)
        report = divergences_from_probs(probs, labels)
        for i in range(n):
            onehot = np.zeros(c)
            onehot[labels[i]] = 1.0
            assert report.d[i] == pytest.approx(jsd(onehot, probs[i]), abs=1e-12)

    def test_closed_form_matches_scalar_oracle(self, rng):
        rows = []
        for conc in (0.05, 1.0, 10.0):
            for _ in range(100):
                c = int(rng.integers(2, 13))
                rows.append((rng.dirichlet(np.full(c, conc)), int(rng.integers(0, c))))
        rows += [([0.0, 0.3, 0.7], 0), ([1.0, 0.0, 0.0], 0), ([0.0, 1.0, 0.0], 0),
                 ([0.0, 1.0], 1), ([0.0, 0.0, 0.0, 1.0], 2), ([0.5, 0.5], 0),
                 (np.full(7, 1 / 7), 3), (np.full(12, 1 / 12), 11)]
        for row, label in rows:
            row = np.asarray(row, dtype=np.float64)
            onehot = np.zeros(row.size)
            onehot[label] = 1.0
            d = divergences_from_probs(row[None, :], [label]).d[0]
            assert abs(d - jsd(onehot, row)) <= 1e-15, (row, label)

    def test_reads_no_full_size_temporary(self, rng):
        # one 20,000 x 50 float64 array is 8 MB; the call needs only per-row vectors
        n, c = 20_000, 50
        probs = rng.dirichlet(np.ones(c), size=n)
        labels = rng.integers(0, c, size=n)
        tracemalloc.start()
        try:
            divergences_from_probs(probs, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * c * 8


class TestComputeDivergences:
    def test_untrained_nets_cluster(self):
        ds = make_gaussian_blobs(4, 50, 6, 8.0, seed=2)
        twins = init_twins(Arch(6, 16, 4, 4), seed=0)
        probs = ensemble_softmax(forward_softmax(twins.net1, ds.features),
                                 forward_softmax(twins.net2, ds.features))
        report = divergences_from_probs(probs, ds.given_labels)
        assert len(report) == len(ds)
        assert np.all((report.d > 0.0) & (report.d < 1.0))
        assert report.d.std() < 0.2

    def test_perfect_prediction_zero(self):
        ds = make_gaussian_blobs(2, 5, 3, 6.0, seed=2)
        onehot = np.zeros((len(ds), 2))
        onehot[np.arange(len(ds)), ds.given_labels] = 1.0
        report = divergences_from_probs(onehot, ds.given_labels)
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
        # a network's own softmax is not scanned, so a NaN row can arrive
        probs = np.array([[0.9, 0.1], [np.nan, np.nan], [0.2, 0.8]])
        with pytest.raises(ValueError, match=r"divergences must lie in \[0, 1\]"):
            divergences_from_probs(probs, np.array([0, 1, 1]))

    @pytest.mark.parametrize("labels,message", [
        ([-1, 1, 0], r"given_labels: indices -1\.\.1 outside \[0, 2\)"),
        ([0, 2, 1], r"given_labels: indices 0\.\.2 outside \[0, 2\)"),
        ([0.5, 1.0, 0.0], r"given_labels: 0\.5 is not an integer"),
        ([0, 1], "given_labels: 2 labels for 3 prediction rows"),
    ], ids=["negative", "label-C", "fractional", "shorter"])
    def test_bad_labels_refused(self, labels, message):
        # a negative label would otherwise score against the last class
        probs = np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
        with pytest.raises(ValueError, match=f"^{message}$"):
            divergences_from_probs(probs, labels)

    @pytest.mark.parametrize("probs", [np.array([0.7, 0.3]), np.full((3, 2, 1), 0.5)],
                             ids=["1-D", "3-D"])
    def test_prediction_that_is_not_2d_refused(self, probs):
        with pytest.raises(ValueError,
                           match=f"^probs: expected a 2-D array, got {probs.ndim} dimensions$"):
            divergences_from_probs(probs, [0, 1, 1])


class TestCutoffAndFilterRate:
    def test_worked_value(self):
        report = DivergenceReport(np.array([0.2, 0.8]), d_avg=0.8, d_min=0.2)
        assert compute_cutoff(report) == pytest.approx(0.68, abs=1e-12)

    def test_below_threshold_branch(self):
        report = DivergenceReport(np.array([0.5]), d_avg=0.5, d_min=0.1)
        assert compute_cutoff(report) == 0.5

    def test_degenerate_spread(self):
        report = DivergenceReport(np.array([0.9]), d_avg=0.9, d_min=0.9)
        assert compute_cutoff(report) == pytest.approx(0.9, abs=1e-15)

    def test_cutoff_between_min_and_avg_when_high(self, rng):
        for _ in range(50):
            d = rng.uniform(0.5, 1.0, size=20)
            report = DivergenceReport.from_values(d)
            if report.d_avg >= 0.7:
                cut = compute_cutoff(report)
                assert report.d_min <= cut <= report.d_avg

    def test_filter_rate_strict_inequality(self):
        report = DivergenceReport.from_values([0.1, 0.3, 0.68, 0.9])
        assert compute_filter_rate(report, 0.68) == 0.5

    def test_filter_rate_extremes(self):
        report = DivergenceReport.from_values([0.5, 0.6, 0.7])
        assert compute_filter_rate(report, 0.5) == 0.0
        assert compute_filter_rate(report, 0.71) == 1.0


def brute_force_uniform_select(d, labels, num_classes, rate):
    """Independent oracle: full sort per class, lowest quota win, ties to the lower index.

    Every class has the quota round(R*N/C); a class with fewer samples gives them all.
    """
    clean = []
    for c in range(num_classes):
        members = [i for i in range(len(d)) if labels[i] == c]
        members.sort(key=lambda i: (d[i], i))
        clean.extend(members[:round_half_up(rate * len(d) / num_classes)])
    return sorted(clean)


def brute_force_global_select(d, rate):
    """Independent oracle for the class-blind arm: sort by (d, i), lowest round(R*N) win."""
    ranked = sorted(range(len(d)), key=lambda i: (d[i], i))
    return sorted(ranked[:round_half_up(rate * len(d))])


def _random_instance(rng, tied: bool):
    c = int(rng.integers(1, 8))
    n = int(rng.integers(1, 120))
    # a handful of values makes ties common; continuous draws almost never tie
    d = rng.choice(rng.uniform(0, 1, 4), n) if tied else rng.uniform(0, 1, n)
    labels = rng.integers(0, c, n)
    rate = float(rng.choice([0.0, 1.0, rng.uniform(0, 1)]))
    return c, d, labels, rate


class TestUniformSelect:
    def test_worked_example(self):
        d = np.array([0.1, 0.2, 0.9, 0.95, 0.05, 0.4, 0.6, 0.8])
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        report = DivergenceReport.from_values(d)
        sel = select_clean(report, labels, 2, 0.5)
        assert sorted(sel.clean_indices.tolist()) == [0, 1, 4, 5]

    def test_rate_zero_empty(self):
        report = DivergenceReport.from_values([0.1, 0.2, 0.3, 0.4])
        sel = select_clean(report, [0, 0, 1, 1], 2, 0.0)
        assert len(sel.clean_indices) == 0
        assert len(sel.noisy_indices) == 4

    def test_rate_one_everything(self):
        report = DivergenceReport.from_values([0.1, 0.2, 0.3, 0.4])
        sel = select_clean(report, [0, 0, 1, 1], 2, 1.0)
        assert len(sel.clean_indices) == 4
        assert len(sel.noisy_indices) == 0

    def test_partition_is_exact(self, rng):
        d = rng.uniform(0, 1, 37)
        labels = rng.integers(0, 3, 37)
        report = DivergenceReport.from_values(d)
        sel = select_clean(report, labels, 3, 0.4)
        combined = np.sort(np.concatenate([sel.clean_indices, sel.noisy_indices]))
        assert np.array_equal(combined, np.arange(37))
        assert len(np.intersect1d(sel.clean_indices, sel.noisy_indices)) == 0

    def test_oracle_equivalence_random_instances(self, rng):
        """Both arms against the oracles, with and without ties."""
        for tied in (False, True):
            for _ in range(100):
                c, d, labels, rate = _random_instance(rng, tied)
                report = DivergenceReport.from_values(d)
                sel = select_clean(report, labels, c, rate)
                assert sel.clean_indices.tolist() == brute_force_uniform_select(d, labels, c, rate)
                sel = select_clean(report, labels, c, rate, balancing=False)
                assert sel.clean_indices.tolist() == brute_force_global_select(d, rate)

    def test_one_class_both_arms_select_the_same_set(self, rng):
        for tied in (False, True):
            for _ in range(50):
                _, d, _, rate = _random_instance(rng, tied)
                labels = np.zeros(len(d), dtype=np.int64)
                report = DivergenceReport.from_values(d)
                assert select_clean(report, labels, 1, rate).clean_indices.tolist() == \
                    select_clean(report, labels, 1, rate, balancing=False).clean_indices.tolist()

    def test_class_balance_for_equal_classes(self, rng):
        labels = np.repeat(np.arange(4), 25)
        d = rng.uniform(0, 1, 100)
        report = DivergenceReport.from_values(d)
        for rate in np.linspace(0, 1, 11):
            sel = select_clean(report, labels, 4, float(rate))
            counts = np.bincount(labels[sel.clean_indices], minlength=4)
            assert counts.max() - counts.min() <= 1

    def test_monotone_in_rate(self, rng):
        labels = rng.integers(0, 3, 60)
        d = rng.uniform(0, 1, 60)
        report = DivergenceReport.from_values(d)
        previous = set()
        for rate in np.linspace(0, 1, 21):
            sel = select_clean(report, labels, 3, float(rate))
            current = set(sel.clean_indices.tolist())
            assert previous <= current
            previous = current

    def test_equal_quota_with_deficit(self):
        # class 1 holds 2 of 10 samples; target N*R/C = 3 exceeds it
        d = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.15, 0.25])
        labels = np.array([0, 0, 0, 0, 0, 0, 0, 0, 1, 1])
        report = DivergenceReport.from_values(d)
        sel = select_clean(report, labels, 2, 0.6)
        counts = np.bincount(labels[sel.clean_indices], minlength=2)
        assert counts[1] == 2  # both available samples taken
        assert counts[0] == 3  # round(0.6 * 10 / 2)

    def test_label_range_validated(self):
        report = DivergenceReport.from_values([0.1, 0.2])
        with pytest.raises(ValueError):
            select_clean(report, [0, 5], 2, 0.5)

    def test_fractional_labels_refused_not_truncated(self):
        report = DivergenceReport.from_values([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match=r"^given_labels: 0\.5 is not an integer$"):
            select_clean(report, [0.5, 1.5, 0.0], 2, 0.5)


class TestBaselineGlobalSelect:
    def test_same_as_uniform_on_balanced_example(self):
        d = np.array([0.1, 0.2, 0.9, 0.95, 0.05, 0.4, 0.6, 0.8])
        report = DivergenceReport.from_values(d)
        sel = select_clean(report, np.array([0, 0, 0, 0, 1, 1, 1, 1]), 2, 0.5, balancing=False)
        assert sorted(sel.clean_indices.tolist()) == [0, 1, 4, 5]

    def test_skew_case_differs_from_uniform(self):
        d = np.concatenate([np.linspace(0.01, 0.1, 5), np.linspace(0.9, 0.99, 5)])
        labels = np.array([0] * 5 + [1] * 5)
        report = DivergenceReport.from_values(d)
        global_sel = select_clean(report, labels, 2, 0.5, balancing=False)
        uniform_sel = select_clean(report, labels, 2, 0.5)
        global_counts = np.bincount(labels[global_sel.clean_indices], minlength=2)
        uniform_counts = np.bincount(labels[uniform_sel.clean_indices], minlength=2)
        assert global_counts.tolist() == [5, 0]
        assert uniform_counts.tolist() == [3, 3]

    def test_rate_one_takes_everything(self):
        report = DivergenceReport.from_values([0.5, 0.1, 0.9])
        sel = select_clean(report, np.array([0, 1, 1]), 2, 1.0, balancing=False)
        assert len(sel.clean_indices) == 3


both_selectors = pytest.mark.parametrize("balancing", [True, False], ids=["uniform", "baseline"])


@pytest.mark.parametrize("rate", [True, float("nan"), "0.5", -0.1, 1.5])
@both_selectors
def test_bad_filter_rate_is_named(balancing, rate):
    report = DivergenceReport.from_values([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError, match="^filter_rate: "):
        select_clean(report, np.array([0, 0, 1, 1]), 2, rate, balancing)


@pytest.mark.parametrize("labels,message", [
    ([0, 2, 1, 1], r"given_labels: indices 0\.\.2 outside \[0, 2\)"),
    ([0, -1, 1, 1], r"given_labels: indices -1\.\.1 outside \[0, 2\)"),
    ([0.5, 1.5, 0.0, 1.0], r"given_labels: 0\.5 is not an integer"),
    ([0, np.nan, 1, 1], r"given_labels: nan is not an integer"),
    ([False, True, True, False], r"given_labels: False is not an integer"),
    ([0, 0, 1], "labels and divergences disagree in length"),
    ([0, 0, 1, 1, 1], "labels and divergences disagree in length"),
], ids=["label-C", "negative", "fractional", "nan", "bool", "shorter", "longer"])
@both_selectors
def test_bad_labels_refused(balancing, labels, message):
    report = DivergenceReport.from_values([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError, match=f"^{message}$"):
        select_clean(report, np.array(labels), 2, 0.5, balancing)


@both_selectors
def test_prediction_of_another_width_refused(balancing):
    # a 4-column prediction for 3 classes would otherwise select 9 of 12 samples
    ds = make_gaussian_blobs(3, 4, 2, 6.0, seed=0)
    probs = np.full((len(ds), 4), 0.25)
    flags = AblationFlags(balancing=balancing)
    with pytest.raises(ValueError, match="^probs: 4 columns for a dataset of 3 classes$"):
        select_for_network(probs, ds, flags)


def test_export_selection_csv(tmp_path, rng):
    d = rng.uniform(0, 1, 10)
    labels = rng.integers(0, 2, 10)
    report = DivergenceReport.from_values(d)
    sel = select_clean(report, labels, 2, 0.5)
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
        sel = select_clean(report, labels, 4, 0.4)
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
    sel = select_clean(report, [0, 1, 0], 2, 0.5)
    with pytest.raises(ValueError):
        export_selection_csv(sel, report, [0, 1], str(tmp_path / "sel.csv"))


@pytest.mark.parametrize("labels,message", [
    ([0, 7, -1], r"given_labels: indices -1\.\.7 outside \[0, 2\)"),
    ([0.6, 1.9, 1.0], r"given_labels: 0\.6 is not an integer"),
], ids=["out-of-range", "fractional"])
def test_export_selection_csv_refuses_bad_labels(tmp_path, labels, message):
    # these were written as 7 and -1, or truncated to 0,1,1
    report = DivergenceReport.from_values([0.1, 0.2, 0.3])
    sel = select_clean(report, [0, 1, 0], 2, 0.5)
    path = tmp_path / "sel.csv"
    with pytest.raises(ValueError, match=f"^{message}$"):
        export_selection_csv(sel, report, labels, str(path))
    assert not path.exists()


def test_export_selection_csv_refuses_index_outside_report(tmp_path):
    # a negative index would otherwise mark the last sample selected
    report = DivergenceReport.from_values(np.full(40, 0.5))
    sel = SelectionResult(np.array([-1, 3]), np.array([0]), 0.5, 0.5, np.array([1, 1]))
    path = tmp_path / "sel.csv"
    with pytest.raises(ValueError, match=r"^clean_indices: indices -1\.\.3 outside \[0, 40\)$"):
        export_selection_csv(sel, report, np.zeros(40, dtype=np.int64), str(path))
    assert not path.exists()
