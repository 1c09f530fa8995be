import os
import re

import numpy as np
import pytest

from noisytrain import data
from noisytrain.data import (AugmentationSpec, LabeledDataset, NoiseSpec, apply_noise,
                             atomic_open, batch_iterator, inject_asymmetric_noise,
                             inject_symmetric_noise, load_dataset_csv,
                             make_gaussian_blobs, round_half_up, save_dataset_csv,
                             strong_augment, weak_augment)
from noisytrain.kernel import DTYPE, Matrix, wrap


class TestGaussianBlobs:
    def test_features_are_in_the_training_dtype(self):
        assert make_gaussian_blobs(3, 10, 4, 6.0, seed=3).features.data.dtype == DTYPE

    def test_counts_and_labels(self):
        ds = make_gaussian_blobs(2, 5, 2, 4.0, seed=7)
        assert len(ds) == 10
        assert (ds.true_labels == 0).sum() == 5
        assert (ds.true_labels == 1).sum() == 5
        assert np.array_equal(ds.true_labels, ds.given_labels)

    def test_same_seed_bit_identical(self):
        a = make_gaussian_blobs(3, 10, 4, 6.0, seed=3)
        b = make_gaussian_blobs(3, 10, 4, 6.0, seed=3)
        assert a.features.data.tobytes() == b.features.data.tobytes()
        assert np.array_equal(a.true_labels, b.true_labels)

    def test_different_seed_differs(self):
        a = make_gaussian_blobs(3, 10, 4, 6.0, seed=3)
        b = make_gaussian_blobs(3, 10, 4, 6.0, seed=4)
        assert a.features.data.tobytes() != b.features.data.tobytes()

    def test_nearest_centroid_oracle_at_high_separation(self):
        ds = make_gaussian_blobs(4, 100, 2, 8.0, seed=11)
        feats = ds.features.data
        centroids = np.stack([feats[ds.true_labels == c].mean(axis=0) for c in range(4)])
        dists = ((feats[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        predicted = dists.argmin(axis=1)
        assert (predicted == ds.true_labels).mean() > 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            make_gaussian_blobs(1, 5, 2, 4.0, seed=0)
        with pytest.raises(ValueError):
            make_gaussian_blobs(2, 5, 2, -1.0, seed=0)

    @pytest.mark.parametrize("name,value", [
        ("separation", float("nan")), ("separation", float("inf")),
        ("num_classes", 2.5), ("per_class", 2.5), ("dims", 2.5), ("per_class", True),
        ("seed", True), ("seed", -1), ("seed", 2 ** 62 + 1), ("seed", 3.0),
    ])
    def test_bad_argument_is_named(self, name, value):
        args = {"num_classes": 2, "per_class": 5, "dims": 2, "separation": 4.0, "seed": 0,
                name: value}
        with pytest.raises(ValueError, match=f"^{name}: "):
            make_gaussian_blobs(**args)


class TestSymmetricNoise:
    def test_rate_zero_is_identity(self):
        ds = make_gaussian_blobs(4, 25, 3, 6.0, seed=5)
        out = inject_symmetric_noise(ds, 0.0, seed=9)
        assert np.array_equal(out.given_labels, ds.given_labels)

    def test_rate_one_two_classes_flips_everything(self):
        ds = make_gaussian_blobs(2, 20, 2, 6.0, seed=5)
        out = inject_symmetric_noise(ds, 1.0, seed=9)
        assert np.array_equal(out.given_labels, 1 - out.true_labels)

    def test_exact_corruption_count(self):
        ds = make_gaussian_blobs(4, 100, 3, 6.0, seed=5)
        out = inject_symmetric_noise(ds, 0.5, seed=9)
        assert (out.given_labels != out.true_labels).sum() == 200
        for c in range(4):
            members = out.true_labels == c
            assert (out.given_labels[members] != c).sum() == 50

    def test_never_touches_features_or_true_labels(self):
        ds = make_gaussian_blobs(3, 30, 3, 6.0, seed=5)
        out = inject_symmetric_noise(ds, 0.7, seed=9)
        assert out.features.data.tobytes() == ds.features.data.tobytes()
        assert np.array_equal(out.true_labels, ds.true_labels)

    def test_corrupted_labels_exclude_own_class(self):
        ds = make_gaussian_blobs(5, 40, 3, 6.0, seed=5)
        out = inject_symmetric_noise(ds, 1.0, seed=9)
        assert np.all(out.given_labels != out.true_labels)


class TestAsymmetricNoise:
    def test_rate_zero_unchanged(self):
        ds = make_gaussian_blobs(3, 10, 3, 6.0, seed=2)
        out = inject_asymmetric_noise(ds, 0.0, (1, 2, 0), seed=4)
        assert np.array_equal(out.given_labels, ds.given_labels)

    def test_rate_one_shifts_every_label(self):
        ds = make_gaussian_blobs(3, 10, 3, 6.0, seed=2)
        out = inject_asymmetric_noise(ds, 1.0, (1, 2, 0), seed=4)
        assert np.array_equal(out.given_labels, (out.true_labels + 1) % 3)

    def test_exact_counts_and_targets(self):
        ds = make_gaussian_blobs(3, 10, 3, 6.0, seed=2)
        fm = (1, 2, 0)
        out = inject_asymmetric_noise(ds, 0.4, fm, seed=4)
        for c in range(3):
            members = out.true_labels == c
            corrupted = out.given_labels[members] != c
            assert corrupted.sum() == 4
            assert np.all(out.given_labels[members][corrupted] == fm[c])

    def test_flip_map_entries_must_be_integers(self):
        ds = make_gaussian_blobs(3, 10, 3, 6.0, seed=2)
        with pytest.raises(ValueError, match="class 1 must be an integer, got float 2.0"):
            inject_asymmetric_noise(ds, 0.5, (1, 2.0, 0), seed=4)
        numpy_ints = inject_asymmetric_noise(ds, 0.5, np.array([1, 2, 0]), seed=4)
        python_ints = inject_asymmetric_noise(ds, 0.5, (1, 2, 0), seed=4)
        assert np.array_equal(numpy_ints.given_labels, python_ints.given_labels)

    def test_self_map_rejected(self):
        ds = make_gaussian_blobs(3, 10, 3, 6.0, seed=2)
        with pytest.raises(ValueError):
            inject_asymmetric_noise(ds, 0.5, (0, 2, 0), seed=4)

    def test_apply_noise_takes_the_seed(self):
        ds = make_gaussian_blobs(3, 10, 3, 6.0, seed=2)
        sym = apply_noise(ds, NoiseSpec(rate=0.4), seed=4)
        assert np.array_equal(sym.given_labels,
                              inject_symmetric_noise(ds, 0.4, seed=4).given_labels)
        asym = apply_noise(ds, NoiseSpec("asymmetric", 0.4, (1, 2, 0)), seed=4)
        assert np.array_equal(asym.given_labels,
                              inject_asymmetric_noise(ds, 0.4, (1, 2, 0), seed=4).given_labels)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="weird", rate=0.5)
        with pytest.raises(ValueError):
            NoiseSpec(kind="asymmetric", rate=0.5, flip_map=None)


@pytest.mark.parametrize("inject", [
    lambda ds, rate, seed: inject_symmetric_noise(ds, rate, seed),
    lambda ds, rate, seed: inject_asymmetric_noise(ds, rate, (1, 2, 0), seed),
], ids=["symmetric", "asymmetric"])
class TestNoiseLoop:
    @pytest.mark.parametrize("name,rate,seed", [
        ("rate", True, 0), ("rate", float("nan"), 0), ("rate", "0.5", 0), ("rate", -0.1, 0),
        ("rate", 1.5, 0), ("seed", 0.5, True), ("seed", 0.5, -1), ("seed", 0.5, 2 ** 62 + 1),
        ("seed", 0.5, 4.0),
    ])
    def test_bad_argument_is_named(self, inject, name, rate, seed):
        ds = make_gaussian_blobs(3, 10, 3, 6.0, seed=2)
        with pytest.raises(ValueError, match=f"^{name}: "):
            inject(ds, rate, seed)

    def test_result_shares_features_and_true_labels(self, inject):
        ds = make_gaussian_blobs(3, 10, 3, 6.0, seed=2)
        given = ds.given_labels.tobytes()
        out = inject(ds, 0.5, 4)
        assert out.features is ds.features and out.true_labels is ds.true_labels
        assert not np.shares_memory(out.given_labels, ds.given_labels)
        assert ds.given_labels.tobytes() == given
        assert (out.given_labels != out.true_labels).sum() == 3 * 5


class TestAugmentation:
    def test_weak_sigma_zero_is_identity(self):
        spec = AugmentationSpec(weak_sigma=0.0, strong_sigma=0.5, strong_dropout_prob=0.2)
        x = np.array([[1.0, -2.0, 3.0]])
        out = weak_augment(x, spec, np.random.default_rng(0))
        assert np.array_equal(out, x)

    def test_strong_identity_when_disabled(self):
        spec = AugmentationSpec(weak_sigma=0.0, strong_sigma=0.0, strong_dropout_prob=0.0)
        x = np.array([[1.0, -2.0, 3.0]])
        out = strong_augment(x, spec, np.random.default_rng(0))
        assert np.array_equal(out, x)

    def test_weak_noise_is_centered(self):
        spec = AugmentationSpec(weak_sigma=0.3, strong_sigma=0.5)
        x = np.zeros((10_000, 2))
        out = weak_augment(x, spec, np.random.default_rng(42))
        tol = 3 * 0.3 / np.sqrt(10_000)
        assert np.all(np.abs(out.mean(axis=0)) < tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_draws_are_made_in_the_input_dtype(self, dtype):
        spec = AugmentationSpec(weak_sigma=0.1, strong_sigma=0.5, strong_dropout_prob=0.2)
        x = np.ones((6, 3), dtype=dtype)
        weak = weak_augment(x, spec, np.random.default_rng(5))
        strong = strong_augment(x, spec, np.random.default_rng(5))
        assert weak.dtype == strong.dtype == dtype
        # the noise is a standard normal draw of that dtype, scaled by sigma
        z = np.random.default_rng(5).standard_normal(x.shape, dtype=dtype)
        assert np.array_equal(weak, z * dtype(0.1) + x)

    def test_dimensionality_preserved(self):
        spec = AugmentationSpec()
        x = np.ones((4, 7))
        assert weak_augment(x, spec, np.random.default_rng(1)).shape == (4, 7)
        assert strong_augment(x, spec, np.random.default_rng(1)).shape == (4, 7)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AugmentationSpec(weak_sigma=0.5, strong_sigma=0.1)
        with pytest.raises(ValueError):
            AugmentationSpec(strong_dropout_prob=1.0)


class TestBatchIterator:
    def test_single_full_batch_is_permutation(self):
        batches = batch_iterator(np.arange(10), 10, seed=1, epoch=0)
        assert len(batches) == 1
        assert sorted(batches[0].tolist()) == list(range(10))

    def test_same_key_same_batches(self):
        a = batch_iterator(np.arange(50), 8, seed=3, epoch=2)
        b = batch_iterator(np.arange(50), 8, seed=3, epoch=2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_epoch_changes_order(self):
        a = batch_iterator(np.arange(50), 8, seed=3, epoch=2)
        b = batch_iterator(np.arange(50), 8, seed=3, epoch=3)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_short_final_batch_kept(self):
        batches = batch_iterator(np.arange(10), 4, seed=1, epoch=0)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_empty_indices(self):
        assert batch_iterator(np.array([], dtype=np.int64), 4, seed=1, epoch=0) == []

    @pytest.mark.parametrize("batch_size", [True, 2.5])
    def test_bad_batch_size_is_named(self, batch_size):
        with pytest.raises(ValueError, match="^batch_size: "):
            batch_iterator(np.arange(10), batch_size, seed=1, epoch=0)

    @pytest.mark.parametrize("name,seed,epoch", [
        ("seed", True, 0), ("seed", -1, 0), ("seed", (3, 2.5), 0), ("seed", (3, True), 0),
        ("epoch", 1, True), ("epoch", 1, -1), ("epoch", 1, 1.5),
    ])
    def test_bad_seed_or_epoch_is_named(self, name, seed, epoch):
        with pytest.raises(ValueError, match=f"^{name}: "):
            batch_iterator(np.arange(10), 4, seed=seed, epoch=epoch)

    @pytest.mark.parametrize("indices,message", [
        ([0.5, 1.7, 2.2], r"indices: 0\.5 is not an integer"),
        ([0, np.nan], r"indices: nan is not an integer"),
        ([2, -1, 0], r"indices: indices -1\.\.2 outside \[0, inf\)"),
    ], ids=["fractional", "nan", "negative"])
    def test_entries_that_are_not_sample_indices_refused(self, indices, message):
        # fractions were truncated to batches [1, 2] and [0]
        with pytest.raises(ValueError, match=f"^{message}$"):
            batch_iterator(indices, 2, 1, 0)


class TestCsvRoundTrip:
    def test_lossless(self, tmp_path):
        ds = make_gaussian_blobs(3, 20, 5, 6.0, seed=13)
        ds = inject_symmetric_noise(ds, 0.3, seed=14)
        path = str(tmp_path / "snapshot.csv")
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path)
        assert np.array_equal(loaded.true_labels, ds.true_labels)
        assert np.array_equal(loaded.given_labels, ds.given_labels)
        assert np.array_equal(loaded.features.data, ds.features.data)
        assert loaded.num_classes == ds.num_classes

    def test_bytes_match_row_by_row_writer(self, tmp_path):
        """Reference: a csv-module row writer of nine significant digits; the
        last three sizes end on, just past and one block past a block."""
        import csv
        rng = np.random.default_rng(23)
        block = data._SNAPSHOT_BLOCK_ROWS
        for n, dims in ((1, 1), (9, 1), (40, 64), (300, 8),
                        (block, 2), (block + 1, 2), (2 * block + 1, 1)):
            feats = rng.standard_normal((n, dims)) * 10.0 ** rng.integers(-8, 8, (n, dims))
            feats = feats.astype(DTYPE)   # what a dataset holds
            feats[0, 0] = -0.0    # the other entries are of both signs
            labels = rng.integers(0, 3, n)
            ds = LabeledDataset(Matrix(feats), labels, rng.integers(0, 3, n), 3)
            path, ref = tmp_path / "snapshot.csv", tmp_path / "ref.csv"
            save_dataset_csv(ds, str(path))
            with open(ref, "w", newline="") as f:
                w = csv.writer(f, lineterminator="\n")
                w.writerow([f"feat_{j}" for j in range(dims)] + ["true_label", "given_label"])
                for i in range(n):
                    w.writerow(["%.9g" % v for v in feats[i]]
                               + [str(int(ds.true_labels[i])), str(int(ds.given_labels[i]))])
            assert path.read_bytes() == ref.read_bytes()
            assert b"-0," in path.read_bytes()
            assert np.array_equal(load_dataset_csv(str(path), num_classes=3).features.data, feats)

    def test_every_float32_reloads_bit_exact(self, tmp_path):
        # random bit patterns over every exponent, then the edges: signed
        # zeros, the largest and smallest magnitudes, and the float32 nearest
        # to and the one just above each power of ten it holds
        rng = np.random.default_rng(29)
        finite = rng.integers(0, 2 ** 32, 200_000, dtype=np.uint64).astype(np.uint32)
        finite = finite[(finite & 0x7F800000) != 0x7F800000].view(np.float32)
        tiny = np.float32(np.finfo(np.float32).smallest_subnormal)
        big = np.finfo(np.float32).max
        powers = np.array([10.0 ** k for k in range(-45, 39)], dtype=DTYPE)
        powers = np.concatenate([powers, np.nextafter(powers, np.float32(np.inf))])
        values = np.concatenate([finite, [0.0, -0.0, big, -big, tiny, -tiny], powers, -powers])
        values = values.astype(DTYPE).reshape(-1, 1)
        n = len(values)
        ds = LabeledDataset(Matrix(values), np.zeros(n, dtype=np.int64),
                            np.ones(n, dtype=np.int64), 2)
        path = str(tmp_path / "snapshot.csv")
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path, num_classes=2).features.data
        assert loaded.dtype == DTYPE
        assert np.array_equal(loaded.view(np.uint32), values.view(np.uint32))

    def test_features_not_in_the_training_dtype_refused(self, tmp_path):
        # nine digits would round a float64 feature; nothing is written
        ds = make_gaussian_blobs(2, 3, 2, 6.0, seed=13)
        ds = LabeledDataset(wrap(ds.features.data.astype(np.float64)), ds.true_labels,
                            ds.given_labels, 2)
        with pytest.raises(ValueError, match="^features: the snapshot holds float32 values, "
                                             "got float64$"):
            save_dataset_csv(ds, str(tmp_path / "snapshot.csv"))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("num_classes", [None, 3], ids=["inferred", "given"])
    def test_header_only_file_refused(self, tmp_path, num_classes):
        path = tmp_path / "snapshot.csv"
        path.write_text("feat_0,feat_1,true_label,given_label\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} holds no rows$"):
            load_dataset_csv(str(path), num_classes=num_classes)

    @pytest.mark.parametrize("bad_row,detail", [
        ("0.5,x,1,1", "could not convert string to float: 'x'"),
        ("0.5,1.5,1,one", "invalid literal for int() with base 10: 'one'"),
        ("0.5,nan,1,1", "feature values must be finite"),
        ("-inf,1.5,1,1", "feature values must be finite"),
    ], ids=["feature", "label", "nan-feature", "inf-feature"])
    def test_unparsable_field_names_path_and_row(self, tmp_path, bad_row, detail):
        path = tmp_path / "snapshot.csv"
        path.write_text(f"feat_0,feat_1,true_label,given_label\n0.1,0.2,0,0\n{bad_row}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: row 2: {detail}')}$"):
            load_dataset_csv(str(path))

    @pytest.mark.parametrize("value", ["1e39", "-3.5e38", "1e300"])
    def test_value_overflowing_the_training_dtype_names_path_and_row(self, tmp_path, value):
        # finite in float64, so the row's own check passes; float32 would make it inf
        path = tmp_path / "snapshot.csv"
        path.write_text(f"feat_0,feat_1,true_label,given_label\n0.1,0.2,0,0\n0.5,1.5,1,1\n"
                        f"0.5,{value},1,1\n")
        message = f"{path}: row 3: value {float(value)!r} overflows float32"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_dataset_csv(str(path))

    def test_largest_float32_loads_exactly(self, tmp_path):
        path = tmp_path / "snapshot.csv"
        big = float(np.finfo(np.float32).max)
        path.write_text(f"feat_0,true_label,given_label\n{big!r},0,0\n{-big!r},1,1\n")
        features = load_dataset_csv(str(path)).features.data
        assert features.dtype == DTYPE and features.ravel().tolist() == [big, -big]

    def test_out_of_range_label_names_path(self, tmp_path):
        path = tmp_path / "snapshot.csv"
        path.write_text("feat_0,true_label,given_label\n0.1,1,1\n0.5,-1,1\n")
        message = f"{path}: true_labels: indices -1..1 outside [0, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_dataset_csv(str(path))

    def test_header_shape(self, tmp_path):
        ds = make_gaussian_blobs(2, 3, 4, 6.0, seed=13)
        path = str(tmp_path / "snapshot.csv")
        save_dataset_csv(ds, path)
        with open(path) as f:
            header = f.readline().strip().split(",")
        assert header == [f"feat_{j}" for j in range(4)] + ["true_label", "given_label"]


class TestAtomicOpen:
    @pytest.mark.parametrize("mode,old,part", [("w", "a,b\n1,2\n", "a,b\n"),
                                               ("wb", b"\x00\x01old", b"\x02new")])
    def test_body_raising_midway_leaves_old_file(self, tmp_path, mode, old, part):
        path = tmp_path / "out"
        (path.write_text if isinstance(old, str) else path.write_bytes)(old)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="midway"):
            with atomic_open(str(path), mode) as f:
                f.write(part)
                raise RuntimeError("midway")
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out"]

    def test_body_raising_creates_nothing(self, tmp_path):
        with pytest.raises(KeyError):
            with atomic_open(str(tmp_path / "new.csv")) as f:
                f.write("partial")
                raise KeyError("x")
        assert os.listdir(tmp_path) == []

    def test_text_written_as_given(self, tmp_path):
        path = tmp_path / "t.csv"
        with atomic_open(str(path)) as f:
            f.write("a\nb\r\n")
        assert path.read_bytes() == b"a\nb\r\n"
        assert os.listdir(tmp_path) == ["t.csv"]


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(3.5) == 4
    assert round_half_up(2.49) == 2
    assert round_half_up(0.0) == 0


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(Matrix(np.zeros((3, 2))), np.array([0, 1]), np.array([0, 1, 0]), 2)
    with pytest.raises(ValueError):
        LabeledDataset(Matrix(np.zeros((2, 2))), np.array([0, 5]), np.array([0, 1]), 2)
    # fractional, NaN and boolean labels are refused, not truncated
    for labels, bad in (([0.7, 1.2], "0.7"), ([0.0, np.nan], "nan"), ([True, False], "True")):
        with pytest.raises(ValueError, match=f"^true_labels: {bad} is not an integer$"):
            LabeledDataset(Matrix([[0.0, 1.0], [1.0, 0.0]]), labels, [0, 1], 2)
    assert LabeledDataset(Matrix([[0.0, 1.0], [1.0, 0.0]]), [1.0, 0.0], [0, 1], 2) \
        .true_labels.tolist() == [1, 0]
    for num_classes in (True, 2.5):
        with pytest.raises(ValueError, match="num_classes"):
            LabeledDataset(Matrix(np.zeros((2, 2))), np.array([0, 1]), np.array([0, 1]),
                           num_classes)
