import csv
import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from noisytrain.cli import main
from noisytrain.config import ConfigError, config_from_dict, config_to_dict, parse_config
from noisytrain.data import (LabeledDataset, load_dataset_csv, make_gaussian_blobs, round_half_up,
                             save_dataset_csv)
from noisytrain.kernel import Matrix
from noisytrain.metrics import EpochMetrics
from noisytrain.runner import (METRICS_COLUMNS, _check_snapshot, build_datasets, cmd_ablate,
                               cmd_generate, cmd_report, cmd_run, hist_ratio, write_metrics_csv)

TINY = {
    "dataset": {"num_classes": 3, "per_class": 20, "test_per_class": 10,
                "dims": 4, "separation": 8.0},
    "noise": {"kind": "symmetric", "rate": 0.4},
    "arch": {"hidden": 16, "embed_dim": 4},
    "hyperparams": {"batch_size": 16, "warmup_epochs": 1, "total_epochs": 3},
    "seed": 5,
}


def write_config(tmp_path, overrides=None, name="config.json"):
    raw = json.loads(json.dumps(TINY))
    if overrides:
        for key, value in overrides.items():
            section, _, field = key.partition(".")
            if field:
                raw.setdefault(section, {})[field] = value
            else:
                raw[section] = value
    raw["output_dir"] = str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestConfigParsing:
    def test_empty_object_gives_all_defaults(self):
        cfg = config_from_dict({})
        hp = cfg.hyperparams
        assert hp.T == 0.5 and hp.lambda_u == 30.0 and hp.lambda_c == 0.025
        assert hp.lambda_r == 1.0 and hp.kappa == 0.05 and hp.d_omega == 0.5
        assert hp.alpha == 4.0 and hp.lr == 0.02 and hp.momentum == 0.9
        assert hp.weight_decay == 5e-4 and hp.batch_size == 64
        assert cfg.selection.tau == 5.0 and cfg.selection.d_mu == 0.7

    def test_unknown_key_rejected_with_name(self):
        with pytest.raises(ConfigError, match=r"^unknown key: noise\.ratee$"):
            config_from_dict({"noise": {"ratee": 0.5}})
        with pytest.raises(ConfigError, match="^unknown key: extras$"):
            config_from_dict({"extras": {}})

    def test_out_of_range_names_key(self):
        with pytest.raises(ConfigError, match=r"^noise\.rate: 1\.5 out of range "):
            config_from_dict({"noise": {"rate": 1.5}})
        with pytest.raises(ConfigError, match=r"^hyperparams\.T: -1\.0 out of range "):
            config_from_dict({"hyperparams": {"T": -1.0}})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="^config file not found: .*nope\\.json$"):
            parse_config(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="^malformed JSON in .*bad\\.json: "):
            parse_config(str(path))

    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path)
        cfg = parse_config(path)
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_flip_map_validated(self):
        with pytest.raises(ConfigError,
                           match=r"^noise\.flip_map: flip_map maps class 0 to itself$"):
            config_from_dict({"dataset": {"num_classes": 3},
                              "noise": {"kind": "asymmetric", "flip_map": [0, 2, 1]}})

    def test_seed_override_reaches_hyperparams(self, tmp_path):
        path = write_config(tmp_path)
        rc = main(["generate", "--config", path, "--seed", "99",
                   "--out", str(tmp_path / "seeded")])
        assert rc == 0


class TestBuildDatasets:
    def test_split_sizes_and_noise(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        train, test = build_datasets(cfg)
        assert len(train) == 60 and len(test) == 30
        corrupted = (train.given_labels != train.true_labels).sum()
        assert corrupted == 3 * round(0.4 * 20)
        assert np.array_equal(test.given_labels, test.true_labels)

    def test_test_split_disjoint_from_train(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        train, test = build_datasets(cfg)
        train_rows = {tuple(row) for row in train.features.data}
        test_rows = {tuple(row) for row in test.features.data}
        assert not train_rows & test_rows

    def test_each_class_block_splits_into_train_head_and_test_tail(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        d = cfg.dataset
        train, test = build_datasets(cfg)
        pooled = make_gaussian_blobs(d.num_classes, d.per_class + d.test_per_class, d.dims,
                                     d.separation, cfg.hyperparams.seed)
        blocks = pooled.features.data.reshape(d.num_classes, -1, d.dims)
        assert train.features.data.tobytes() == blocks[:, :d.per_class].tobytes()
        assert test.features.data.tobytes() == blocks[:, d.per_class:].tobytes()
        assert np.array_equal(train.true_labels, np.repeat(np.arange(d.num_classes), d.per_class))
        assert np.array_equal(test.true_labels,
                              np.repeat(np.arange(d.num_classes), d.test_per_class))


class TestCommands:
    def test_generate_counts_and_idempotence(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        path = cmd_generate(cfg)
        lines = Path(path).read_text().strip().split("\n")
        assert len(lines) == 61  # header + 60 rows
        first = Path(path).read_bytes()
        cmd_generate(cfg)
        assert Path(path).read_bytes() == first

    def test_generate_high_noise_count(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {"noise.rate": 0.8}))
        path = cmd_generate(cfg)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        corrupted = sum(r["true_label"] != r["given_label"] for r in rows)
        assert corrupted == 3 * round(0.8 * 20)

    def test_run_outputs_and_schema(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        summary = cmd_run(cfg)
        out = cfg.output_dir
        assert os.path.exists(os.path.join(out, "metrics.csv"))
        assert os.path.exists(os.path.join(out, "checkpoint.bin"))
        assert os.path.exists(os.path.join(out, "summary.json"))
        with open(os.path.join(out, "metrics.csv")) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3
        assert rows[0]["phase"] == "warmup"
        assert rows[0]["R"] == "" and rows[0]["roc_auc"] == ""
        assert rows[1]["phase"] == "ssl"
        assert rows[1]["R"] != ""
        assert summary["best_acc"] >= summary["last_acc"]
        assert not [p for p in os.listdir(out) if p.endswith(".tmp")]

    def test_noise_free_run_writes_an_undefined_auc_as_empty(self, tmp_path):
        # every sample is truly clean, so the AUC has no truly-noisy side
        cfg = parse_config(write_config(tmp_path, {"noise.rate": 0.0, "dataset.per_class": 40}))
        cmd_run(cfg)
        with open(os.path.join(cfg.output_dir, "metrics.csv")) as f:
            rows = list(csv.DictReader(f))
        assert [r["phase"] for r in rows] == ["warmup", "ssl", "ssl"]
        assert all(r["R"] != "" and r["roc_auc"] == "" for r in rows[1:])
        summary = Path(cfg.output_dir, "summary.json").read_text()
        assert json.loads(summary)["final_auc"] is None and '"final_auc": null' in summary

    def test_empty_selection_writes_an_undefined_precision_as_empty(self, tmp_path):
        # tau just above 1 and d_mu near 0 put the cutoff just above d_min: R is
        # 1/90 and every class's quota rounds to 0, so no sample is selected
        cfg = parse_config(write_config(tmp_path, {"dataset.per_class": 30, "selection": {
            "tau": 1.000001, "d_mu": 1e-9}}))
        cmd_run(cfg)
        with open(os.path.join(cfg.output_dir, "metrics.csv")) as f:
            rows = list(csv.DictReader(f))
        assert [r["phase"] for r in rows] == ["warmup", "ssl", "ssl"]
        assert all(float(r["R"]) == 1 / 90 and r["precision"] == "" and float(r["recall"]) == 0.0
                   for r in rows[1:])

    def test_run_byte_identical_across_repeats(self, tmp_path):
        cfg_a = parse_config(write_config(tmp_path))
        import dataclasses
        cfg_b = dataclasses.replace(cfg_a, output_dir=str(tmp_path / "out_b"))
        cmd_run(cfg_a)
        cmd_run(cfg_b)
        a = Path(cfg_a.output_dir, "metrics.csv").read_bytes()
        b = Path(cfg_b.output_dir, "metrics.csv").read_bytes()
        assert a == b

    def test_warmup_only_run(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, {"hyperparams.warmup_epochs": 2, "hyperparams.total_epochs": 2}))
        summary = cmd_run(cfg)
        with open(os.path.join(cfg.output_dir, "metrics.csv")) as f:
            rows = list(csv.DictReader(f))
        assert all(r["phase"] == "warmup" for r in rows)
        assert all(r["R"] == "" for r in rows)
        assert summary["final_R"] is None

    def test_selection_export_wiring(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        import dataclasses
        from noisytrain.training import AblationFlags
        cfg = dataclasses.replace(cfg, ablation=AblationFlags(balancing=False))
        cmd_run(cfg, export_selection=True)
        export = os.path.join(cfg.output_dir, "selection_epoch001_net1.csv")
        with open(export) as f:
            rows = list(csv.DictReader(f))
        d = np.array([float(r["d"]) for r in rows])
        selected = np.array([int(r["selected"]) for r in rows], dtype=bool)
        k = int(selected.sum())
        order = np.lexsort((np.arange(len(d)), d))
        expected = np.zeros(len(d), dtype=bool)
        expected[order[:k]] = True
        assert np.array_equal(selected, expected)  # globally lowest-d wins

    def test_dataset_fraction_quota_reaches_selection(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {"selection.quota_mode": "dataset_fraction"}))
        summary = cmd_run(cfg)
        train, _ = build_datasets(cfg)
        with open(os.path.join(cfg.output_dir, "metrics.csv")) as f:
            first_ssl = next(r for r in csv.DictReader(f) if r["phase"] == "ssl")
        R, n, C = float(first_ssl["R"]), len(train), train.num_classes
        sizes = np.bincount(train.given_labels, minlength=C).tolist()
        expected = [min(n_c, round_half_up(R * n / C)) for n_c in sizes]
        assert summary["first_ssl_class_counts"] == expected
        # unequal class sizes, so class_fraction would have selected other counts
        assert expected != [round_half_up(R * n_c) for n_c in sizes]

    def test_ablate_emits_four_arms(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        summaries = cmd_ablate(cfg)
        assert set(summaries) == {"full", "no_balancing", "no_cl", "no_ensemble"}
        table = os.path.join(cfg.output_dir, "ablation_summary.csv")
        with open(table) as f:
            rows = list(csv.DictReader(f))
        assert [r["arm"] for r in rows] == ["full", "no_balancing", "no_cl", "no_ensemble"]
        for arm in summaries:
            assert os.path.exists(os.path.join(cfg.output_dir, arm, "metrics.csv"))

    def test_report_long_format(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        cmd_run(cfg)
        out = cmd_report(os.path.join(cfg.output_dir, "metrics.csv"),
                         os.path.join(cfg.output_dir, "report_long.csv"))
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert set(rows[0]) == {"epoch", "phase", "metric", "value"}
        assert all(r["value"] != "" for r in rows)
        metrics_seen = {r["metric"] for r in rows}
        assert "test_acc" in metrics_seen and "R" in metrics_seen


class TestMainEntry:
    def test_run_and_report_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 0
        assert main(["report", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "best_acc" in out

    def test_config_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"noise": {"rate": 2.0}}))
        assert main(["run", "--config", str(path)]) == 1
        assert "noise.rate" in capsys.readouterr().err

    def test_missing_config_exit_one(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("make,message", [
        (lambda p: p.mkdir(), "cannot read config file {path}: Is a directory"),
        (lambda p: p.write_bytes(b"\xff\xfe{}"),
         "config file {path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
         "position 0: invalid start byte"),
        (lambda p: p.write_text("{not json"),
         "malformed JSON in {path}: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        (lambda p: p.write_text("[1]"), "top level: expected a JSON object"),
        (lambda p: p.write_text('{"extras": {}}'), "unknown key: extras"),
        (lambda p: p.write_text('{"noise": {"rate": 1.5}}'),
         "noise.rate: 1.5 out of range [0.0, 1.0]"),
    ], ids=["directory", "binary", "malformed", "not-an-object", "unknown-key", "out-of-range"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, make, message):
        # every refusal of a config is one stderr line with the one prefix
        path = tmp_path / "cfg.json"
        make(path)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"config error: {message.format(path=path)}\n"

    def test_report_before_run_fails(self, tmp_path, capsys):
        path = write_config(tmp_path, name="cfg2.json")
        assert main(["report", "--config", path, "--out", str(tmp_path / "empty")]) == 1

    def test_report_on_empty_metrics_names_the_file(self, tmp_path, capsys):
        path = write_config(tmp_path)
        metrics = tmp_path / "out" / "metrics.csv"
        metrics.parent.mkdir()
        metrics.write_text("")
        assert main(["report", "--config", path]) == 1
        assert capsys.readouterr().err == f"error: {metrics} has no header line\n"
        assert not (tmp_path / "out" / "report_long.csv").exists()

    @pytest.mark.parametrize("row", ["1,warmup,0.5", "1,warmup,0.5,0.9,,0.1"],
                             ids=["short", "long"])
    def test_report_refuses_a_row_unlike_the_header(self, tmp_path, capsys, row):
        path = write_config(tmp_path)
        metrics = tmp_path / "out" / "metrics.csv"
        metrics.parent.mkdir()
        metrics.write_text(f"epoch,phase,R,test_acc\n0,warmup,,0.5\n{row}\n")
        assert main(["report", "--config", path]) == 1
        fields = row.count(",") + 1
        assert capsys.readouterr().err == (f"error: {metrics}: row 2 has {fields} fields, "
                                           f"the header 4\n")
        assert not (tmp_path / "out" / "report_long.csv").exists()

    def test_stale_snapshot_refused(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"

        def outputs():
            return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}

        assert main(["run", "--config", path]) == 0
        before = outputs()
        stale = write_config(tmp_path, {"noise.rate": 0.1}, name="stale.json")
        assert main(["run", "--config", stale]) == 1
        assert main(["run", "--config", path, "--seed", "6"]) == 1
        err = capsys.readouterr().err
        assert err.count(str(out / "dataset.csv")) == 2
        assert outputs() == before
        assert main(["run", "--config", path]) == 0
        assert outputs() == before

    def test_generate_refuses_another_configs_snapshot(self, tmp_path, capsys):
        path = write_config(tmp_path)
        snap = tmp_path / "out" / "dataset.csv"
        assert main(["generate", "--config", path, "--seed", "1"]) == 0
        before = snap.read_bytes()
        assert main(["generate", "--config", path, "--seed", "2"]) == 1
        assert str(snap) in capsys.readouterr().err
        assert snap.read_bytes() == before
        assert os.listdir(tmp_path / "out") == ["dataset.csv"]
        assert main(["run", "--config", path, "--seed", "1"]) == 0

    @pytest.mark.parametrize("content", [
        "feat_0,feat_1,feat_2,feat_3,true_label,given_label\n",
        "feat_0,feat_1,feat_2,feat_3,true_label,given_label\nx,1,2,3,0,0\n",
        "feat_0,feat_1,feat_2,feat_3,true_label,given_label\n1,2\n",
        "not a snapshot\n",
        "",
    ])
    def test_unreadable_snapshot_refused(self, tmp_path, capsys, content):
        path = write_config(tmp_path)
        os.makedirs(tmp_path / "out")
        (tmp_path / "out" / "dataset.csv").write_text(content)
        assert main(["run", "--config", path]) == 1
        assert str(tmp_path / "out" / "dataset.csv") in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == ["dataset.csv"]

    @pytest.mark.parametrize("rows", [1, 1024, 2049])
    def test_snapshot_check_takes_exactly_the_written_bytes(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        ds = LabeledDataset(Matrix(rng.standard_normal((rows, 2))), rng.integers(0, 3, rows),
                            np.zeros(rows), 3)
        path = tmp_path / "dataset.csv"
        save_dataset_csv(ds, str(path))
        _check_snapshot(str(path), ds)
        text = path.read_text()
        # cut short, one row longer, the last label changed
        for stale in (text[:-1], text + "0.0,0.0,0,0\n", text[:-2] + "1\n"):
            path.write_text(stale)
            with pytest.raises(ValueError, match="was not generated from this config"):
                _check_snapshot(str(path), ds)

    def test_respelled_snapshot_refused(self, tmp_path, capsys):
        # the same numbers in other spelling are not the bytes this config writes
        path = write_config(tmp_path)
        snap = tmp_path / "out" / "dataset.csv"
        assert main(["run", "--config", path]) == 0
        original = load_dataset_csv(str(snap))
        header, first, rest = snap.read_text().split("\n", 2)
        fields = first.split(",")
        j = next(i for i, v in enumerate(fields) if "." in v and "e" not in v)
        fields[j] += "0"                                  # e.g. 1.5 -> 1.50
        snap.write_text("\n".join([header, ",".join(fields), rest]))
        respelled = load_dataset_csv(str(snap))
        assert np.array_equal(respelled.features.data, original.features.data)
        assert main(["run", "--config", path]) == 1
        assert str(snap) in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, name="cfg3.json")
        assert main(["run", "--config", path, "--seed", "-4"]) == 1
        assert "seed" in capsys.readouterr().err


def test_zero_epoch_run_summary(tmp_path):
    cfg = parse_config(write_config(
        tmp_path, {"hyperparams.warmup_epochs": 0, "hyperparams.total_epochs": 0}))
    summary = cmd_run(cfg)
    assert summary["best_acc"] is None and summary["last_acc"] is None


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_zero_epoch_command_exits_zero(tmp_path, capsys, command):
    path = write_config(
        tmp_path, {"hyperparams.warmup_epochs": 0, "hyperparams.total_epochs": 0})
    assert main([command, "--config", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    if command == "run":
        assert lines == [f"best_acc=n/a last_acc=n/a outputs in {tmp_path / 'out'}"]
    else:
        assert lines[:4] == [f"{arm}: best_acc=n/a last_acc=n/a"
                             for arm in ("full", "no_balancing", "no_cl", "no_ensemble")]


def test_metrics_writer_failing_midway_keeps_previous_file(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    cmd_run(cfg)
    path = os.path.join(cfg.output_dir, "metrics.csv")
    with open(path, "rb") as f:
        before = f.read()
    row = EpochMetrics(epoch=0, phase="warmup", test_acc=0.5, train_acc_given=0.5, loss_lx=0.1)
    bad = dataclasses.replace(row, epoch=1, test_acc="not a number")
    with pytest.raises(ValueError):
        write_metrics_csv([row, bad], path)
    with open(path, "rb") as f:
        assert f.read() == before
    assert not [n for n in os.listdir(cfg.output_dir) if n.endswith(".tmp")]


def test_metrics_columns_are_the_written_header():
    assert METRICS_COLUMNS == ["epoch", "phase", "R", "d_cutoff", "precision", "recall",
                               "roc_auc", "pseudo_recall", "test_acc", "train_acc_given",
                               "loss_lx", "loss_lu", "loss_reg", "loss_lc"]


def test_warmup_row_writes_empty_selection_and_loss_cells(tmp_path):
    path = tmp_path / "metrics.csv"
    row = EpochMetrics(epoch=0, phase="warmup", test_acc=0.5, train_acc_given=0.25, loss_lx=0.125)
    write_metrics_csv([row], str(path))
    assert path.read_text().split("\n")[1:] == ["0,warmup,,,,,,,0.5,0.25,0.125,,,", ""]


def test_epoch_metrics_refuses_positional_fields():
    with pytest.raises(TypeError):
        EpochMetrics(0, "warmup", None, None, None, None, None, None, 0.5, 0.5,
                     0.1, None, None, None)


def test_hist_ratio():
    assert hist_ratio([10, 10, 10]) == 1.0
    assert hist_ratio([20, 10]) == 2.0
    assert hist_ratio([5, 0]) == float("inf")
    assert np.isnan(hist_ratio(None))
