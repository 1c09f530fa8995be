"""Acceptance suite: formula oracles, gradient checks, selection equivalence,
and directional desk-scale experiments.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The desk experiments train twin 64-wide networks on 4-class
Gaussian blobs (8-D, separation 8, 250 samples per class) and are fully
deterministic for the pinned seed.

Criterion 5 measures memorization at the budget where each side shows it.
Its plain-CE arm trains on the desk data and architecture (seed 17, lr 0.02,
momentum 0.9, weight decay 5e-4) at a constant learning rate for 300
epochs, long enough for cross-entropy to fit the noisy labels after the
clean ones.  The robust side is the 60-epoch desk run.  The 60-epoch CE
twin of the desk run remains criterion 4's test-accuracy baseline and one of
criterion 8's byte-compared runs.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import as_float64, f64, finite_difference_grad, max_relative_error
from noisytrain.config import config_from_dict
from noisytrain.data import round_half_up
from noisytrain.kernel import GradientTape, backward, wrap
from noisytrain.model import (PHI, PSI, THETA, Arch, forward_logits,
                              forward_projection, init_network)
from noisytrain.runner import cmd_ablate, cmd_run, hist_ratio
from noisytrain.selection import (CutoffParams, DivergenceReport,
                                  compute_cutoff, jsd, select_clean)
from noisytrain.training import (Hyperparams, loss_contrastive, loss_lu,
                                 loss_lx, loss_reg, mixup_with_lambda,
                                 sharpen, total_loss)

SEED = 17
CE_MEMORIZATION_EPOCHS = 300

DESK = {
    "dataset": {"num_classes": 4, "per_class": 250, "test_per_class": 100,
                "dims": 8, "separation": 8.0},
    "noise": {"kind": "symmetric", "rate": 0.5},
    "arch": {"hidden": 64, "embed_dim": 16},
    "hyperparams": {"warmup_epochs": 10, "total_epochs": 60},
    "seed": SEED,
}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def desk_config(outdir, rate=0.5, warmup=10, total=60, **hyperparams):
    raw = {**DESK, "output_dir": str(outdir)}
    raw["noise"] = {**raw["noise"], "rate": rate}
    raw["hyperparams"] = {**raw["hyperparams"], "warmup_epochs": warmup,
                          "total_epochs": total, **hyperparams}
    return config_from_dict(raw)


def read_metrics(outdir):
    import csv
    with open(os.path.join(str(outdir), "metrics.csv")) as f:
        return list(csv.DictReader(f))


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """The flagship run and its CE-only twin (same 60-epoch budget)."""
    base = tmp_path_factory.mktemp("desk")
    t0 = time.time()
    cmd_run(desk_config(base / "full"))
    elapsed_full = time.time() - t0
    cmd_run(desk_config(base / "ce", warmup=60))
    return {
        "dir": base,
        "elapsed_full": elapsed_full,
        "full": read_metrics(base / "full"),
        "ce": read_metrics(base / "ce"),
    }


@pytest.fixture(scope="module")
def ce_memorization_run(tmp_path_factory):
    """Plain CE on the desk data at a constant learning rate for 300 epochs."""
    out = tmp_path_factory.mktemp("ce_memorization")
    cmd_run(desk_config(out, warmup=CE_MEMORIZATION_EPOCHS, total=CE_MEMORIZATION_EPOCHS,
                        lr_decay_factor=1.0))
    return read_metrics(out)


@pytest.fixture(scope="module")
def ablation_runs(tmp_path_factory):
    """Four ablation arms at 80% symmetric noise, shared seed and dataset."""
    base = tmp_path_factory.mktemp("ablate")
    t0 = time.time()
    summaries = cmd_ablate(desk_config(base, rate=0.8))
    return {"dir": base, "elapsed": time.time() - t0, "summaries": summaries}


def scalar_jsd_oracle(y, p):
    """Independent plain-Python recomputation of the divergence formula."""
    m = [(a + b) / 2.0 for a, b in zip(y, p)]
    def kld(u, v):
        return sum(ui * math.log2(ui / vi) for ui, vi in zip(u, v) if ui > 0.0)
    return 0.5 * kld(y, m) + 0.5 * kld(p, m)


def test_criterion_1_formula_oracles():
    t0 = time.time()
    rng = np.random.default_rng(0)

    for _ in range(50):
        c = int(rng.integers(2, 7))
        p, q = rng.dirichlet(np.ones(c)), rng.dirichlet(np.ones(c))
        assert jsd(p, q) == jsd(q, p)
        assert 0.0 <= jsd(p, q) <= 1.0
        assert jsd(p, p) == 0.0
    assert jsd([1, 0], [0, 1]) == 1.0
    worked = jsd([1.0, 0.0], [0.5, 0.5])
    assert worked == pytest.approx(scalar_jsd_oracle([1.0, 0.0], [0.5, 0.5]), abs=1e-12)
    assert worked == pytest.approx(0.311278, abs=1e-5)

    high = DivergenceReport(np.array([0.2, 0.8]), d_avg=0.8, d_min=0.2)
    assert compute_cutoff(high, CutoffParams(tau=5.0, d_mu=0.7)) == pytest.approx(0.68, abs=1e-12)
    low = DivergenceReport(np.array([0.5]), d_avg=0.5, d_min=0.1)
    assert compute_cutoff(low, CutoffParams(tau=5.0, d_mu=0.7)) == 0.5

    assert np.allclose(sharpen(np.array([[0.8, 0.2]]), 0.5),
                       [[0.941176, 0.058824]], atol=1e-6)
    _, mixed_targets = mixup_with_lambda(np.array([[0.0]]), np.array([[1.0, 0.0]]),
                                         np.array([[1.0]]), np.array([[0.0, 1.0]]), np.array([0.7]))
    assert np.allclose(mixed_targets, [[0.7, 0.3]], atol=1e-6)

    assert loss_lx(f64([[0.0, 0.0]]), np.array([[0.5, 0.5]])).item() == pytest.approx(math.log(2), abs=1e-6)
    assert loss_lu(f64([[math.log(0.6), math.log(0.4)]]),
                   np.array([[1.0, 0.0]])).item() == pytest.approx(0.32, abs=1e-6)
    assert loss_reg(f64([[math.log(0.9), math.log(0.1)]]), 2).item() == pytest.approx(0.510826, abs=1e-6)

    assert loss_contrastive(f64([[1.0, 0.0], [0.0, 1.0]]), 0.05).item() == 0.0
    assert loss_contrastive(f64(np.tile([1.0, 0.0], (4, 1))),
                            0.05).item() == pytest.approx(math.log(3), abs=1e-9)
    assert loss_contrastive(f64([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
                            0.05).item() < 1e-8
    assert total_loss(f64([[0.5]]), f64([[0.01]]), f64([[0.1]]), f64([[1.0]]),
                      Hyperparams()).item() == pytest.approx(0.925, abs=1e-9)

    elapsed = time.time() - t0
    ok = elapsed < 10.0
    report(1, ok, f"formula oracles reproduced, {elapsed:.1f}s")
    assert ok


def _non_degenerate_batch(arch, trial):
    """Draw a net and batch clear of ReLU kinks and zero-norm projections.

    Finite differences perturb by 1e-5, so every pre-activation must sit
    safely away from zero for the ReLU mask to stay fixed.  The network and
    the batch are float64: central differences at h = 1e-5 need its precision.
    """
    from reference_ops import add_row, matmul, relu
    for attempt in range(100):
        net = as_float64(init_network(arch, seed=trial * 100 + attempt))
        rng = np.random.default_rng(1000 + trial * 100 + attempt)
        x = wrap(rng.normal(size=(4, arch.in_dim)))
        targets = rng.dirichlet(np.ones(arch.num_classes), size=4)
        p = net.params
        pre1 = add_row(matmul(x, p["w1"]), p["b1"])
        h1 = relu(pre1)
        pre2 = add_row(matmul(h1, p["w2"]), p["b2"])
        h2 = relu(pre2)
        proj = add_row(matmul(h2, p["wp"]), p["bp"])
        norms = np.linalg.norm(proj.data, axis=1)
        if (np.abs(pre1.data).min() > 1e-3 and np.abs(pre2.data).min() > 1e-3
                and norms.min() > 1e-2):
            return net, x, targets
    raise RuntimeError("could not draw a non-degenerate gradient-check batch")


def test_criterion_2_gradient_suite():
    t0 = time.time()
    arch = Arch(in_dim=3, hidden=4, num_classes=3, embed_dim=3)
    hp = Hyperparams()
    worst = 0.0
    for trial in range(3):
        net, x, targets = _non_degenerate_batch(arch, trial)

        def make(loss_name):
            def forward(tape=None):
                logits = forward_logits(net, x, tape)
                if loss_name == "lx":
                    return loss_lx(logits, targets, tape)
                if loss_name == "lu":
                    return loss_lu(logits, targets, tape)
                if loss_name == "lreg":
                    return loss_reg(logits, 3, tape)
                if loss_name == "lc":
                    return loss_contrastive(forward_projection(net, x, tape), hp.kappa, tape)
                return total_loss(loss_lx(logits, targets, tape),
                                  loss_lu(logits, targets, tape),
                                  loss_reg(logits, 3, tape),
                                  loss_contrastive(forward_projection(net, x, tape), hp.kappa, tape),
                                  hp, tape)
            return forward

        for loss_name in ("lx", "lu", "lreg", "lc", "ltot"):
            forward = make(loss_name)
            tape = GradientTape()
            for p in net.params.values():
                tape.watch(p)
            grads = backward(tape, forward(tape))
            for group in (THETA, PHI, PSI):
                mats = [net.params[n] for n in group]
                fd = finite_difference_grad(lambda: forward().item(), mats, h=1e-5)
                for m, numeric in zip(mats, fd):
                    worst = max(worst, max_relative_error(grads[m], numeric))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    report(2, ok, f"reverse-mode vs central differences, max rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_3_selection_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(7)
    for _ in range(200):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(20, 201))
        d = rng.uniform(0, 1, n)
        labels = rng.integers(0, c, n)
        rate = float(rng.uniform(0, 1))
        report_obj = DivergenceReport.from_values(d)
        sel = select_clean(report_obj, labels, c, rate)
        oracle = []
        for j in range(c):
            members = sorted((i for i in range(n) if labels[i] == j),
                             key=lambda i: (d[i], i))
            oracle.extend(members[:round_half_up(rate * len(members))])
        assert sel.clean_indices.tolist() == sorted(oracle)

    for _ in range(20):
        c = int(rng.integers(2, 6))
        labels = np.repeat(np.arange(c), 30)
        d = rng.uniform(0, 1, 30 * c)
        report_obj = DivergenceReport.from_values(d)
        for rate in np.linspace(0, 1, 11):
            sel = select_clean(report_obj, labels, c, float(rate))
            counts = np.bincount(labels[sel.clean_indices], minlength=c)
            assert counts.max() - counts.min() <= 1
    elapsed = time.time() - t0
    ok = elapsed < 30.0
    report(3, ok, f"200 random instances match brute-force selector, {elapsed:.1f}s")
    assert ok


def _ssl_rows(rows):
    return [r for r in rows if r["phase"] == "ssl"]


def test_criterion_4_desk_run_auc_and_margin(desk_runs):
    ssl = _ssl_rows(desk_runs["full"])
    auc_first = float(ssl[0]["roc_auc"])
    auc_final = float(ssl[-1]["roc_auc"])
    test_final = float(desk_runs["full"][-1]["test_acc"])
    ce_final = float(desk_runs["ce"][-1]["test_acc"])
    margin = test_final - ce_final
    elapsed = desk_runs["elapsed_full"]
    ok = (auc_final >= 0.90 and auc_final > auc_first
          and margin >= 0.10 and elapsed < 300.0)
    report(4, ok, f"final AUC {auc_final:.4f} (warmup-end {auc_first:.4f}), "
                  f"test acc {test_final:.3f} vs CE {ce_final:.3f} "
                  f"(margin {margin:+.3f}), {elapsed:.0f}s")
    assert auc_final >= 0.90
    assert auc_final > auc_first
    assert margin >= 0.10
    assert elapsed < 300.0


def test_criterion_5_memorization(desk_runs, ce_memorization_run):
    ssl_mem = float(desk_runs["full"][-1]["train_acc_given"])
    ce_mem = float(ce_memorization_run[-1]["train_acc_given"])
    ok = ssl_mem < 0.65 and ce_mem > 0.90
    report(5, ok, f"robust run given-label train acc {ssl_mem:.3f} at epoch 60 (bar: < 0.65), "
                  f"plain CE {ce_mem:.3f} at epoch {CE_MEMORIZATION_EPOCHS} at a constant "
                  f"lr (bar: > 0.90)")
    assert ssl_mem < 0.65, (
        f"the robust run fits {ssl_mem:.3f} of the given labels at epoch 60 of the "
        f"desk budget; at 50% symmetric noise the clean fraction is ~0.50."
    )
    assert ce_mem > 0.90, (
        f"plain CE fits only {ce_mem:.3f} of the given labels after "
        f"{CE_MEMORIZATION_EPOCHS} epochs at a constant lr 0.02; seed 17 measured "
        f"0.907 at epoch 200 and 0.977 at epoch 300."
    )


def test_criterion_6_filter_rate_trajectory(desk_runs):
    R = [float(r["R"]) for r in _ssl_rows(desk_runs["full"])]
    window = 10
    means = [float(np.mean(R[i:i + window])) for i in range(0, len(R) - window + 1, window)]
    violations = sum(1 for a, b in zip(means, means[1:]) if b < a - 1e-12)
    ok = R[-1] >= R[0] and violations <= 1
    report(6, ok, f"filter rate {R[0]:.3f} -> {R[-1]:.3f}, "
                  f"10-epoch window means {[round(m, 4) for m in means]}, "
                  f"{violations} decreasing step(s)")
    assert R[-1] >= R[0]
    assert violations <= 1


def test_criterion_7_ablation_ordering(ablation_runs):
    s = ablation_runs["summaries"]
    full = s["full"]
    lasts = {arm: s[arm]["last_acc"] for arm in s}
    ordering_ok = all(full["last_acc"] >= lasts[a]
                      for a in ("no_balancing", "no_cl", "no_ensemble"))
    ratio_full = hist_ratio(full["first_ssl_class_counts"])
    ratio_nb = hist_ratio(s["no_balancing"]["first_ssl_class_counts"])
    hist_ok = ratio_nb >= 2 * ratio_full
    elapsed = ablation_runs["elapsed"]
    ok = ordering_ok and hist_ok and elapsed < 1200.0
    report(7, ok, f"final accs {lasts}; selected-count skew full {ratio_full:.2f} "
                  f"vs unbalanced {ratio_nb:.2f}, {elapsed:.0f}s")
    assert hist_ok
    assert ordering_ok
    assert elapsed < 1200.0


def test_criterion_8_byte_determinism(desk_runs, ablation_runs, tmp_path_factory):
    base = tmp_path_factory.mktemp("repeat")
    cmd_run(desk_config(base / "full"))
    cmd_run(desk_config(base / "ce", warmup=60))
    cmd_ablate(desk_config(base / "ablate", rate=0.8))

    pairs = [
        (desk_runs["dir"] / "full", base / "full"),
        (desk_runs["dir"] / "ce", base / "ce"),
    ]
    for arm in ("full", "no_balancing", "no_cl", "no_ensemble"):
        pairs.append((ablation_runs["dir"] / arm, base / "ablate" / arm))

    mismatched = []
    for first, second in pairs:
        a = Path(first, "metrics.csv").read_bytes()
        b = Path(second, "metrics.csv").read_bytes()
        if a != b:
            mismatched.append(str(first))
    ok = not mismatched
    report(8, ok, f"{len(pairs)} metric CSVs byte-identical across reruns"
                  + (f"; MISMATCH: {mismatched}" if mismatched else ""))
    assert ok
