"""The benchmark's own tests: span arithmetic, wrapper binding, smoke runs.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402


def test_self_time_subtracts_children_and_clips_to_parent():
    spans = [
        ["outer", -1, 0.0, 10.0],
        ["mid", 0, 1.0, 4.0],
        ["leaf", 1, 2.0, 3.0],
        ["mid", 0, 5.0, 6.0],
        ["leaf", 3, 5.5, 7.0],      # runs past its parent's end: clipped
        ["late", -1, 12.0, 13.0],
    ]
    totals, uncovered = tracer.self_times(spans, (0.0, 20.0))
    assert totals["outer"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert totals["mid"] == pytest.approx((3.0 - 1.0) + (1.0 - 0.5))
    assert totals["leaf"] == pytest.approx(1.0 + 1.5)
    assert totals["late"] == pytest.approx(1.0)
    assert uncovered == pytest.approx(20.0 - 10.0 - 1.0)


def test_self_time_merges_overlapping_children():
    spans = [["p", -1, 0.0, 4.0], ["a", 0, 1.0, 3.0], [tracer.GC_SPAN, 0, 2.0, 3.5]]
    totals, uncovered = tracer.self_times(spans, (0.0, 4.0))
    assert totals["p"] == pytest.approx(4.0 - 2.5)
    assert uncovered == pytest.approx(0.0)


@pytest.fixture
def installed():
    rec = tracer.Recorder()
    restore = tracer.install(rec)
    yield rec
    restore()


def _tiny_run():
    from noisytrain.data import AugmentationSpec, inject_symmetric_noise, make_gaussian_blobs
    from noisytrain.experiment import run as run_experiment
    from noisytrain.training import Hyperparams
    train = inject_symmetric_noise(make_gaussian_blobs(3, 20, 4, 6.0, seed=0), 0.3, seed=0)
    test = make_gaussian_blobs(3, 5, 4, 6.0, seed=1)
    hp = Hyperparams(seed=0, warmup_epochs=1, total_epochs=3, batch_size=16)
    return run_experiment(train, test, hp, hidden=8, embed_dim=4, aug=AugmentationSpec())


def test_wrappers_rebind_names_imported_by_callers(installed):
    from noisytrain import experiment, training
    assert experiment.select_for_network is training.select_for_network
    assert experiment.select_for_network.__wrapped__ is not None
    _tiny_run()
    # Per SSL epoch: experiment.run selects for net 1 (reached only through the
    # rebound experiment.select_for_network), train_half_epoch for net 2.
    assert installed.counts["selection.select_calls"] == 2 * 2
    names = {s[0] for s in installed.spans}
    assert {"selection.select", "training.half_epoch", "kernel.backward",
            "model.train_forward", "model.eval_forward"} <= names
    assert installed.counts["training.halves"] == 4
    assert installed.counts["training.warmup_iterations"] == 2 * 4   # nets x batches of 16
    assert installed.counts["kernel.backward_calls"] == (
        installed.counts["training.iterations"] + installed.counts["training.warmup_iterations"])


def test_restore_puts_originals_back_and_tracing_keeps_results():
    from noisytrain import experiment
    original = experiment.select_for_network
    baseline = _tiny_run().rows
    rec = tracer.Recorder()
    restore = tracer.install(rec)
    traced = _tiny_run().rows
    restore()
    assert experiment.select_for_network is original
    assert [r.test_acc for r in traced] == [r.test_acc for r in baseline]
    assert np.array_equal([r.loss_lx for r in traced], [r.loss_lx for r in baseline])


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_matches_the_code():
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_smoke_run_prints_every_metric(name, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name, "--size", "tiny",
         "--seconds", "0", "--trace", str(trace), "--work-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(table)
    for key, unit in table:
        assert key in proc.stdout


def test_fails_without_a_program_to_measure(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tiny_variant_keeps_the_code_paths():
    for w in WORKLOADS.values():
        t = tiny(w)
        assert (t.command, t.flags, t.arms) == (w.command, w.flags, w.arms)
        hp = t.config["hyperparams"]
        assert (hp["warmup_epochs"] == hp["total_epochs"]) == (
            w.config["hyperparams"]["warmup_epochs"] == w.total_epochs)
