import dataclasses
import json
import os
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from noisytrain import _BLAS_THREAD_VARS, model
from noisytrain.config import config_from_dict
from noisytrain.data import MAX_SEED
from noisytrain.kernel import DTYPE, GradientTape, Matrix, backward, wrap
from noisytrain.model import (ALL_GROUPS, PHI, PSI, THETA, Arch, NetworkParams, TwinNetworks,
                              ensemble_softmax, forward_logits, forward_projection,
                              forward_softmax, init_network, init_twins, layout,
                              load_checkpoint, save_checkpoint, softmax_in_place)
from noisytrain.runner import build_datasets
from noisytrain.training import loss_contrastive, loss_lx


ARCH = Arch(in_dim=5, hidden=8, num_classes=4, embed_dim=3)
# how load_checkpoint refuses ARCH's two rows under a header that declares other rows
LENGTH = "1464 bytes of tensor data, but the header declares"


class TestInit:
    def test_same_seed_identical(self):
        a = init_network(ARCH, seed=3)
        b = init_network(ARCH, seed=3)
        for name in a.params:
            assert a.params[name].data.tobytes() == b.params[name].data.tobytes()

    def test_distinct_seeds_differ(self):
        a = init_network(ARCH, seed=3)
        b = init_network(ARCH, seed=4)
        assert a.params["w1"].data.tobytes() != b.params["w1"].data.tobytes()

    @pytest.mark.parametrize("seed", [True, -1, 2.5, float("nan"), 2 * MAX_SEED + 3])
    def test_bad_seed_is_named(self, seed):
        with pytest.raises(ValueError, match="^seed: "):
            init_network(ARCH, seed)

    def test_twins_take_every_run_seed(self):
        twins = init_twins(ARCH, seed=MAX_SEED)
        assert (twins.net1.seed, twins.net2.seed) == (2 * MAX_SEED + 1, 2 * MAX_SEED + 2)

    def test_biases_zero(self):
        net = init_network(ARCH, seed=3)
        for name in ("b1", "b2", "bc", "bp"):
            assert np.all(net.params[name].data == 0.0)

    def test_logits_finite_on_random_input(self):
        net = init_network(ARCH, seed=3)
        x = Matrix(np.random.default_rng(0).normal(size=(16, 5)))
        probs = forward_softmax(net, x)
        assert np.all(np.isfinite(probs))

    def test_untrained_softmax_near_uniform(self):
        net = init_network(ARCH, seed=3)
        x = Matrix(np.random.default_rng(1).normal(size=(1000, 5)))
        probs = forward_softmax(net, x)
        mean_max = probs.max(axis=1).mean()
        assert mean_max < 2 / ARCH.num_classes + 0.1

    def test_arch_validation(self):
        with pytest.raises(ValueError):
            Arch(in_dim=0, hidden=8, num_classes=4, embed_dim=3)

    def test_parameters_and_velocity_are_float32_draws_rounded_once(self):
        net = init_network(ARCH, seed=3)
        assert all(m.data.dtype == DTYPE for m in net.params.values())
        assert net.velocity.dtype == DTYPE
        rng = np.random.default_rng([3, model._S_INIT])
        w1 = rng.uniform(-1 / np.sqrt(ARCH.in_dim), 1 / np.sqrt(ARCH.in_dim), size=(5, 8))
        assert np.array_equal(net.params["w1"].data, w1.astype(np.float32))

    def test_forwards_compute_in_the_dtype_of_their_parameters(self):
        net = init_network(ARCH, seed=3)
        wide = NetworkParams(ARCH, 3, {k: wrap(m.data.astype(np.float64))
                                       for k, m in net.params.items()})
        assert wide.velocity.dtype == np.float64
        x = np.random.default_rng(0).normal(size=(6, 5))
        for n, dtype in ((net, DTYPE), (wide, np.float64)):
            xm = wrap(x.astype(dtype))
            assert forward_softmax(n, xm).dtype == dtype
            assert forward_logits(n, xm).data.dtype == dtype
            assert forward_projection(n, xm).data.dtype == dtype
        # the float32 forward is the float64 one, to float32's precision
        assert np.allclose(forward_softmax(net, wrap(x.astype(DTYPE))),
                           forward_softmax(wide, wrap(x)), rtol=0, atol=1e-6)

    def test_layout_packs_all_groups_in_order_theta_and_phi_first(self):
        parts = layout(ARCH)
        assert layout(ARCH) is parts   # cached per Arch
        assert tuple(name for name, _, _ in parts) == ALL_GROUPS
        assert ALL_GROUPS[:len(THETA + PHI)] == THETA + PHI
        # ARCH is Arch(in_dim=5, hidden=8, num_classes=4, embed_dim=3)
        shapes = {"w1": (5, 8), "b1": (1, 8), "w2": (8, 8), "b2": (1, 8),
                  "wc": (8, 4), "bc": (1, 4), "wp": (8, 3), "bp": (1, 3)}
        stop = 0
        for name, part, shape in parts:
            assert (part.start, part.stop, shape) == (stop, stop + shape[0] * shape[1],
                                                      shapes[name])
            stop = part.stop
        net = init_network(ARCH, seed=1)
        assert net.velocity.shape == (stop,) and not net.velocity.any()
        assert {name: m.shape for name, m in net.params.items()} == shapes


class TestForward:
    def test_softmax_rows_sum_to_one(self):
        net = init_network(ARCH, seed=5)
        x = Matrix(np.random.default_rng(2).normal(size=(7, 5)))
        out = forward_softmax(net, x)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert out.shape == (7, 4)

    def test_duplicate_input_rows_duplicate_outputs(self):
        net = init_network(ARCH, seed=5)
        row = np.random.default_rng(3).normal(size=(1, 5))
        x = Matrix(np.vstack([row, row]))
        out = forward_softmax(net, x)
        assert np.array_equal(out[0], out[1])

    def test_input_width_checked(self):
        net = init_network(ARCH, seed=5)
        with pytest.raises(ValueError, match="^input has 3 columns, network expects 5$"):
            forward_softmax(net, Matrix(np.zeros((2, 3))))

    def test_projection_rows_unit_norm(self):
        net = init_network(ARCH, seed=5)
        x = Matrix(np.random.default_rng(4).normal(size=(6, 5)))
        z = forward_projection(net, x)
        assert z.shape == (6, 3)
        assert np.allclose(np.linalg.norm(z.data, axis=1), 1.0, atol=1e-9)

    def test_identical_inputs_identical_embeddings(self):
        net = init_network(ARCH, seed=5)
        x = Matrix(np.random.default_rng(5).normal(size=(3, 5)))
        assert np.array_equal(forward_projection(net, x).data,
                              forward_projection(net, x).data)

    def test_embeddings_move_after_contrastive_step(self):
        from noisytrain.kernel import sgd_step
        net = init_network(ARCH, seed=5)
        x = Matrix(np.random.default_rng(6).normal(size=(4, 5)))
        before = forward_projection(net, x).data.copy()
        tape = GradientTape()
        for name in PSI:
            tape.watch(net.params[name])
        z = forward_projection(net, x, tape)
        loss = loss_contrastive(z, kappa=0.5, tape=tape)
        grads = backward(tape, loss)
        for name in PSI:
            p = net.params[name]
            net.params[name] = Matrix(sgd_step(p.data, grads[p], np.zeros(p.shape),
                                               0.5, 0.9, 0.0))
        after = forward_projection(net, x).data
        assert not np.array_equal(before, after)


_BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def _golden_environment_difference() -> str | None:
    """How this process's BLAS differs from the one the benchmark's golden
    hashes were recorded with (build, thread settings, cores), or None."""
    if not _BENCH_REFERENCE.exists():
        return "no benchmark reference to compare the BLAS with"
    recorded = json.loads(_BENCH_REFERENCE.read_text())["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    here = f"{blas.get('name')} {blas.get('version')}"
    if here != recorded["blas"]:
        return f"BLAS is {here}, goldens recorded with {recorded['blas']}"
    threads = {k: os.environ[k] for k in _BLAS_THREAD_VARS if k in os.environ}
    if threads and recorded["blas_threads"].startswith("unset"):
        return f"BLAS threads set by {threads}, goldens recorded with the library default"
    cores = len(os.sched_getaffinity(0))
    if cores != recorded["nproc"]:
        return f"{cores} cores, goldens recorded on {recorded['nproc']}"
    return None


def _unblocked_softmax(net, x):
    """The softmax of one forward over all of ``x``, however tall."""
    return softmax_in_place(forward_logits(net, x).data)


class TestBlockedEvaluation:
    BLOCK = model._EVAL_BLOCK_ROWS

    @pytest.mark.parametrize("rows", [BLOCK + 1, 2 * BLOCK, 10_000])
    def test_tall_input_is_the_blocks_concatenated(self, rows):
        net = init_network(ARCH, seed=5)
        x = np.random.default_rng(rows).normal(size=(rows, ARCH.in_dim))
        blocks = [_unblocked_softmax(net, Matrix(x[i:i + self.BLOCK]))
                  for i in range(0, rows, self.BLOCK)]
        out = forward_softmax(net, Matrix(x))
        assert out.shape == (rows, ARCH.num_classes)
        assert out.tobytes() == np.vstack(blocks).tobytes()

    @pytest.mark.parametrize("rows", [0, BLOCK + 1])
    def test_input_width_checked_on_an_empty_or_tall_input(self, rows):
        net = init_network(ARCH, seed=5)
        with pytest.raises(ValueError, match="^input has 3 columns, network expects 5$"):
            forward_softmax(net, Matrix(np.zeros((rows, 3))))

    def test_tall_evaluation_holds_one_block_of_activations(self):
        # unblocked, the two 10,000 x 128 hidden activations alone take 20.5 MB
        net = init_network(Arch(in_dim=32, hidden=128, num_classes=10, embed_dim=32), seed=5)
        x = Matrix(np.random.default_rng(0).normal(size=(10_000, 32)))
        tracemalloc.start()
        try:
            forward_softmax(net, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_wide_workload_keeps_the_single_forward_bytes(self):
        """The benchmark's ``wide`` data and initial networks evaluate to the
        bytes of one forward over the whole train set, so its golden outputs
        do not depend on the block size.  Whether they do is a property of
        the BLAS build and thread count, so the check runs only where those
        are the ones the goldens were recorded with; there, a BLAS for which
        blocked and whole products round differently fails here.  Trained
        networks and the noisy-set passes are covered by the golden hashes
        themselves."""
        difference = _golden_environment_difference()
        if difference is not None:
            pytest.skip(f"not the golden environment: {difference}")
        cfg = config_from_dict({
            "dataset": {"num_classes": 10, "per_class": 1000, "test_per_class": 100,
                        "dims": 32, "separation": 3.0},
            "noise": {"kind": "asymmetric", "rate": 0.4,
                      "flip_map": [1, 2, 3, 4, 5, 6, 7, 8, 9, 0]},
            "arch": {"hidden": 128, "embed_dim": 32}, "seed": 17})
        train, _ = build_datasets(cfg)
        twins = init_twins(Arch(32, 128, 10, 32), cfg.hyperparams.seed)
        for net in (twins.net1, twins.net2):
            assert (forward_softmax(net, train.features).tobytes()
                    == _unblocked_softmax(net, train.features).tobytes())


class TestEvalWorkspace:
    """``forward_softmax`` writes hidden activations into a workspace that it
    reuses across calls; nothing it returns or remembers may alias it."""

    BLOCK = model._EVAL_BLOCK_ROWS

    def _inputs(self):
        rng = np.random.default_rng(31)
        return [Matrix(rng.normal(size=(rows, ARCH.in_dim)))
                for rows in (50, 50, 7, self.BLOCK + 3)]

    def test_results_keep_their_bytes_after_later_evaluations(self):
        net = init_network(ARCH, seed=5)
        first, *later = self._inputs()
        out = forward_softmax(net, first)
        kept = out.copy()
        for x in later:
            forward_softmax(net, x)
            assert out.tobytes() == kept.tobytes()

    def test_evaluation_between_forward_and_backward_keeps_gradients(self):
        x, *others = self._inputs()
        targets = np.full((x.rows, ARCH.num_classes), 1.0 / ARCH.num_classes)

        def grads(evaluate):
            net = init_network(ARCH, seed=5)
            tape = GradientTape()
            for p in net.params.values():
                tape.watch(p)
            loss = loss_lx(forward_logits(net, x, tape), targets, tape)
            if evaluate:
                for other in others:
                    forward_softmax(net, other)
            g = backward(tape, loss)
            return [g[p].tobytes() for p in net.params.values() if p in g]

        assert grads(evaluate=True) == grads(evaluate=False)

    def test_repeat_evaluation_allocates_no_hidden_activation(self):
        arch = Arch(in_dim=8, hidden=64, num_classes=4, embed_dim=16)
        net = init_network(arch, seed=5)
        x = Matrix(np.random.default_rng(0).normal(size=(1000, arch.in_dim)))
        forward_softmax(net, x)
        tracemalloc.start()
        try:
            forward_softmax(net, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1000 * arch.hidden * x.data.itemsize   # one activation array


class TestEnsemble:
    def test_identical_twins_equal_single(self):
        net = init_network(ARCH, seed=9)
        x = Matrix(np.random.default_rng(7).normal(size=(5, 5)))
        probs = forward_softmax(net, x)
        assert np.allclose(ensemble_softmax(probs, probs), probs, atol=1e-15)

    def test_mean_of_distributions(self):
        twins = init_twins(ARCH, seed=0)
        x = Matrix(np.random.default_rng(8).normal(size=(5, 5)))
        s1 = forward_softmax(twins.net1, x)
        s2 = forward_softmax(twins.net2, x)
        ens = ensemble_softmax(s1, s2)
        assert np.allclose(ens, (s1 + s2) / 2, atol=1e-15)
        assert np.allclose(ens.sum(axis=1), 1.0, atol=1e-9)

    def test_permutation_symmetric(self):
        twins = init_twins(ARCH, seed=0)
        x = Matrix(np.random.default_rng(9).normal(size=(5, 5)))
        s1, s2 = forward_softmax(twins.net1, x), forward_softmax(twins.net2, x)
        assert np.array_equal(ensemble_softmax(s1, s2), ensemble_softmax(s2, s1))

    def test_non_finite_prediction_refused(self):
        probs = np.full((2, 3), 1.0 / 3.0)
        bad = np.array([[np.nan, 0.5, 0.5], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="^ensemble_softmax: .* not finite$"):
            ensemble_softmax(probs, bad)

    def test_predictions_are_read_only(self):
        """No reader can write into a prediction that a run goes on reading."""
        twins = init_twins(ARCH, seed=0)
        x = Matrix(np.random.default_rng(10).normal(size=(5, 5)))
        s1, s2 = forward_softmax(twins.net1, x), forward_softmax(twins.net2, x)
        for m in (s1, s2, ensemble_softmax(s1, s2)):
            assert type(m) is np.ndarray
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                np.exp(m, out=m)

    def test_twins_never_share_parameters(self):
        twins = init_twins(ARCH, seed=0)
        assert twins.net1.params["w1"].data.tobytes() != twins.net2.params["w1"].data.tobytes()

    def test_twins_must_share_one_arch(self):
        # the checkpoint header records one arch for both networks
        with pytest.raises(ValueError, match=r"^twin networks must share one arch, got Arch\("
                                             r"in_dim=4, hidden=16, .* and Arch\(in_dim=4, hidden=8, "):
            TwinNetworks(init_network(Arch(4, 16, 2, 4), 1), init_network(Arch(4, 8, 2, 4), 2))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        twins = init_twins(ARCH, seed=21)
        path = str(tmp_path / "ckpt.bin")
        save_checkpoint(twins, path)
        loaded = load_checkpoint(path)
        assert loaded.net1.arch == twins.net1.arch
        assert loaded.net1.seed == twins.net1.seed
        for net_a, net_b in ((twins.net1, loaded.net1), (twins.net2, loaded.net2)):
            for name in net_a.params:
                assert net_a.params[name].data.tobytes() == net_b.params[name].data.tobytes()

    @pytest.mark.parametrize("edit,message", [
        (lambda p: p.update(w1=Matrix(np.zeros((4, 8)))),
         r"'w1' of net 2 is \(4, 8\), .* declares \(5, 8\)"),
        (lambda p: p.pop("bp"), r"'bp' of net 2 is missing, .* declares \(1, 3\)"),
        (lambda p: p.update(extra=Matrix([[1.0]])),
         r"'extra' of net 2 is \(1, 1\), .* declares no such tensor"),
    ], ids=["shape", "missing", "unknown"])
    def test_parameters_off_the_arch_refused_before_writing(self, tmp_path, edit, message):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(init_twins(ARCH, seed=1), str(path))
        before = path.read_bytes()
        twins = init_twins(ARCH, seed=1)
        edit(twins.net2.params)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: tensor {message}"):
            save_checkpoint(twins, str(path))
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["ckpt.bin"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_checkpoint(str(path))

    def test_header_names_the_training_dtype_and_the_round_trip_is_exact(self, tmp_path):
        path, again = tmp_path / "ckpt.bin", tmp_path / "again.bin"
        twins = init_twins(ARCH, seed=21)
        save_checkpoint(twins, str(path))
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 8)
        header = json.loads(raw[12:12 + header_len])
        assert header == {"version": 3, "dtype": "<f4", "arch": dataclasses.asdict(ARCH),
                          "seeds": [twins.net1.seed, twins.net2.seed]}
        loaded = load_checkpoint(str(path))
        for net, got in ((twins.net1, loaded.net1), (twins.net2, loaded.net2)):
            assert all(got.params[k].data.dtype == DTYPE for k in ALL_GROUPS)
            assert all(np.array_equal(got.params[k].data, net.params[k].data)
                       for k in ALL_GROUPS)
            assert got.velocity.dtype == DTYPE
        save_checkpoint(loaded, str(again))
        assert again.read_bytes() == raw

    @pytest.mark.parametrize("dtype", ["<f8", ">f4", "float32", "<f2", 4, None])
    def test_unknown_dtype_rejected(self, tmp_path, dtype):
        path = tmp_path / "ckpt.bin"
        self._rewrite_header(path, lambda h: h.update(dtype=dtype))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unsupported tensor "
                                             rf"dtype {re.escape(repr(dtype))}, expected '<f4'$"):
            load_checkpoint(str(path))

    def test_float64_blobs_under_the_float32_header_rejected(self, tmp_path):
        # the tensors of a version 1 checkpoint, relabelled: twice the bytes the dtype declares
        path = tmp_path / "ckpt.bin"
        self._rewrite_header(path, lambda h: None)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 8)
        rows = np.frombuffer(raw[12 + header_len:], dtype="<f4").astype("<f8")
        path.write_bytes(raw[:12 + header_len] + rows.tobytes())
        declared = 4 * rows.size
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {2 * declared} bytes of "
                                             rf"tensor data, but the header declares {declared}$"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("cut", [-8, 8, -1])
    def test_wrong_length_rejected(self, tmp_path, cut):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(init_twins(ARCH, seed=21), str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:cut] if cut < 0 else blob + b"\x00" * cut)
        tensor_bytes = 4 * layout(ARCH)[-1][1].stop * 2
        found = tensor_bytes + cut
        with pytest.raises(ValueError, match=rf"ckpt\.bin: {found} bytes.*declares {tensor_bytes}"):
            load_checkpoint(str(path))

    def test_cut_header_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(init_twins(ARCH, seed=21), str(path))
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ValueError, match=r"ckpt\.bin: header cut short: 28 of \d+ bytes"):
            load_checkpoint(str(path))

    @staticmethod
    def _rewrite_header(path, edit):
        """Save a checkpoint, then let ``edit`` change its header in place,
        or return the raw bytes to write in its place; the tensor bytes are
        left as they are."""
        save_checkpoint(init_twins(ARCH, seed=21), str(path))
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 8)
        header = json.loads(raw[12:12 + header_len])
        new_header = edit(header)
        if not isinstance(new_header, bytes):
            new_header = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(raw[:8] + struct.pack("<I", len(new_header)) + new_header
                         + raw[12 + header_len:])

    @pytest.mark.parametrize("edit,message", [
        (lambda h: h.pop("version"), r"the header lacks 'version'"),
        (lambda h: h.update(version=True), r"unsupported checkpoint version True"),
        (lambda h: h.update(version=3.0), r"unsupported checkpoint version 3\.0"),
        (lambda h: h.update(version=2), r"unsupported checkpoint version 2$"),
        (lambda h: h.update(version=1), r"unsupported checkpoint version 1$"),
        (lambda h: h.pop("dtype"), r"the header lacks 'dtype'"),
        (lambda h: h.pop("arch"), r"the header lacks 'arch'"),
        (lambda h: h.pop("seeds"), r"the header lacks 'seeds'"),
        (lambda h: h["arch"].pop("hidden"), r"arch\..* missing 1 required positional argument: 'hidden'"),
        (lambda h: h["arch"].update(hidden="8"), r"arch\.hidden: expected an integer, got '8'"),
        (lambda h: h["arch"].update(embed_dim=0), r"arch\.embed_dim: 0 out of range \[1, "),
        # the arch alone states the layout: each one-field edit changes the two rows'
        # length from ARCH's 2 x 183 float32 values
        (lambda h: h["arch"].update(in_dim=6), rf"{LENGTH} 1528$"),
        (lambda h: h["arch"].update(hidden=9), rf"{LENGTH} 1712$"),
        (lambda h: h["arch"].update(num_classes=5), rf"{LENGTH} 1536$"),
        (lambda h: h["arch"].update(embed_dim=4), rf"{LENGTH} 1536$"),
        (lambda h: h.update(seeds=[43]), r"'seeds' must hold exactly two integers, got \[43\]"),
        (lambda h: h.update(seeds=[43, 44, 45]), r"'seeds' must hold exactly two integers"),
        (lambda h: h.update(seeds=[43, "44"]), r"seed: expected an integer, got '44'"),
        (lambda h: h.update(seeds=[43, True]), r"seed: expected an integer, got True"),
        (lambda h: h.update(seeds=[-7, 44]), rf"seed: -7 out of range \[0, {2 * MAX_SEED + 2}\]"),
        (lambda h: h.update(seeds=[43, 2**80]),
         rf"seed: {2**80} out of range \[0, {2 * MAX_SEED + 2}\]"),
        (lambda h: b"\xff\xfe" + json.dumps(h).encode(), r"the header is not UTF-8 JSON"),
        (lambda h: b"{not json", r"the header is not UTF-8 JSON"),
    ], ids=["no-version", "true-version", "float-version", "version-2", "version-1", "no-dtype",
            "no-arch", "no-seeds", "arch-key", "arch-str", "arch-zero", "arch-in_dim",
            "arch-hidden", "arch-num_classes", "arch-embed_dim",
            "one-seed", "three-seeds", "str-seed", "bool-seed", "negative-seed", "huge-seed",
            "not-utf8", "not-json"])
    def test_header_keys_checked(self, tmp_path, edit, message):
        path = tmp_path / "ckpt.bin"
        self._rewrite_header(path, edit)
        with pytest.raises(ValueError, match=r"ckpt\.bin: " + message):
            load_checkpoint(str(path))

    def test_header_must_be_an_object(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b"TWINNET1" + struct.pack("<I", 2) + b"[]")
        with pytest.raises(ValueError, match=r"ckpt\.bin: the header is not a JSON object"):
            load_checkpoint(str(path))


    @pytest.mark.parametrize("value,last,named", [
        (np.nan, False, "'w1' of net 1"), (np.inf, False, "'w1' of net 1"),
        (-np.inf, True, "'bp' of net 2"),
    ], ids=["nan-first", "inf-first", "minus-inf-last"])
    def test_non_finite_value_names_tensor(self, tmp_path, value, last, named):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(init_twins(ARCH, seed=21), str(path))
        raw = bytearray(path.read_bytes())
        (header_len,) = struct.unpack_from("<I", raw, 8)
        struct.pack_into("<f", raw, len(raw) - 4 if last else 12 + header_len, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: tensor {named} "
                                             "holds a non-finite value$"):
            load_checkpoint(str(path))

    def test_missing_tensor_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        # drop net 2's last tensor (bp) from the end
        save_checkpoint(init_twins(ARCH, seed=21), str(path))
        path.write_bytes(path.read_bytes()[:-4 * ARCH.embed_dim])
        declared = 8 * layout(ARCH)[-1][1].stop
        with pytest.raises(ValueError, match=rf"ckpt\.bin: {declared - 4 * ARCH.embed_dim} bytes "
                                             rf"of tensor data, but the header declares {declared}$"):
            load_checkpoint(str(path))
