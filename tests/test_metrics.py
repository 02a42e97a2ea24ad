"""Metric definitions and the noise-injection model."""

import numpy as np
import pytest

from spikecodec import (
    EncodingConfig,
    NoiseMode,
    NoiseSpec,
    Scheme,
    Signal,
    SpikeTensor,
    afr,
    inject_noise,
    noise_mode_for,
    snr_db,
    synth_dataset,
)
from spikecodec.core import Rng, derive_seed
from spikecodec.dataio import WindowedDataset
from spikecodec.evaluation import (
    SchemeEvaluation,
    encode_dataset,
    evaluate_scheme,
    fit_variant,
    mean_afr,
    reconstruction_snr_db,
    variant_config,
)
from spikecodec.metrics import robustness_sweep
from spikecodec.errors import ConfigError, EmptyDatasetError, ShapeError
from spikecodec.snn import classify_batch


def ternary_tensor(data):
    return SpikeTensor(np.asarray(data, dtype=np.int8), time_step_ms=1.0)


def clean_pass(net, dataset):
    """Share of a (SpikeTensor, label) sequence classified correctly."""
    labels = np.asarray([l for _, l in dataset])
    return float(np.mean(classify_batch(net, [t for t, _ in dataset]) == labels))


class TestAfr:
    def test_silent_tensor(self):
        assert afr(ternary_tensor(np.zeros((1, 1, 10)))) == 0.0

    def test_tensor_of_no_positions_is_zero(self):
        assert afr(ternary_tensor(np.zeros((1, 7, 0)))) == 0.0

    def test_signed_spikes_count_by_magnitude(self):
        data = np.ones((1, 1, 10), dtype=np.int8)
        data[0, 0, :5] = -1
        assert afr(ternary_tensor(data)) == 1.0

    def test_invariant_under_sign_flip(self):
        rng = np.random.default_rng(3)
        data = rng.integers(-1, 2, size=(2, 3, 40)).astype(np.int8)
        assert afr(ternary_tensor(data)) == afr(ternary_tensor(-data))


class TestMeanAfr:
    @pytest.mark.parametrize("steps", (10, 20, 50))
    def test_ttfs_linear_is_exactly_one_over_steps(self, steps):
        ds = synth_dataset(3, 15, seed=3, seconds=1.0)
        encoded = encode_dataset(ds, EncodingConfig(Scheme.TTFS_LINEAR,
                                                    steps_per_sample=steps))
        assert mean_afr(encoded) == 1 / steps
        assert 100.0 * mean_afr(encoded) == 100.0 / steps

    def test_pools_spikes_over_positions(self):
        encoded = [(ternary_tensor([[[1, 0, -1, 0]]]), 0),
                   (ternary_tensor([[[0, 0, 0, 0, 0, 1, 1, 1]]]), 1)]
        assert mean_afr(encoded) == 5 / 12
        assert mean_afr([]) == 0.0


class TestSnrDb:
    def test_perfect_reconstruction_is_infinite(self):
        sig = Signal(np.full((2, 10), 0.4), 20.0)
        assert snr_db(sig, sig) == np.inf

    def test_error_power_equal_to_signal_power_is_zero_db(self):
        orig = Signal(np.full((1, 10), 0.3), 20.0)
        recon = Signal(np.full((1, 10), 0.6), 20.0)
        assert snr_db(orig, recon) == pytest.approx(0.0, abs=1e-12)

    def test_alternating_error_gives_twenty_db(self):
        # power 0.25 over error power 0.05^2 = 0.0025 -> 20 dB
        orig = Signal(np.full((1, 100), 0.5), 20.0)
        wobble = 0.5 + 0.05 * np.where(np.arange(100) % 2 == 0, 1.0, -1.0)
        recon = Signal(wobble[None, :], 20.0)
        assert snr_db(orig, recon) == pytest.approx(20.0, abs=1e-9)

    def test_silent_original_is_minus_infinite(self):
        orig = Signal(np.zeros((1, 10)), 20.0)
        recon = Signal(np.full((1, 10), 0.1), 20.0)
        assert snr_db(orig, recon) == -np.inf

    def test_empty_set_is_refused(self):
        empty = WindowedDataset([], [], [], ("class0",))
        with pytest.raises(EmptyDatasetError, match="cannot evaluate SNR on an empty"):
            reconstruction_snr_db(empty, EncodingConfig(Scheme.BINARY))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            snr_db(Signal(np.zeros((1, 5)), 20.0), Signal(np.zeros((1, 6)), 20.0))

    def test_invariant_under_consistent_time_permutation(self):
        rng = np.random.default_rng(8)
        orig = rng.uniform(0, 1, size=(2, 50))
        recon = orig + rng.normal(0, 0.01, size=(2, 50))
        perm = rng.permutation(50)
        direct = snr_db(Signal(orig, 20.0), Signal(recon, 20.0))
        permuted = snr_db(Signal(orig[:, perm], 20.0), Signal(recon[:, perm], 20.0))
        assert direct == pytest.approx(permuted, rel=1e-12)


class TestInjectNoise:
    def test_probability_zero_is_identity(self):
        rng = np.random.default_rng(5)
        data = rng.integers(-1, 2, size=(2, 3, 50)).astype(np.int8)
        tensor = ternary_tensor(data)
        out = inject_noise(tensor, NoiseSpec(0.0, seed=1, mode=NoiseMode.SIGNED_PERTURB))
        assert out.data.tobytes() == tensor.data.tobytes()

    def test_probability_one_flips_binary_exactly(self):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 2, size=(2, 3, 50)).astype(np.int8)
        out = inject_noise(ternary_tensor(data),
                           NoiseSpec(1.0, seed=1, mode=NoiseMode.FLIP_BINARY))
        assert np.array_equal(out.data, 1 - data)

    def test_change_count_within_three_sigma(self):
        # Binomial(1e5, 0.1): sigma = sqrt(9e3) ~ 94.9
        data = np.zeros((1, 1, 100_000), dtype=np.int8)
        out = inject_noise(ternary_tensor(data),
                           NoiseSpec(0.1, seed=3, mode=NoiseMode.FLIP_BINARY))
        changed = int((out.data != data).sum())
        sigma = np.sqrt(100_000 * 0.1 * 0.9)
        assert abs(changed - 10_000) <= 3 * sigma

    def test_signed_perturb_semantics(self):
        data = np.zeros((1, 1, 1000), dtype=np.int8)
        data[0, 0, ::3] = 1
        data[0, 0, 1::3] = -1
        tensor = ternary_tensor(data)
        out = inject_noise(tensor, NoiseSpec(1.0, seed=2, mode=NoiseMode.SIGNED_PERTURB))
        was_zero = data == 0
        assert (out.data[~was_zero] == 0).all()
        assert (np.abs(out.data[was_zero]) == 1).all()
        # both polarities appear on the silenced positions
        assert (out.data[was_zero] == 1).any() and (out.data[was_zero] == -1).any()

    def test_deterministic_given_seed(self):
        data = np.zeros((1, 1, 1000), dtype=np.int8)
        spec = NoiseSpec(0.2, seed=9, mode=NoiseMode.FLIP_BINARY)
        a = inject_noise(ternary_tensor(data), spec)
        b = inject_noise(ternary_tensor(data), spec)
        assert np.array_equal(a.data, b.data)

    def test_disjoint_seeds_give_independent_masks(self):
        data = np.zeros((1, 1, 100_000), dtype=np.int8)
        tensor = ternary_tensor(data)
        a = inject_noise(tensor, NoiseSpec(0.1, seed=1, mode=NoiseMode.FLIP_BINARY))
        b = inject_noise(tensor, NoiseSpec(0.1, seed=2, mode=NoiseMode.FLIP_BINARY))
        mask_a = (a.data != data).ravel().astype(float)
        mask_b = (b.data != data).ravel().astype(float)
        corr = np.corrcoef(mask_a, mask_b)[0, 1]
        assert abs(corr) < 0.01

    def test_flip_binary_draws_only_the_change_mask(self):
        rng = np.random.default_rng(9)
        data = (rng.uniform(size=(2, 5, 40)) < 0.3).astype(np.int8)
        out = inject_noise(ternary_tensor(data), NoiseSpec(0.2, seed=6))
        change = Rng(6).uniform(size=data.shape) < 0.2
        np.testing.assert_array_equal(out.data, np.where(change, 1 - data, data))

    def test_probability_bounds(self):
        with pytest.raises(ConfigError):
            NoiseSpec(1.5)


class TestRobustnessSweep:
    def test_empty_set_is_refused(self):
        from spikecodec import CubaNetwork

        net = CubaNetwork((7, 8, 3), dropout_p=0.0, seed=2)
        with pytest.raises(ShapeError, match="needs a non-empty dataset"):
            robustness_sweep(net, [], [0.1], NoiseMode.FLIP_BINARY, baseline_accuracy=1.0)

    def test_zero_probability_gives_zero_drop(self):
        from spikecodec import CubaNetwork, robustness_sweep

        rng = np.random.default_rng(6)
        dataset = [
            (SpikeTensor((rng.uniform(size=(1, 7, 30)) < 0.4).astype(np.int8), 1.0),
             int(rng.integers(0, 3)))
            for _ in range(6)
        ]
        net = CubaNetwork((7, 8, 3), dropout_p=0.0, seed=2)
        rows = robustness_sweep(net, dataset, [0.0], NoiseMode.FLIP_BINARY, seed=1,
                                baseline_accuracy=clean_pass(net, dataset))
        assert rows[0].accuracy_drop == 0.0

    def test_rows_are_reproducible_and_ordered(self):
        from spikecodec import CubaNetwork, robustness_sweep

        rng = np.random.default_rng(7)
        dataset = [
            (SpikeTensor((rng.uniform(size=(1, 7, 30)) < 0.4).astype(np.int8), 1.0),
             int(rng.integers(0, 3)))
            for _ in range(6)
        ]
        net = CubaNetwork((7, 8, 3), dropout_p=0.0, seed=2)
        args = (net, dataset, [0.01, 0.2], NoiseMode.FLIP_BINARY)
        a = robustness_sweep(*args, seed=4, baseline_accuracy=0.5)
        b = robustness_sweep(*args, seed=4, baseline_accuracy=0.5)
        assert [(r.error_probability, r.accuracy) for r in a] == \
               [(r.error_probability, r.accuracy) for r in b]


    def test_given_baseline_matches_the_computed_one(self):
        from spikecodec import CubaNetwork, robustness_sweep

        rng = np.random.default_rng(8)
        dataset = [
            (SpikeTensor((rng.uniform(size=(1, 7, 30)) < 0.4).astype(np.int8), 1.0),
             int(rng.integers(0, 3)))
            for _ in range(6)
        ]
        net = CubaNetwork((7, 8, 3), dropout_p=0.0, seed=2)
        baseline = clean_pass(net, dataset)
        args = (net, dataset, [0.0, 0.05, 0.3], NoiseMode.FLIP_BINARY)
        rows = robustness_sweep(*args, seed=5, baseline_accuracy=baseline)
        # p = 0 reproduces the clean pass the baseline came from
        assert rows[0].accuracy == baseline
        assert all(r.accuracy_drop == baseline - r.accuracy for r in rows)
        shifted = robustness_sweep(*args, seed=5, baseline_accuracy=1.0)
        assert [r.accuracy for r in shifted] == [r.accuracy for r in rows]
        assert all(r.accuracy_drop == 1.0 - r.accuracy for r in shifted)

    def test_evaluation_drops_match_a_sweep_from_a_clean_pass(self, monkeypatch):
        from spikecodec import TrainConfig, evaluation

        # a setup whose drops are not all zero and whose best epoch (7 of
        # 10) scores above the last, so only the restored weights match
        ds = synth_dataset(3, 8, seed=1, seconds=1.0)
        train_ds, test_ds = ds.split_leave_one_user_out(sorted(set(ds.users))[0])
        config = EncodingConfig(Scheme.TTFS_LOG, steps_per_sample=10, seed=3)
        train_cfg = TrainConfig(epochs=10, learning_rate=5e-3, batch_size=4, seed=1)
        p_list = (0.05, 0.2, 0.4)
        monkeypatch.setattr(evaluation, "HIDDEN", (16,))
        row = evaluate_scheme("ttfs-log", config, train_ds, test_ds, train_cfg,
                              p_list=p_list, noise_seeds=2, noise_seed_base=7)

        _, encoded_test, result = fit_variant(config, train_ds, test_ds, train_cfg,
                                              5, track_train_accuracy=False)
        baseline = clean_pass(result.net, encoded_test)
        drop_sums = np.zeros(len(p_list))
        for s in range(2):
            rows = robustness_sweep(result.net, encoded_test, p_list,
                                    NoiseMode.SIGNED_PERTURB,
                                    seed=derive_seed(7, s),
                                    baseline_accuracy=baseline)
            drop_sums += [r.accuracy_drop for r in rows]
        assert result.history[-1].test_accuracy != baseline
        assert row.drops == {p: float(d / 2) for p, d in zip(p_list, drop_sums)}
        assert any(row.drops.values())
        assert row.accuracy == baseline

    def test_stopping_at_the_perfect_epoch_leaves_the_row_unchanged(self, monkeypatch):
        from spikecodec import TrainConfig, evaluation

        # delta-mod on this split first reaches test accuracy 1.0 at epoch 2 of 8
        ds = synth_dataset(3, 8, seed=1, seconds=1.0)
        train_ds, test_ds = ds.split_leave_one_user_out(sorted(set(ds.users))[0])
        args = ("delta-mod", variant_config("delta-mod", seed=1), train_ds, test_ds,
                TrainConfig(epochs=8, learning_rate=1e-2, batch_size=4, seed=1))
        kwargs = {"p_list": (0.05, 0.2, 0.4), "noise_seeds": 2, "noise_seed_base": 7}
        monkeypatch.setattr(evaluation, "HIDDEN", (16,))
        original = evaluation.train
        epochs_run = []

        def recorded(*a, **k):
            result = original(*a, **k)
            epochs_run.append(len(result.history))
            return result

        monkeypatch.setattr(evaluation, "train", recorded)
        stopped = evaluate_scheme(*args, **kwargs)
        # with tracking on, train runs all 8 epochs: the full-length row
        monkeypatch.setattr(evaluation, "train", lambda *a, **k: recorded(
            *a, **{**k, "track_train_accuracy": True}))
        full = evaluate_scheme(*args, **kwargs)
        assert epochs_run == [3, 8]
        assert stopped == full
        assert stopped.accuracy == 1.0 and any(stopped.drops.values())

    def test_divergence_after_the_perfect_epoch_no_longer_reaches_evaluate(
            self, monkeypatch, tmp_path, capsys):
        from spikecodec import cli, evaluation, snn

        accuracy, loss_and_grads, train = (snn._accuracy, snn._loss_and_grads,
                                           evaluation.train)
        test_accuracies = []

        def watched(net, x, labels, *rest):
            acc = accuracy(net, x, labels, *rest)
            if len(labels) == 6:  # the held-out user's windows
                test_accuracies.append(acc)
            return acc

        def diverging(*a, **k):
            loss, grads = loss_and_grads(*a, **k)
            return (float("nan") if 1.0 in test_accuracies else loss), grads

        monkeypatch.setattr(snn, "_accuracy", watched)
        monkeypatch.setattr(snn, "_loss_and_grads", diverging)
        monkeypatch.setattr(evaluation, "HIDDEN", (16,))
        # the setup of the test above, through the command line
        argv = ["evaluate", "synth", "--classes", "3", "--samples-per-class", "8",
                "--duration", "1.0", "--synth-seed", "1", "--schemes", "delta-mod",
                "--seed", "1", "--epochs", "8", "--lr", "1e-2", "--batch", "4",
                "--train-seed", "1", "--out"]
        assert cli.main([*argv, str(tmp_path / "stopped")]) == 0
        assert test_accuracies[-1] == 1.0 and len(test_accuracies) == 3
        capsys.readouterr()

        # the full-length run goes on past the perfect epoch and diverges
        test_accuracies.clear()
        monkeypatch.setattr(evaluation, "train", lambda *a, **k: train(
            *a, **{**k, "track_train_accuracy": True}))
        assert cli.main([*argv, str(tmp_path / "full")]) == 4
        assert capsys.readouterr().err == "error: loss became non-finite at epoch 3\n"

    def test_evaluation_runs_one_clean_pass_for_all_seeds(self, monkeypatch):
        from spikecodec import TrainConfig, evaluation, snn

        calls = []
        original = snn.classify_batch

        def counted(net, tensors):
            calls.append(len(tensors))
            return original(net, tensors)

        monkeypatch.setattr(snn, "classify_batch", counted)
        monkeypatch.setattr(evaluation, "HIDDEN", (8,))
        ds = synth_dataset(3, 4, seed=1, seconds=1.0)
        train_ds, test_ds = ds.split_leave_one_user_out(sorted(set(ds.users))[0])
        evaluate_scheme("binary6", EncodingConfig(Scheme.BINARY, n_bits=6),
                        train_ds, test_ds, TrainConfig(epochs=1, batch_size=8),
                        noise_seeds=3)
        # 3 seeds x 3 probabilities and no clean pass: the best epoch's test
        # accuracy from training is the baseline
        assert len(calls) == 3 * 3


class TestReportRow:
    def test_non_finite_snr_is_written_as_null(self):
        row = SchemeEvaluation(scheme="binary6", tensor_shape=(6, 1, 4),
                               time_step_ms=50.0, afr_pct=50.0,
                               snr_db=float("inf"), accuracy=1.0)
        assert row.to_dict()["snr_db"] is None
        row.snr_db = 12.5
        assert row.to_dict()["snr_db"] == 12.5


class TestNoiseModeDefaults:
    def test_ternary_schemes_use_signed_perturb(self):
        assert noise_mode_for(Scheme.TTFS_LOG) is NoiseMode.SIGNED_PERTURB
        assert noise_mode_for(Scheme.DELTA_MOD) is NoiseMode.SIGNED_PERTURB

    def test_binary_valued_schemes_use_flips(self):
        for scheme in (Scheme.RATE_UNIFORM, Scheme.RATE_NORMAL, Scheme.RATE_BETA,
                       Scheme.TTFS_LINEAR, Scheme.BINARY):
            assert noise_mode_for(scheme) is NoiseMode.FLIP_BINARY
