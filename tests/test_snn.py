"""CUBA neuron dynamics, the training loop, checkpoint persistence, and the
compiled LIF recurrence."""

import contextlib
import dataclasses
import hashlib
import os
import select
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from spikecodec import (
    CubaNetwork,
    CubaParams,
    EncodingConfig,
    Rng,
    Scheme,
    SpikeTensor,
    TrainConfig,
    classify_batch,
    classify_detailed,
    derive_seed,
    encode,
    gradient_check,
    load_checkpoint,
    output_rates,
    save_checkpoint,
    synth_dataset,
    train,
)
from spikecodec.errors import (
    BadMagicError,
    ConfigError,
    DivergenceError,
    ParseError,
    ShapeError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from spikecodec import snn
from spikecodec.evaluation import VARIANT_NAMES, encode_dataset, variant_config
from spikecodec.snn import (
    _lif_backward,
    _lif_forward,
    _loss_and_grads,
    _simulate,
    _stack_batch,
)


def encode_windows(dataset, config, base_seed=0):
    return [(encode(sig, config, Rng(derive_seed(base_seed, i))), int(label))
            for i, (sig, label) in enumerate(dataset)]


def small_task(n_per_class=4, seconds=1.0, steps=10, seed=1):
    ds = synth_dataset(3, n_per_class, seed=seed, seconds=seconds)
    cfg = EncodingConfig(Scheme.RATE_UNIFORM, steps_per_sample=steps, seed=seed)
    return encode_windows(ds, cfg, base_seed=seed)


def cuba_steps(x, weights, params):
    """Run one dense CUBA layer from a fresh state over an input sequence x
    (timesteps, n_in) through the numpy reference recurrence.

    Returns the spikes, synaptic currents and post-reset potentials, each
    (timesteps, n).  The current is recovered from the potentials, which the
    recurrence records before the reset: u[t] = v[t] - a_v * v_post[t - 1].
    """
    drive = (np.asarray(x, dtype=np.float64) @ np.asarray(weights).T)[:, np.newaxis, :]
    v = np.empty_like(drive)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(snn, "_kernel", lambda: None)
        _lif_forward(drive, v, params, soft=False)
    s, v = drive[:, 0], v[:, 0]
    v_post = v * (1.0 - s)
    v_prev = np.vstack([np.zeros((1, v.shape[1])), v_post[:-1]])
    return s, v - (1.0 - params.voltage_decay) * v_prev, v_post


def raster(net, tensor):
    """Output spikes (timesteps, classes) of one SpikeTensor."""
    return _simulate(net, _stack_batch([tensor]))[0][:, 0, :]


class TestCubaStep:
    def test_zero_weights_stay_silent(self):
        p = CubaParams()
        w = np.zeros((4, 3))
        s, u, v = cuba_steps(np.ones((20, 3)), w, p)
        assert (s == 0).all()
        assert (u[-1] == 0).all() and (v[-1] == 0).all()

    def test_single_suprathreshold_drive_spikes_and_resets(self):
        # drive 1.5 * threshold from fresh state: u = v = 1.5, spike, reset
        p = CubaParams(threshold=1.0, current_decay=0.5, voltage_decay=0.3)
        s, u, v = cuba_steps([[1.0]], [[1.5]], p)
        assert s[0, 0] == 1.0
        assert u[0, 0] == pytest.approx(1.5)
        assert v[0, 0] == 0.0

    def test_subthreshold_drive_converges_below_threshold(self):
        # constant drive c: u -> c / a_u, v -> u / a_v (geometric series
        # limits); with the limit below threshold the neuron never fires
        p = CubaParams(threshold=1.0, current_decay=0.5, voltage_decay=0.5)
        c = 0.2
        limit = (c / 0.5) / 0.5
        assert limit < p.threshold
        s, _, v = cuba_steps(np.ones((1000, 1)), [[c]], p)
        assert (s == 0.0).all()
        assert v[-1, 0] == pytest.approx(limit, rel=1e-6)

    def test_identity_relay_special_case(self):
        # full decays and threshold 0.5 relay a {0,1} train unchanged
        p = CubaParams(threshold=0.5, current_decay=1.0, voltage_decay=1.0)
        w = np.array([[1.0]])
        pattern = [1, 0, 1, 1, 0, 0, 1]
        s, _, _ = cuba_steps(np.array(pattern, dtype=np.float64)[:, None], w, p)
        out = [int(spike) for spike in s[:, 0]]
        assert out == pattern

    def test_dimension_checks(self):
        p = CubaParams()
        net = CubaNetwork((2, 4), params=p, dropout_p=0.0, weights=[np.zeros((4, 2))])
        with pytest.raises(ShapeError):
            output_rates(net, np.ones((1, 3, 10)))


class TestForward:
    def test_zero_input_zero_rates(self):
        net = CubaNetwork((7, 8, 3), dropout_p=0.0, seed=1)
        silent = SpikeTensor(np.zeros((1, 7, 40), dtype=np.int8), 1.0)
        assert (raster(net, silent) == 0).all()
        assert (output_rates(net, _stack_batch([silent])) == 0).all()

    def test_saturating_drive_rates_near_one(self):
        # strong positive weights and a dense input saturate the output
        sizes = (4, 6, 3)
        weights = [np.full((6, 4), 2.0), np.full((3, 6), 2.0)]
        net = CubaNetwork(sizes, params=CubaParams(threshold=1.0, current_decay=1.0,
                                                   voltage_decay=1.0),
                          dropout_p=0.0, weights=weights)
        dense = SpikeTensor(np.ones((1, 4, 30), dtype=np.int8), 1.0)
        assert output_rates(net, _stack_batch([dense])).min() >= 0.9

    def test_forward_is_deterministic(self):
        net = CubaNetwork((7, 16, 3), dropout_p=0.0, seed=3)
        tensor, _ = small_task()[0]
        assert np.array_equal(raster(net, tensor), raster(net, tensor))

    def test_potential_never_ends_step_at_or_above_threshold(self):
        # the potential left after a step is the pre-reset one where the
        # neuron stayed silent and zero where it fired
        net = CubaNetwork((7, 16, 8, 3), dropout_p=0.0, seed=5)
        out, tape = _simulate(net, _stack_batch([t for t, _ in small_task()[:4]]),
                              record=True)
        spikes = [layer["x"] for layer in tape[1:]] + [out]
        for layer, s, p in zip(tape, spikes, net.params):
            assert (layer["v"] * (1.0 - s) < p.threshold).all()

    def test_doubling_weights_and_threshold_preserves_raster(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            seed = int(rng.integers(0, 10_000))
            net = CubaNetwork((7, 12, 3), dropout_p=0.0, seed=seed)
            doubled = CubaNetwork(
                (7, 12, 3),
                params=[CubaParams(p.threshold * 2, p.current_decay, p.voltage_decay)
                        for p in net.params],
                dropout_p=0.0,
                weights=[w * 2 for w in net.weights],
            )
            tensor, _ = small_task(seed=trial)[0]
            assert np.array_equal(raster(net, tensor), raster(doubled, tensor))


class TestRateLoss:
    def test_loss_is_the_mean_squared_error_against_fixed_targets(self):
        net = CubaNetwork((7, 16, 3), dropout_p=0.0, seed=3)
        data = small_task()
        x = _stack_batch([t for t, _ in data])
        labels = np.array([label for _, label in data])
        targets = np.full((len(data), 3), 0.1)
        targets[np.arange(len(data)), labels] = 0.9
        expected = np.mean(np.square(output_rates(net, x) - targets))
        loss, _ = _loss_and_grads(net, x, labels, soft=False)
        assert loss == pytest.approx(expected, rel=1e-12)
        assert expected > 0

    def test_label_outside_the_classes_is_rejected(self):
        net = CubaNetwork((7, 8, 2), dropout_p=0.0, seed=1)
        with pytest.raises(IndexError):
            _loss_and_grads(net, np.zeros((1, 7, 10)), np.array([2]), soft=False)


class TestClassify:
    def test_tie_breaks_toward_lowest_index(self):
        # an all-tie rate vector (silent input) must yield class 0
        net = CubaNetwork((7, 8, 3), dropout_p=0.0, seed=1)
        silent = SpikeTensor(np.zeros((1, 7, 40), dtype=np.int8), 1.0)
        assert classify_detailed(net, silent).label == 0
        # the documented rule on plain rate vectors
        assert int(np.argmax(np.array([0.8, 0.1, 0.1]))) == 0
        assert int(np.argmax(np.array([0.5, 0.5, 0.1]))) == 0

    def test_no_spike_flag(self):
        net = CubaNetwork((7, 8, 3), dropout_p=0.0, seed=1)
        silent = SpikeTensor(np.zeros((1, 7, 40), dtype=np.int8), 1.0)
        result = classify_detailed(net, silent)
        assert result.label == 0
        assert result.no_spikes

    def test_classify_matches_forward(self):
        net = CubaNetwork((7, 16, 3), dropout_p=0.0, seed=3)
        tensor, _ = small_task()[0]
        assert (classify_detailed(net, tensor).label
                == int(np.argmax(raster(net, tensor).mean(axis=0))))

    def test_batched_rates_match_single_samples(self):
        net = CubaNetwork((7, 16, 3), dropout_p=0.0, seed=3)
        data = small_task()
        tensors = [t for t, _ in data]
        whole = output_rates(net, _stack_batch(tensors))
        assert whole.shape == (len(tensors), 3)
        np.testing.assert_array_equal(
            output_rates(net, _stack_batch(tensors), batch_size=5), whole)
        for tensor, rates in zip(tensors, whole):
            np.testing.assert_array_equal(raster(net, tensor).mean(axis=0), rates)
            np.testing.assert_array_equal(classify_detailed(net, tensor).rates, rates)
        np.testing.assert_array_equal(classify_batch(net, tensors),
                                      np.argmax(whole, axis=1))

    def test_input_block_flattens_trains_then_channels(self):
        data = np.arange(2 * 3 * 4).reshape(2, 3, 4) % 3 - 1
        tensors = [SpikeTensor(data, 1.0), SpikeTensor(-data, 1.0)]
        x = _stack_batch(tensors)
        assert x.dtype == np.float64 and x.shape == (2, 6, 4)
        for tensor, block in zip(tensors, x):
            for train_i in range(2):
                for channel in range(3):
                    np.testing.assert_array_equal(block[3 * train_i + channel],
                                                  tensor.data[train_i, channel])
        with pytest.raises(ShapeError):
            _stack_batch([tensors[0], SpikeTensor(data[:, :, :3], 1.0)])
        with pytest.raises(ShapeError, match="no timesteps"):
            _stack_batch([SpikeTensor(data[:, :, :0], 1.0)])


class TestTraining:
    def test_memorizes_single_sample(self):
        data = small_task()
        sample = [data[0]]
        net = CubaNetwork((7, 16, 8, 3), dropout_p=0.0, seed=2)
        cfg = TrainConfig(epochs=30, learning_rate=5e-3, batch_size=1, seed=4)
        result = train(net, sample, cfg)
        assert result.best_test_accuracy == 1.0

    def test_equal_seeds_give_identical_loss_sequences(self):
        data = small_task()
        runs = []
        for _ in range(2):
            net = CubaNetwork((7, 16, 8, 3), dropout_p=0.1, seed=2)
            cfg = TrainConfig(epochs=5, learning_rate=1e-3, batch_size=4, seed=4)
            result = train(net, data, cfg)
            runs.append([h.loss for h in result.history])
        assert runs[0] == runs[1]

    def test_best_epoch_weights_are_restored(self):
        data = small_task()
        net = CubaNetwork((7, 16, 8, 3), dropout_p=0.0, seed=2)
        cfg = TrainConfig(epochs=6, learning_rate=2e-3, batch_size=4, seed=4)
        result = train(net, data, cfg)
        accs = [h.test_accuracy for h in result.history]
        assert result.best_epoch == int(np.argmax(accs))
        assert result.best_test_accuracy == max(accs)

    def test_train_accuracy_tracking_changes_nothing_else(self):
        data = small_task()
        runs = []
        for track in (True, False):
            net = CubaNetwork((7, 16, 8, 3), dropout_p=0.1, seed=2)
            cfg = TrainConfig(epochs=4, learning_rate=2e-3, batch_size=4, seed=4)
            runs.append(train(net, data[:8], cfg, test_set=data[8:],
                              track_train_accuracy=track))
        on, off = runs
        assert [w.tobytes() for w in on.net.weights] == [
            w.tobytes() for w in off.net.weights]
        assert on.best_epoch == off.best_epoch
        assert [(h.loss, h.test_accuracy) for h in on.history] == [
            (h.loss, h.test_accuracy) for h in off.history]
        assert all(isinstance(h.train_accuracy, float) for h in on.history)
        assert all(h.train_accuracy is None for h in off.history)

    @staticmethod
    def perfect_at_epoch_one(track):
        # binary6 with user 0 held out: test accuracy 0.83, 1.0, 1.0, 0.83,
        # 0.83, 0.83 over the six epochs of a full run
        ds = synth_dataset(3, 8, seed=1, seconds=1.0)
        train_ds, test_ds = ds.split_leave_one_user_out(sorted(set(ds.users))[0])
        config = variant_config("binary6", seed=1)
        net = CubaNetwork((42, 16, 3), dropout_p=0.0, seed=2)
        cfg = TrainConfig(epochs=6, learning_rate=5e-3, batch_size=4, seed=4)
        return train(net, encode_dataset(train_ds, config), cfg,
                     test_set=encode_dataset(test_ds, config),
                     track_train_accuracy=track)

    def test_tracking_off_stops_after_the_first_perfect_epoch(self):
        on, off = self.perfect_at_epoch_one(True), self.perfect_at_epoch_one(False)
        first = [h.test_accuracy for h in on.history].index(1.0)
        assert first == 1
        assert len(off.history) == first + 1
        assert [(h.loss, h.test_accuracy) for h in off.history] == [
            (h.loss, h.test_accuracy) for h in on.history[:first + 1]]
        assert [w.tobytes() for w in off.net.weights] == [
            w.tobytes() for w in on.net.weights]
        assert off.best_epoch == on.best_epoch == first
        assert off.best_test_accuracy == on.best_test_accuracy == 1.0

    def test_tracking_on_keeps_every_epoch_after_a_perfect_one(self):
        on = self.perfect_at_epoch_one(True)
        accs = [h.test_accuracy for h in on.history]
        assert len(on.history) == 6 and [h.epoch for h in on.history] == list(range(6))
        assert accs[1] == 1.0 and min(accs[2:]) < 1.0
        assert all(isinstance(h.train_accuracy, float) for h in on.history)

    @pytest.mark.parametrize("track", (True, False))
    def test_without_a_test_set_one_accuracy_pass_per_epoch(self, track,
                                                             monkeypatch):
        calls = []
        original = snn.output_rates

        def counted(*args, **kwargs):
            calls.append(args[1].shape[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(snn, "output_rates", counted)
        data = small_task()
        net = CubaNetwork((7, 16, 8, 3), dropout_p=0.1, seed=2)
        cfg = TrainConfig(epochs=3, learning_rate=2e-3, batch_size=4, seed=4)
        result = train(net, data, cfg, track_train_accuracy=track)
        assert calls == [len(data)] * 3
        for h in result.history:
            assert h.train_accuracy == (h.test_accuracy if track else None)

    @pytest.mark.parametrize("scheme", (Scheme.RATE_UNIFORM, Scheme.TTFS_LINEAR))
    def test_weights_beyond_float32_are_divergence(self, scheme):
        # a huge step leaves the loss finite: rate-uniform's weights stay
        # finite float64s near 1e300, which a checkpoint would store as
        # inf, and ttfs-linear's turn NaN, whose neurons never fire
        ds = synth_dataset(3, 4, seed=1, seconds=1.0)
        data = encode_windows(ds, EncodingConfig(scheme, steps_per_sample=5, seed=1), 1)
        net = CubaNetwork((7, 16, 8, 3), dropout_p=0.0, seed=2)
        cfg = TrainConfig(epochs=2, learning_rate=1e300, batch_size=4, seed=4)
        with pytest.raises(DivergenceError, match="float32 range"):
            train(net, data, cfg)

    def test_mixed_shapes_rejected(self):
        a = SpikeTensor(np.zeros((1, 7, 10), dtype=np.int8), 1.0)
        b = SpikeTensor(np.zeros((1, 7, 20), dtype=np.int8), 1.0)
        net = CubaNetwork((7, 8, 2), dropout_p=0.0)
        with pytest.raises(ShapeError):
            train(net, [(a, 0), (b, 1)], TrainConfig(epochs=1))


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", (
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("learning_rate", "0.1"),
        ("epochs", 2.5),
        ("epochs", True),
        ("batch_size", float("nan")),
        ("batch_size", "16"),
        ("seed", 1.0),
        ("seed", False),
        ("seed", -1),
    ))
    def test_non_integer_or_non_finite_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_numpy_integers_are_stored_as_int(self):
        cfg = TrainConfig(epochs=np.int64(3), batch_size=np.uint8(4), seed=np.int32(5))
        assert (cfg.epochs, cfg.batch_size, cfg.seed) == (3, 4, 5)
        assert all(type(v) is int for v in (cfg.epochs, cfg.batch_size, cfg.seed))


@pytest.mark.parametrize("cls, required", ((TrainConfig, {}),), ids=("TrainConfig",))
def test_every_float_setting_rejects_nan(cls, required):
    names = [f.name for f in dataclasses.fields(cls) if f.type in (float, "float")]
    assert names
    for name in names:
        with pytest.raises(ConfigError, match=name):
            cls(**required, **{name: float("nan")})


class TestGradientCheck:
    def test_soft_mode_matches_finite_differences(self):
        data = small_task()
        net = CubaNetwork((7, 16, 8, 3), dropout_p=0.0, seed=7)
        result = gradient_check(net, data[0], seed=11)
        assert result.n_checked >= 100
        assert result.max_rel_error <= 1e-4

    def test_zero_input_gives_zero_gradients_in_hard_mode(self):
        from spikecodec.snn import _loss_and_grads

        net = CubaNetwork((7, 16, 8, 3), dropout_p=0.0, seed=3)
        x = np.zeros((1, 7, 100))
        _, grads = _loss_and_grads(net, x, np.array([0]), soft=False)
        assert all((g == 0).all() for g in grads)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = CubaNetwork((7, 16, 8, 3), dropout_p=0.2, seed=5,
                          params=CubaParams(1.25, 0.4, 0.15))
        path = tmp_path / "model.cuba"
        cfg = TrainConfig(epochs=3, seed=9)
        save_checkpoint(net, path, train_config=cfg, sidecar_extra={"note": "x"})
        loaded, sidecar = load_checkpoint(path)
        assert loaded.layer_sizes == net.layer_sizes
        assert loaded.dropout_p == net.dropout_p
        assert loaded.params[0] == net.params[0]
        for a, b in zip(loaded.weights, net.weights):
            np.testing.assert_array_equal(a, b.astype(np.float32).astype(np.float64))
        assert sidecar["train_config"]["seed"] == 9
        assert sidecar["note"] == "x"

    def test_sidecar_records_every_training_value(self, tmp_path):
        path = tmp_path / "model.cuba"
        save_checkpoint(CubaNetwork((2, 3), dropout_p=0.0, seed=1), path,
                        train_config=TrainConfig(epochs=3, learning_rate=2e-3,
                                                 batch_size=8, seed=4))
        _, sidecar = load_checkpoint(path)
        # the settings, then the constants training always uses
        assert sidecar["train_config"] == {
            "epochs": 3, "learning_rate": 2e-3, "batch_size": 8, "seed": 4,
            "soft_mode": False, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
            "surrogate_slope": 10.0}
        assert sidecar["train_config"]["soft_mode"] is False

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cuba"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        net = CubaNetwork((2, 3), dropout_p=0.0, seed=1)
        path = tmp_path / "model.cuba"
        save_checkpoint(net, path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            load_checkpoint(path)

    def test_bytes_after_the_last_weight_are_a_parse_error(self, tmp_path):
        path = tmp_path / "model.cuba"
        save_checkpoint(CubaNetwork((4, 8, 3), dropout_p=0.0, seed=1), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ParseError, match="1 extra byte"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        net = CubaNetwork((4, 8, 3), dropout_p=0.0, seed=1)
        path = tmp_path / "model.cuba"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-40])
        with pytest.raises(TruncatedPayloadError):
            load_checkpoint(path)

    def test_every_cut_inside_the_header_is_a_truncation(self, tmp_path):
        net = CubaNetwork((4, 8, 3), dropout_p=0.0, seed=1)
        path = tmp_path / "model.cuba"
        save_checkpoint(net, path)
        header = path.read_bytes()[:4 + 2 + 1 + 3 * 4 + 8 + 2 * 24]
        for cut in range(4, len(header) + 1):
            path.write_bytes(header[:cut])
            with pytest.raises(TruncatedPayloadError):
                load_checkpoint(path)

    def test_inference_identical_after_reload(self, tmp_path):
        data = small_task()
        net = CubaNetwork((7, 16, 8, 3), dropout_p=0.0, seed=5)
        # float32 storage quantizes the weights, so compare the reloaded
        # net against a float32-rounded twin
        path = tmp_path / "model.cuba"
        save_checkpoint(net, path)
        loaded, _ = load_checkpoint(path)
        rounded = CubaNetwork(net.layer_sizes, params=net.params, dropout_p=0.0,
                              weights=[w.astype(np.float32).astype(np.float64)
                                       for w in net.weights])
        for tensor, _ in data[:3]:
            assert (classify_detailed(loaded, tensor).label
                    == classify_detailed(rounded, tensor).label)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_trained_network_reloads_with_identical_rasters(self, variant,
                                                            tmp_path):
        # float32 storage rounds the trained float64 weights; no spike of
        # the held-out split may move because of it
        ds = synth_dataset(3, 6, seed=301, seconds=1.0)
        train_ds, test_ds = ds.split_leave_one_user_out("user0")
        config = variant_config(variant, steps_per_sample=10, seed=301)
        encoded_train = encode_dataset(train_ds, config, derive_seed(301, 1))
        encoded_test = encode_dataset(test_ds, config, derive_seed(301, 2))
        sample = encoded_train[0][0]
        net = CubaNetwork((sample.n_trains * sample.n_channels, 256, 64, 3),
                          dropout_p=0.1, seed=301)
        result = train(net, encoded_train, TrainConfig(
            epochs=2, learning_rate=2e-3, batch_size=16, seed=301),
            test_set=encoded_test)
        path = tmp_path / "model.cuba"
        save_checkpoint(result.net, path)
        loaded, _ = load_checkpoint(path)
        x = _stack_batch([t for t, _ in encoded_test])
        trained_out, _ = _simulate(result.net, x)
        loaded_out, _ = _simulate(loaded, x)
        assert trained_out.any()
        np.testing.assert_array_equal(loaded_out, trained_out)

    @pytest.mark.parametrize("value", (float("nan"), 1e39))
    def test_weight_float32_cannot_hold_is_not_saved(self, value, tmp_path):
        net = CubaNetwork((7, 8, 3), dropout_p=0.0, seed=1)
        net.weights[0][0, 0] = value
        with pytest.raises(DivergenceError):
            save_checkpoint(net, tmp_path / "model.cuba")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", (float("nan"), float("inf"), -float("inf")))
    def test_stored_weight_that_is_not_finite_is_a_parse_error(self, value, tmp_path):
        path = tmp_path / "model.cuba"
        save_checkpoint(CubaNetwork((7, 8, 3), dropout_p=0.0, seed=1), path)
        blob = bytearray(path.read_bytes())
        # weights[0][0, 0] follows the 75-byte header of a two-layer net
        struct.pack_into("<f", blob, 75, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="not finite"):
            load_checkpoint(path)

    def test_zero_layers_is_a_shape_error(self, tmp_path):
        path = tmp_path / "empty.cuba"
        path.write_bytes(b"CUB1" + struct.pack("<HBId", 1, 0, 7, 0.1))
        assert len(path.read_bytes()) == 19
        with pytest.raises(ShapeError):
            load_checkpoint(path)


class TestSimulateInternals:
    def test_simulate_agrees_with_cuba_step_composition(self):
        net = CubaNetwork((5, 9, 4), dropout_p=0.0, seed=21)
        rng = np.random.default_rng(3)
        x = (rng.uniform(size=(1, 5, 30)) < 0.4).astype(np.float64)
        out, _ = _simulate(net, x)

        s = x[0].T
        for li in range(2):
            s, _, _ = cuba_steps(s, net.weights[li], net.params[li])
        manual = s[:, np.newaxis, :]
        np.testing.assert_array_equal(out, manual)


class TestWorkspace:
    """One workspace reused across calls of different batch sizes gives
    the results of a fresh workspace per call, and nothing returned aliases
    its buffers."""

    def test_reuse_across_batch_sizes_is_bitwise_fresh(self):
        net = CubaNetwork((7, 32, 16, 3), dropout_p=0.1, seed=8)
        rng = np.random.default_rng(12)
        work = snn._Workspace()
        kept = []
        for batch in (16, 7, 16):
            x = (rng.uniform(size=(batch, 7, 40)) < 0.3).astype(np.float64)
            labels = rng.integers(0, 3, size=batch)
            masks = [(rng.uniform(size=(batch, n)) < 0.9) / 0.9
                     for n in net.layer_sizes[1:-1]]
            shared = _loss_and_grads(net, x, labels, soft=False,
                                     dropout_masks=masks, work=work)
            fresh = _loss_and_grads(net, x, labels, soft=False,
                                    dropout_masks=masks)
            assert shared[0] == fresh[0]
            for g, g_fresh in zip(shared[1], fresh[1]):
                np.testing.assert_array_equal(g, g_fresh)
            kept.append((shared, [g.copy() for g in shared[1]]))
        assert any(g.any() for g in kept[0][1])
        for (_, grads), copies in kept:
            for g, g_copy in zip(grads, copies):
                np.testing.assert_array_equal(g, g_copy)

    def test_training_step_holds_x_v_and_two_gradient_blocks(self):
        # widths 7-256-64-3: the input (7), per layer the drive block that
        # becomes the next layer's input (256 + 64 + 3) and the pre-reset
        # potentials (256 + 64 + 3), and one gradient block per layer
        # parity, as wide as its widest layer (256 + 64)
        t_len, batch = 20, 4
        net = CubaNetwork((7, 256, 64, 3), dropout_p=0.1, seed=3)
        rng = np.random.default_rng(6)
        x = (rng.uniform(size=(batch, 7, t_len)) < 0.3).astype(np.float64)
        masks = [(rng.uniform(size=(batch, n)) < 0.9) / 0.9 for n in (256, 64)]
        work = snn._Workspace()
        _loss_and_grads(net, x, rng.integers(0, 3, size=batch), soft=False,
                        dropout_masks=masks, work=work)
        assert sum(flat.size for flat in work._flat.values()) == 973 * t_len * batch
        assert snn.step_width(net.layer_sizes) == 973

    @pytest.mark.parametrize("sizes", ((4, 6), (3, 8, 2), (5, 3, 9, 2), (2, 9, 3, 7, 4)))
    def test_step_width_is_the_workspace_of_one_step(self, sizes):
        t_len, batch = 5, 3
        net = CubaNetwork(sizes, dropout_p=0.0, seed=3)
        rng = np.random.default_rng(7)
        x = (rng.uniform(size=(batch, sizes[0], t_len)) < 0.5).astype(np.float64)
        work = snn._Workspace()
        _loss_and_grads(net, x, rng.integers(0, sizes[-1], size=batch), work=work)
        assert (sum(flat.size for flat in work._flat.values())
                == snn.step_width(sizes) * t_len * batch)

    def test_smaller_request_reuses_the_buffer_prefix(self):
        work = snn._Workspace()
        big = work.take("a", (4, 16, 3))
        small = work.take("a", (4, 7, 3))
        assert small.flags.c_contiguous and small.shape == (4, 7, 3)
        assert np.shares_memory(big, small)
        assert not np.shares_memory(work.take("b", (4, 7, 3)), big)

    def test_results_kept_across_later_calls_are_unchanged(self):
        net = CubaNetwork((7, 16, 3), dropout_p=0.0, seed=4)
        rng = np.random.default_rng(5)
        a, b = ((rng.uniform(size=(3, 7, 30)) < p).astype(np.float64) for p in (0.5, 0.1))
        work = snn._Workspace()
        rates = output_rates(net, a, batch_size=2, work=work)
        rates_copy = rates.copy()
        output_rates(net, b, batch_size=2, work=work)
        assert rates.any()
        np.testing.assert_array_equal(rates, rates_copy)


class TestCompiledKernel:
    """The C recurrence against the numpy reference: same rasters, same
    pre-reset potentials, same gradients, bit for bit."""

    @staticmethod
    def on_both_paths(fn, monkeypatch):
        """fn() on the compiled kernel, then on the numpy reference."""
        if snn._kernel() is None:
            pytest.skip("no C compiler to build the LIF kernel")
        compiled = fn()
        with monkeypatch.context() as m:
            m.setattr(snn, "_kernel", lambda: None)
            return compiled, fn()

    def run_both(self, net, x, labels, masks, monkeypatch):
        def run():
            out, tape = _simulate(net, x, record=True, dropout_masks=masks)
            loss, grads = _loss_and_grads(net, x, labels, soft=False,
                                          dropout_masks=masks)
            return out, tape, loss, grads

        return self.on_both_paths(run, monkeypatch)

    @pytest.mark.parametrize("t_len", (20, 95, 400))
    @pytest.mark.parametrize("batch", (1, 16, 45))
    def test_bitwise_equal_to_numpy_reference(self, batch, t_len, monkeypatch):
        # every input width of the matrix variants (7 channels times 1, 5
        # or 10 trains) meets every batch size and every duration once
        n_in = (7, 35, 70)[(batch + t_len) % 3]
        rng = np.random.default_rng(batch * 1000 + t_len)
        x = (rng.uniform(size=(batch, n_in, t_len)) < 0.2).astype(np.float64)
        labels = rng.integers(0, 3, size=batch)
        for dropout_p in (0.0, 0.1):
            net = CubaNetwork((n_in, 256, 64, 3), dropout_p=dropout_p,
                              seed=int(rng.integers(1000)))
            masks = None
            if dropout_p:
                masks = [(rng.uniform(size=(batch, n)) < 0.9) / 0.9
                         for n in net.layer_sizes[1:-1]]
            compiled, reference = self.run_both(net, x, labels, masks, monkeypatch)
            out, tape, loss, grads = compiled
            out_r, tape_r, loss_r, grads_r = reference
            assert out.any()
            np.testing.assert_array_equal(out, out_r)
            for layer, layer_r in zip(tape, tape_r):
                np.testing.assert_array_equal(layer["x"], layer_r["x"])
                np.testing.assert_array_equal(layer["v"], layer_r["v"])
            assert loss == loss_r
            for g, g_r in zip(grads, grads_r):
                np.testing.assert_array_equal(g, g_r)

    PARAMS = CubaParams(threshold=1.0, current_decay=0.4, voltage_decay=0.2)

    @staticmethod
    def case_inputs(masked):
        """A (95, 3, 40) block of currents or potentials, and a (3, 40)
        dropout mask or None."""
        rng = np.random.default_rng(29)
        mask = (rng.uniform(size=(3, 40)) < 0.9) / 0.9 if masked else None
        return rng.normal(0.4, 0.6, size=(95, 3, 40)), mask

    @pytest.mark.parametrize("masked", (False, True))
    @pytest.mark.parametrize("record", (False, True))
    def test_forward_case_bitwise_equal_to_numpy_reference(self, record, masked,
                                                            monkeypatch):
        drive, mask = self.case_inputs(masked)

        def run():
            spikes = drive.copy()
            v_rec = np.full(drive.shape, np.nan) if record else None
            _lif_forward(spikes, v_rec, self.PARAMS, mask=mask)
            return spikes, v_rec

        (spikes, v_rec), (spikes_r, v_rec_r) = self.on_both_paths(run, monkeypatch)
        assert 0 < np.count_nonzero(spikes) < spikes.size
        if masked:
            assert set(np.unique(spikes)) == {0.0, 1.0 / 0.9}
        np.testing.assert_array_equal(spikes, spikes_r)
        if record:
            assert np.isfinite(v_rec).all()
            np.testing.assert_array_equal(v_rec, v_rec_r)

    @pytest.mark.parametrize("masked", (False, True))
    def test_backward_case_bitwise_equal_to_numpy_reference(self, masked,
                                                             monkeypatch):
        v_seq, mask = self.case_inputs(masked)
        spike_grads = np.random.default_rng(31).normal(size=v_seq.shape)

        def run():
            g = spike_grads.copy()
            _lif_backward(v_seq, g, mask, self.PARAMS, soft=False)
            return g

        g, g_r = self.on_both_paths(run, monkeypatch)
        assert not np.array_equal(g, spike_grads)
        np.testing.assert_array_equal(g, g_r)

    # batch 1 at every width up to 17, and around 32, 64 and 256: the
    # vectorised loops run a scalar remainder after each full vector, and
    # a width below one vector runs only that remainder
    WIDTHS = (*range(1, 18), 31, 33, 63, 65, 257)

    @staticmethod
    def width_inputs(width, masked):
        """A (37, 1, width) block of currents or potentials, with lanes that
        reach the threshold exactly or are NaN at the first step, and a
        (1, width) dropout mask or None."""
        rng = np.random.default_rng(width)
        block = rng.normal(0.4, 0.6, size=(37, 1, width))
        # from a zeroed state the first potentials equal the first currents
        block[0, 0, ::3] = TestCompiledKernel.PARAMS.threshold
        block[0, 0, 1::7] = np.nan
        mask = (rng.uniform(size=(1, width)) < 0.9) / 0.9 if masked else None
        return block, mask

    @pytest.mark.parametrize("width", WIDTHS)
    def test_every_remainder_width_is_bitwise_equal(self, width, monkeypatch):
        for masked in (False, True):
            drive, mask = self.width_inputs(width, masked)
            for record in (False, True):
                def forward():
                    spikes = drive.copy()
                    v_rec = np.full(drive.shape, -1.0) if record else None
                    _lif_forward(spikes, v_rec, self.PARAMS, mask=mask)
                    return spikes, v_rec

                (spikes, v_rec), (spikes_r, v_rec_r) = self.on_both_paths(
                    forward, monkeypatch)
                assert spikes[0, 0, 0] != 0.0 or (masked and mask[0, 0] == 0.0)
                np.testing.assert_array_equal(spikes, spikes_r)
                if record:
                    np.testing.assert_array_equal(v_rec, v_rec_r)

            spike_grads = np.random.default_rng(width + 1).normal(size=drive.shape)

            def backward():
                g = spike_grads.copy()
                _lif_backward(drive, g, mask, self.PARAMS, soft=False)
                return g

            g, g_r = self.on_both_paths(backward, monkeypatch)
            np.testing.assert_array_equal(g, g_r)

    def test_flags_keep_the_rounding_of_the_numpy_reference(self):
        # the bitwise promise rests on these: no contraction into FMA, and
        # nothing that reorders or approximates IEEE double arithmetic
        assert "-ffp-contract=off" in snn._KERNEL_FLAGS
        for flag in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                     "-march=native", "-mfma"):
            assert flag not in snn._KERNEL_FLAGS

    def test_new_flags_build_a_new_library(self, tmp_path, monkeypatch):
        # a library cached under other flags (here the -O2 the kernel once
        # shipped with) is never loaded for the current ones
        shipped = snn._KERNEL_FLAGS
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(snn, "_KERNEL_FLAGS", ("-O2",) + shipped[1:])
        if snn._load_kernel() is None:
            pytest.skip("no C compiler to build the LIF kernel")
        (old,) = (tmp_path / "spikecodec").glob("cuba-*.so")
        loaded = []
        real_cdll = snn.ctypes.CDLL

        def recording_cdll(path, *args, **kwargs):
            loaded.append(path)
            return real_cdll(path, *args, **kwargs)

        monkeypatch.setattr(snn.ctypes, "CDLL", recording_cdll)
        monkeypatch.setattr(snn, "_KERNEL_FLAGS", shipped)
        assert snn._load_kernel() is not None
        (new,) = set((tmp_path / "spikecodec").glob("cuba-*.so")) - {old}
        assert loaded == [str(new)]

    def test_buffers_are_checked_before_their_address_is_passed(self):
        block = np.zeros((5, 2, 3))
        assert snn._ptr(block, (5, 2, 3)) == block.ctypes.data
        row = np.broadcast_to(np.zeros((2, 3)), (5, 2, 3))
        for bad, shape in ((block[:, :, :2], (5, 2, 2)), (block, (5, 3, 2)),
                           (block.astype(np.float32), (5, 2, 3)), (row, (5, 2, 3))):
            with pytest.raises(ShapeError):
                snn._ptr(bad, shape)

    def test_failed_build_falls_back_to_identical_results(self, tmp_path,
                                                           monkeypatch):
        data = small_task()

        def train_and_simulate():
            net = CubaNetwork((7, 16, 8, 3), dropout_p=0.1, seed=2)
            cfg = TrainConfig(epochs=3, learning_rate=2e-3, batch_size=4, seed=4)
            result = train(net, data, cfg)
            return result, _simulate(result.net, _stack_batch([data[0][0]]), record=True)

        first, (first_out, first_tape) = train_and_simulate()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(snn.shutil, "which", lambda name: None)
        assert snn._load_kernel() is None
        monkeypatch.setattr(snn, "_kernel", snn._load_kernel)
        second, (second_out, second_tape) = train_and_simulate()
        assert first.history == second.history
        for a, b in zip(first.net.weights, second.net.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(first_out, second_out)
        for a, b in zip(first_tape, second_tape):
            np.testing.assert_array_equal(a["v"], b["v"])

    def test_compiler_error_means_no_kernel(self, tmp_path, monkeypatch):
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(snn, "_KERNEL_SOURCE", str(broken))
        assert snn._load_kernel() is None
        assert not any((tmp_path / "cache").rglob("*.so"))

    @pytest.mark.skipif(not (shutil.which("cc") or shutil.which("gcc")),
                        reason="no C compiler on PATH")
    def test_shipped_source_builds_where_a_compiler_is_present(self, tmp_path,
                                                               monkeypatch):
        # the other kernel tests skip, and every caller falls back to numpy,
        # when the build fails; with a compiler present that is a defect
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert snn._load_kernel() is not None
        assert len(list((tmp_path / "spikecodec").glob("cuba-*.so"))) == 1

    def test_second_load_reuses_the_cached_library(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        if snn._load_kernel() is None:
            pytest.skip("no C compiler to build the LIF kernel")
        built = list((tmp_path / "spikecodec").iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"

        def no_compiler(*args, **kwargs):
            raise AssertionError("the compiler ran although the kernel was cached")

        monkeypatch.setattr(snn.subprocess, "run", no_compiler)
        assert snn._load_kernel() is not None
        assert list((tmp_path / "spikecodec").iterdir()) == built

    def test_import_does_not_build_the_kernel(self):
        code = ("import spikecodec, spikecodec.cli\n"
                "from spikecodec import snn\n"
                "print(snn._kernel.cache_info().currsize)")
        src = os.path.dirname(os.path.dirname(os.path.abspath(snn.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "0"


def openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or
    None when none is found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                return get, put
    return None


@pytest.fixture
def halves(monkeypatch):
    """A fresh helper thread that records the (lo, hi) of every half it is
    handed, made as on a two-CPU host, so that a one-CPU host runs both
    halves too; shut down afterwards.  OpenBLAS runs one thread meanwhile:
    with more it splits each GEMM across them, and on its Haswell-class
    kernels a row's bits then depend on that partition, whole or split."""
    blas = openblas_threads()
    if blas is not None:
        threads = blas[0]()
        blas[1](1)
    monkeypatch.setattr(snn, "_helper", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pool = snn._helper_thread()
    handed = []
    submit = pool.submit

    def recording_submit(fn, lo, hi):
        handed.append((lo, hi))
        return submit(fn, lo, hi)

    monkeypatch.setattr(pool, "submit", recording_submit)
    yield handed
    pool.shutdown()
    if blas is not None:
        blas[1](threads)


@contextlib.contextmanager
def whole(monkeypatch):
    """A context in which no op is split."""
    with monkeypatch.context() as m:
        m.setattr(snn, "SPLIT_WORK", 1 << 62)
        yield


class TestHalves:
    """Every op of a hidden layer split in two halves, one on the helper
    thread, gives bitwise the results of the whole op; the helper's
    failures and the process's fork and CPU count are handled."""

    # every (T, F, B) of the blocks evaluate builds: T = 400 (rate, TTFS),
    # 95 (delta-mod) and 20 (binary); the input widths 7, 35, 60 and 70; the
    # full batch, a short last batch, the last accuracy block and the sweep
    @pytest.mark.parametrize("t_len", (400, 95, 20))
    @pytest.mark.parametrize("n_in", (7, 35, 60, 70))
    @pytest.mark.parametrize("batch", (16, 7, 13, 45))
    def test_split_blocks_are_bitwise_equal_to_whole_ones(self, t_len, n_in, batch,
                                                          halves, monkeypatch):
        rng = np.random.default_rng(t_len * 10000 + n_in * 100 + batch)
        x = (rng.uniform(size=(batch, n_in, t_len)) < 0.3).astype(np.float64)
        labels = rng.integers(0, 3, size=batch)
        net = CubaNetwork((n_in, 256, 64, 3), dropout_p=0.1,
                          seed=int(rng.integers(1000)))
        masks = [(rng.uniform(size=(batch, n)) < 0.9) / 0.9 for n in (256, 64)]

        def run():
            loss, grads = _loss_and_grads(net, x, labels, soft=False,
                                          dropout_masks=masks)
            return loss, grads, output_rates(net, x)

        # the floor snn.SPLIT_WORK documents: every block splits its
        # 256 -> 64 GEMMs at least
        monkeypatch.setattr(snn, "SPLIT_WORK", 1 << 21)
        loss, grads, rates = run()
        assert halves
        with whole(monkeypatch):
            loss_w, grads_w, rates_w = run()
        assert rates.any()
        assert loss == loss_w
        for g, g_w in zip(grads, grads_w):
            assert g.shape == g_w.shape and g.strides == g_w.strides
            np.testing.assert_array_equal(g, g_w)
        np.testing.assert_array_equal(rates, rates_w)

    def test_the_output_layer_is_never_split(self, halves, monkeypatch):
        monkeypatch.setattr(snn, "SPLIT_WORK", 1)
        net = CubaNetwork((7, 3), dropout_p=0.0, seed=1)
        x = (np.random.default_rng(2).uniform(size=(45, 7, 400)) < 0.3) * 1.0
        _loss_and_grads(net, x, np.zeros(45, dtype=np.int64), soft=False)
        output_rates(net, x)
        assert halves == []

    def test_small_blocks_stay_serial_and_large_steps_split(self, halves):
        # at the shipped SPLIT_WORK: the batch-1 T = 400 pass of infer and a
        # binary training step (T = 20, B = 16) hand nothing to the helper
        rng = np.random.default_rng(3)
        for n_in, t_len, batch, split in ((7, 400, 1, False), (70, 20, 16, False),
                                          (7, 400, 16, True)):
            net = CubaNetwork((n_in, 256, 64, 3), dropout_p=0.0, seed=1)
            x = (rng.uniform(size=(batch, n_in, t_len)) < 0.3) * 1.0
            _loss_and_grads(net, x, np.zeros(batch, dtype=np.int64), soft=False)
            output_rates(net, x)
            assert bool(halves) == split, (n_in, t_len, batch)

    @pytest.mark.parametrize("width", TestCompiledKernel.WIDTHS)
    def test_kernel_lane_halves_equal_one_whole_call(self, width, halves,
                                                     monkeypatch):
        # lanes 8k and beyond go to the helper; the inputs put lanes exactly
        # at the firing threshold; the block splits at SPLIT_WORK exactly
        if snn._kernel() is None:
            pytest.skip("no C compiler to build the LIF kernel")
        p = TestCompiledKernel.PARAMS
        for masked in (False, True):
            drive, mask = TestCompiledKernel.width_inputs(width, masked)
            spike_grads = np.random.default_rng(width + 2).normal(size=drive.shape)

            def run():
                runs = []
                for record in (False, True):
                    spikes = drive.copy()
                    v_rec = np.full(drive.shape, -1.0) if record else None
                    _lif_forward(spikes, v_rec, p, mask=mask)
                    runs += [spikes, v_rec]
                g = spike_grads.copy()
                _lif_backward(drive, g, mask, p, soft=False)
                return runs + [g]

            monkeypatch.setattr(snn, "SPLIT_WORK", drive.size * snn.KERNEL_WORK)
            del halves[:]
            split = run()
            mid = (width + 15) // 16 * 8
            assert halves == ([(mid, width)] * 3 if mid < width else [])
            with whole(monkeypatch):
                whole_run = run()
            for a, b in zip(split, whole_run):
                np.testing.assert_array_equal(a, b)
            monkeypatch.setattr(snn, "SPLIT_WORK", drive.size * snn.KERNEL_WORK + 1)
            del halves[:]
            run()
            assert halves == []

    @pytest.mark.parametrize("failing", ("calling", "helper"))
    def test_an_exception_in_either_half_propagates(self, failing, halves):
        def fn(lo, hi):
            if (lo == 0) == (failing == "calling"):
                raise ValueError(f"{failing} half")

        with pytest.raises(ValueError, match=f"{failing} half"):
            snn._in_halves(fn, 16, snn.SPLIT_WORK)
        assert halves == [(8, 16)]

    def test_the_caller_waits_for_the_other_half_before_raising(self, halves):
        block = np.zeros(16)

        def fn(lo, hi):
            if lo == 0:
                raise ValueError("calling half")
            time.sleep(0.2)
            block[lo:hi] = 1.0

        with pytest.raises(ValueError):
            snn._in_halves(fn, 16, snn.SPLIT_WORK)
        np.testing.assert_array_equal(block, [0.0] * 8 + [1.0] * 8)

    def test_a_forked_child_trains_on_a_helper_of_its_own(self, halves, monkeypatch):
        monkeypatch.setattr(snn, "SPLIT_WORK", 1)
        data = small_task()

        def trained_weights():
            net = CubaNetwork((7, 16, 8, 3), dropout_p=0.1, seed=2)
            cfg = TrainConfig(epochs=2, learning_rate=2e-3, batch_size=4, seed=4)
            result = train(net, data, cfg)
            return hashlib.sha256(b"".join(w.tobytes() for w in result.net.weights))

        expected = trained_weights().hexdigest()
        assert halves  # the parent's helper thread is running
        parent_helper = snn._helper
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report, and never return into pytest
            try:
                digest = trained_weights().hexdigest()
                own = (snn._helper[0] == os.getpid()
                       and snn._helper[1] is not parent_helper[1])
                os.write(write, f"{digest} {own}".encode())
            finally:
                os._exit(0)
        os.close(write)
        try:
            ready, _, _ = select.select([read], [], [], 60.0)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            report = os.read(read, 200).decode() if ready else "timed out"
        finally:
            os.close(read)
            os.waitpid(pid, 0)
        assert report == f"{expected} True"

    def test_threads_sharing_the_helper_keep_their_own_results(self, halves,
                                                              monkeypatch):
        # four callers on one helper, the interpreter switching threads
        # every microsecond: each result is bitwise its serial result
        monkeypatch.setattr(snn, "SPLIT_WORK", 1 << 21)
        net = CubaNetwork((7, 256, 64, 3), dropout_p=0.0, seed=5)
        rng = np.random.default_rng(8)
        blocks = [(rng.uniform(size=(16, 7, 100)) < 0.3) * 1.0 for _ in range(4)]
        labels = np.zeros(16, dtype=np.int64)
        with whole(monkeypatch):
            expected = [_loss_and_grads(net, x, labels, soft=False) for x in blocks]
        results = [None] * len(blocks)

        def caller(i):
            results[i] = [_loss_and_grads(net, blocks[i], labels, soft=False)
                          for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(halves) >= 4 * 3
        for runs, (loss, grads) in zip(results, expected):
            for loss_i, grads_i in runs:
                assert loss_i == loss
                for g, g_w in zip(grads_i, grads):
                    np.testing.assert_array_equal(g, g_w)

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(snn, "_helper", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(snn, "SPLIT_WORK", 1)
        before = threading.enumerate()
        ran = []
        snn._in_halves(lambda lo, hi: ran.append((lo, hi)), 64, 1)
        net = CubaNetwork((7, 256, 64, 3), dropout_p=0.0, seed=1)
        x = (np.random.default_rng(4).uniform(size=(16, 7, 400)) < 0.3) * 1.0
        _loss_and_grads(net, x, np.zeros(16, dtype=np.int64), soft=False)
        assert ran == [(0, 64)]
        assert snn._helper == (os.getpid(), None)
        assert set(threading.enumerate()) <= set(before)
