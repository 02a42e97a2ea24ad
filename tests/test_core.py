"""Core type invariants: signal validation, spike tensor constraints,
configuration checks, and RNG reproducibility."""

import numpy as np
import pytest

from spikecodec import (
    EncodingConfig,
    Rng,
    Scheme,
    Signal,
    SpikeTensor,
    default_threshold_banks,
    derive_seed,
    validate_signal,
)
from spikecodec.core import resolve_threshold_banks
from spikecodec.errors import (
    ConfigError,
    NonFiniteValueError,
    OutOfRangeError,
    RaggedChannelsError,
    ShapeError,
    ThresholdOrderError,
)


class TestSignalValidation:
    def test_valid_signal(self):
        sig = Signal(np.full((7, 40), 0.5), 20.0)
        assert validate_signal(sig) is sig
        assert sig.n_channels == 7
        assert sig.n_samples == 40

    def test_out_of_range_reports_coordinate(self):
        data = np.full((3, 10), 0.5)
        data[1, 4] = 1.5
        with pytest.raises(OutOfRangeError) as exc:
            validate_signal(Signal(data, 20.0))
        assert exc.value.channel == 1
        assert exc.value.index == 4
        assert exc.value.value == 1.5

    def test_negative_value_rejected(self):
        data = np.full((2, 5), 0.2)
        data[0, 0] = -0.01
        with pytest.raises(OutOfRangeError):
            validate_signal(Signal(data, 20.0))

    def test_ragged_channels(self):
        with pytest.raises(RaggedChannelsError):
            Signal([[0.5] * 40, [0.5] * 39], 20.0)

    def test_non_finite(self):
        data = np.full((2, 5), 0.5)
        data[1, 2] = np.nan
        with pytest.raises(NonFiniteValueError) as exc:
            validate_signal(Signal(data, 20.0))
        assert (exc.value.channel, exc.value.index) == (1, 2)

    def test_one_dimensional_input_promoted(self):
        sig = Signal([0.1, 0.2, 0.3], 20.0)
        assert sig.data.shape == (1, 3)

    def test_data_is_read_only(self):
        sig = Signal(np.full((2, 4), 0.5), 20.0)
        with pytest.raises(ValueError):
            sig.data[0, 0] = 1.0

    def test_bad_sample_rate(self):
        with pytest.raises(ConfigError):
            Signal(np.zeros((1, 4)), 0.0)

    def test_callers_array_stays_writeable(self):
        s = np.full((7, 40), 0.5)
        sig = Signal(s, 20.0)
        s[0, 0] = 1.0
        assert sig.data[0, 0] == 0.5 and not sig.data.flags.writeable


class TestSpikeTensor:
    def test_ternary_enforced(self):
        with pytest.raises(ShapeError):
            SpikeTensor(np.full((1, 1, 4), 2, dtype=np.int64), 1.0)

    def test_shape_enforced(self):
        with pytest.raises(ShapeError):
            SpikeTensor(np.zeros((3, 4), dtype=np.int8), 1.0)

    def test_properties(self):
        t = SpikeTensor(np.zeros((2, 7, 10), dtype=np.int8), 1.0, window_steps=5)
        assert t.shape == (2, 7, 10)
        assert (t.n_trains, t.n_channels, t.n_timesteps) == (2, 7, 10)

    @pytest.mark.parametrize("steps", (2.7, 2.0, "5", True))
    def test_window_steps_must_be_an_integer(self, steps):
        with pytest.raises(ConfigError, match="window_steps must be an integer"):
            SpikeTensor(np.zeros((1, 1, 4), dtype=np.int8), 1.0, window_steps=steps)

    def test_numpy_integer_window_steps_stored_as_int(self):
        t = SpikeTensor(np.zeros((1, 1, 4), dtype=np.int8), 1.0,
                        window_steps=np.int64(3))
        assert type(t.window_steps) is int and t.window_steps == 3

    def test_negative_values_allowed(self):
        data = np.zeros((1, 1, 4), dtype=np.int8)
        data[0, 0, 1] = -1
        t = SpikeTensor(data, 1.0)
        assert t.data[0, 0, 1] == -1

    @pytest.mark.parametrize("values, bad", (
        ([0.5, 0.9, -0.7], "0.5"),
        ([1.0, float("nan"), 0.0], "nan"),
        ([0.0, -1.0, 1.0 + 1e-12], "1.000000000001"),
        ([0, 1, 3], "3")))
    def test_non_ternary_values_of_any_dtype_name_the_first(self, values, bad):
        with pytest.raises(ShapeError, match=f"found {bad}"):
            SpikeTensor(np.array([[values]]), 1.0)

    def test_int8_outside_the_ternary_range_names_the_value(self):
        with pytest.raises(ShapeError, match="found -2"):
            SpikeTensor(np.array([[[0, -2, 1]]], dtype=np.int8), 1.0)

    def test_exactly_ternary_floats_and_bools_are_stored_as_int8(self):
        t = SpikeTensor(np.array([[[1.0, -1.0, 0.0]]]), 1.0)
        assert t.data.dtype == np.int8 and t.data.tolist() == [[[1, -1, 0]]]
        flags = SpikeTensor(np.ones((1, 1, 2), dtype=bool), 1.0)
        assert flags.data.tolist() == [[[1, 1]]]

    def test_callers_array_stays_writeable(self):
        d = np.zeros((1, 2, 3), dtype=np.int8)
        t = SpikeTensor(d, 1.0)
        d[0, 0, 0] = 1
        assert t.data[0, 0, 0] == 0 and not t.data.flags.writeable


class TestEncodingConfig:
    def test_defaults(self):
        cfg = EncodingConfig(Scheme.RATE_UNIFORM)
        assert cfg.steps_per_sample == 50
        assert cfg.interp_factor == 5
        assert cfg.normal_var == 0.2
        assert cfg.beta_shape == 0.75

    def test_scheme_from_string(self):
        cfg = EncodingConfig("ttfs-log")
        assert cfg.scheme is Scheme.TTFS_LOG
        with pytest.raises(ConfigError):
            Scheme.from_string("nope")

    def test_threshold_order_checked(self):
        with pytest.raises(ThresholdOrderError):
            EncodingConfig(Scheme.DELTA_MOD, thresholds=(0.2, 0.1))
        with pytest.raises(ThresholdOrderError):
            EncodingConfig(Scheme.DELTA_MOD, thresholds=(0.0, 0.1))
        with pytest.raises(ThresholdOrderError):
            EncodingConfig(Scheme.DELTA_MOD, thresholds=(0.1, float("nan")))

    def test_round_trips_through_dict(self):
        cfg = EncodingConfig(Scheme.DELTA_MOD, thresholds=(0.1, 0.2), seed=9)
        assert EncodingConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("d", (
        [1],
        [["scheme", "binary"]],
        {},
        {"scheme": "ttfs-linear "},
        {"scheme": 3},
        {"scheme": "binary", "bits": 6},
        {"scheme": "binary", "n_bits": "6"},
        {"scheme": "delta-mod", "thresholds": 0.1},
        {"scheme": "delta-mod", "thresholds": [["a"]]},
        {"scheme": "delta-mod", "thresholds": [["0.1", "0.2"]]},
        {"scheme": "delta-mod", "thresholds": [[True, 2]]},
        {"scheme": "delta-mod", "thresholds": []},
        {"scheme": "delta-mod", "thresholds": [[0.1, 0.2], [0.1]]},
    ))
    def test_from_dict_rejects_what_to_dict_cannot_write(self, d):
        with pytest.raises(ConfigError):
            EncodingConfig.from_dict(d)

    def test_from_dict_rejects_another_rate_curve(self):
        with pytest.raises(ConfigError, match="normal_var"):
            EncodingConfig.from_dict({"scheme": "rate-normal", "normal_var": 0.5})

    @pytest.mark.parametrize("scheme, field, value", (
        ("ttfs-linear", "steps_per_sample", float("nan")),
        ("ttfs-linear", "steps_per_sample", True),
        ("binary", "n_bits", 6.5),
        ("delta-mod", "interp_factor", float("inf")),
        ("rate-uniform", "seed", 1.5),
        ("rate-normal", "normal_var", float("nan")),
        ("rate-normal", "normal_mu", float("nan")),
        ("rate-normal", "normal_mu", float("-inf")),
        ("rate-beta", "beta_shape", float("nan")),
        ("rate-beta", "beta_shape", "0.5"),
    ))
    def test_non_integer_or_non_finite_field_rejected(self, scheme, field, value):
        if field not in ("normal_mu", "normal_var", "beta_shape"):  # fixed curves
            with pytest.raises(ConfigError, match=field):
                EncodingConfig(scheme, **{field: value})
        with pytest.raises(ConfigError, match=field):
            EncodingConfig.from_dict({"scheme": scheme, field: value})

    def test_numpy_integers_are_stored_as_int(self):
        cfg = EncodingConfig(Scheme.BINARY, n_bits=np.int64(10), seed=np.uint32(3))
        assert type(cfg.n_bits) is int and cfg.n_bits == 10
        assert type(cfg.seed) is int and cfg.seed == 3


class TestThresholdBanks:
    def test_default_banks_split_imu_and_hbc(self):
        banks = default_threshold_banks(7)
        assert banks[0] == (0.0004, 0.0008, 0.0016, 0.0032, 0.0064)
        assert banks[6] == (0.0001, 0.0002, 0.0004, 0.0008, 0.0016)
        assert all(banks[i] == banks[0] for i in range(6))

    def test_single_bank_broadcasts(self):
        banks = resolve_threshold_banks((0.1, 0.2), 3)
        assert banks.shape == (3, 2)

    def test_bank_count_must_match_channels(self):
        with pytest.raises(ShapeError):
            resolve_threshold_banks(((0.1,), (0.1,)), 3)


class TestRng:
    def test_equal_seed_equal_stream(self):
        a = Rng(12345).uniform(10**6)
        b = Rng(12345).uniform(10**6)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform(100), Rng(2).uniform(100))

    def test_derived_streams_are_deterministic_and_distinct(self):
        s0, again, s1 = (Rng(derive_seed(7, i)).uniform(100) for i in (0, 0, 1))
        assert np.array_equal(s0, again)
        assert derive_seed(7, 0) != derive_seed(7, 1)
        assert not np.array_equal(s0, s1)

    def test_derive_seed_is_stable(self):
        assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)
        assert derive_seed(3, 1, 4) != derive_seed(3, 4, 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            Rng(-1)
        with pytest.raises(ConfigError):
            derive_seed(-1, 0)
