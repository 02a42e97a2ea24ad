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
        assert sig.duration_s == 2.0

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
        assert t.features().shape == (14, 10)

    def test_negative_values_allowed(self):
        data = np.zeros((1, 1, 4), dtype=np.int8)
        data[0, 0, 1] = -1
        t = SpikeTensor(data, 1.0)
        assert t.data[0, 0, 1] == -1


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

    def test_beta_shape_bounds(self):
        with pytest.raises(ConfigError):
            EncodingConfig(Scheme.RATE_BETA, beta_shape=1.5)
        with pytest.raises(ConfigError):
            EncodingConfig(Scheme.RATE_BETA, beta_shape=0.0)

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
    ))
    def test_from_dict_rejects_what_to_dict_cannot_write(self, d):
        with pytest.raises(ConfigError):
            EncodingConfig.from_dict(d)


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

    def test_child_streams_are_deterministic_and_distinct(self):
        parent = Rng(7)
        c0 = parent.child(0)
        c1 = parent.child(1)
        assert c0.seed == Rng(7).child(0).seed
        assert c0.seed != c1.seed
        assert not np.array_equal(c0.uniform(100), c1.uniform(100))

    def test_derive_seed_is_stable(self):
        assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)
        assert derive_seed(3, 1, 4) != derive_seed(3, 4, 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            Rng(-1)
