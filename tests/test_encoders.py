"""Encoder behavior: mapping functions against independent oracles, exact
spike placements, and the statistical properties of rate encoding."""

import numpy as np
import pytest

import oracles
from spikecodec import (
    Rng,
    Scheme,
    Signal,
    afr,
    encode,
    encode_binary,
    encode_delta,
    encode_rate,
    encode_ttfs,
    map_value_to_rate,
)
from spikecodec.core import BETA_SHAPE, EncodingConfig, IMU_THRESHOLDS
from spikecodec.decoders import decode_binary
from spikecodec.errors import ConfigError, DomainError, ThresholdOrderError

UNIFORM, NORMAL, BETA = Scheme.RATE_UNIFORM, Scheme.RATE_NORMAL, Scheme.RATE_BETA


def single_value_signal(v, rate=20.0):
    return Signal([[float(v)]], rate)


class TestMapValueToRate:
    def test_uniform_is_identity(self):
        assert map_value_to_rate(0.5, UNIFORM) == 0.5
        grid = np.linspace(0, 1, 101)
        np.testing.assert_array_equal(map_value_to_rate(grid, UNIFORM), grid)

    def test_normal_midpoint(self):
        assert map_value_to_rate(0.5, NORMAL) == pytest.approx(0.5, abs=1e-12)

    def test_normal_at_one_matches_erf_oracle(self):
        # Gaussian CDF at (1 - 0.5)/sqrt(0.2); oracle value 0.8682238
        expected = oracles.normal_cdf(1.0)
        assert map_value_to_rate(1.0, NORMAL) == pytest.approx(expected, abs=1e-7)
        assert expected == pytest.approx(0.8682238, abs=1e-6)

    def test_combined_beta_closed_forms(self):
        # 0.5 * (1 - 0.5**0.75) and its mirror; oracle via incomplete beta
        assert map_value_to_rate(0.25, BETA) == pytest.approx(0.2026982, abs=1e-6)
        assert map_value_to_rate(0.75, BETA) == pytest.approx(0.7973018, abs=1e-6)
        assert map_value_to_rate(0.25, BETA) == pytest.approx(
            oracles.combined_beta_cdf(0.25), abs=1e-12)

    def test_combined_beta_continuous_at_midpoint(self):
        b = BETA_SHAPE
        lower_limit = 0.5 * (1.0 - (1.0 - 2.0 * 0.5) ** b)
        upper_value = 0.5 + 0.5 * (2.0 * 0.5 - 1.0) ** b
        assert lower_limit == upper_value == 0.5
        assert map_value_to_rate(0.5, BETA) == 0.5

    def test_domain_error(self):
        for bad in (-0.1, 1.1, np.nan):
            with pytest.raises(DomainError):
                map_value_to_rate(bad, UNIFORM)

    def test_monotone_on_random_pairs(self):
        rng = np.random.default_rng(11)
        pairs = np.sort(rng.uniform(0, 1, size=(500, 2)), axis=1)
        for mapping in (UNIFORM, NORMAL, BETA):
            lo = map_value_to_rate(pairs[:, 0], mapping)
            hi = map_value_to_rate(pairs[:, 1], mapping)
            assert (lo <= hi).all()

    def test_endpoints_stay_in_unit_interval(self):
        for mapping in (UNIFORM, NORMAL, BETA):
            assert map_value_to_rate(0.0, mapping) >= 0.0
            assert map_value_to_rate(1.0, mapping) <= 1.0


class TestEncodeRate:
    def test_probability_one_fires_every_step(self):
        t = encode_rate(single_value_signal(1.0), UNIFORM, 50, Rng(0))
        assert t.shape == (1, 1, 50)
        assert (t.data == 1).all()

    def test_probability_zero_never_fires(self):
        t = encode_rate(single_value_signal(0.0), UNIFORM, 50, Rng(0))
        assert (t.data == 0).all()

    def test_binomial_bound_at_half(self):
        # Binomial(10000, 0.5): 4 sigma is +-200 spikes
        t = encode_rate(single_value_signal(0.5), UNIFORM, 10_000, Rng(77))
        count = int(t.data.sum())
        assert 4800 <= count <= 5200

    def test_deterministic_given_seed(self):
        sig = Signal(np.linspace(0.1, 0.9, 20)[None, :], 20.0)
        a = encode_rate(sig, BETA, 50, Rng(5))
        b = encode_rate(sig, BETA, 50, Rng(5))
        assert np.array_equal(a.data, b.data)

    def test_zero_steps_is_a_config_error(self):
        with pytest.raises(ConfigError, match="steps_per_sample must be >= 1, got 0"):
            encode_rate(single_value_signal(0.5), UNIFORM, 0, Rng(0))

    def test_time_step_metadata(self):
        sig = Signal(np.full((7, 4), 0.5), 20.0)
        t = encode_rate(sig, UNIFORM, 50, Rng(0))
        assert t.time_step_ms == pytest.approx(1.0)
        assert t.window_steps == 50

    def test_empirical_rate_chi_square(self):
        # Pearson chi-square against the mapped probability over 1e5 trials,
        # one degree of freedom; 10.828 is the 0.001 critical value.
        for mapping in (UNIFORM, NORMAL, BETA):
            for v in (0.2, 0.5, 0.8):
                p = map_value_to_rate(v, mapping)
                t = encode_rate(single_value_signal(v), mapping, 100_000, Rng(3))
                k = float(t.data.sum())
                n = 100_000.0
                chi2 = (k - n * p) ** 2 / (n * p * (1.0 - p))
                assert chi2 < 10.828


class TestEncodeTtfs:
    def test_linear_midpoint_fires_at_25ms(self):
        # value 0.5 with 50 one-millisecond steps fires at index 25
        t = encode_ttfs(single_value_signal(0.5), Scheme.TTFS_LINEAR, 50)
        assert int(np.flatnonzero(t.data[0, 0])[0]) == 25

    def test_linear_one_fires_immediately(self):
        t = encode_ttfs(single_value_signal(1.0), Scheme.TTFS_LINEAR, 50)
        assert int(np.flatnonzero(t.data[0, 0])[0]) == 0

    def test_linear_zero_clamps_to_last_index(self):
        t = encode_ttfs(single_value_signal(0.0), Scheme.TTFS_LINEAR, 50)
        assert int(np.flatnonzero(t.data[0, 0])[0]) == 49

    def test_log_quarter_values(self):
        # |2v - 1| = 0.5 lands at floor(-20 log10 0.5) = floor(6.02) = 6
        up = encode_ttfs(single_value_signal(0.75), Scheme.TTFS_LOG, 50)
        down = encode_ttfs(single_value_signal(0.25), Scheme.TTFS_LOG, 50)
        assert up.data[0, 0, 6] == 1
        assert down.data[0, 0, 6] == -1
        assert np.abs(up.data).sum() == 1
        assert np.abs(down.data).sum() == 1

    def test_log_midpoint_emits_nothing(self):
        t = encode_ttfs(single_value_signal(0.5), Scheme.TTFS_LOG, 50)
        assert (t.data == 0).all()

    def test_log_clamps_tiny_distances_to_last_index(self):
        # |2v-1| below 10^(-(N-1)/20) would need an index beyond the window
        t = encode_ttfs(single_value_signal(0.5 + 1e-4), Scheme.TTFS_LOG, 50)
        assert int(np.flatnonzero(t.data[0, 0])[0]) == 49

    def test_at_most_one_spike_per_window_and_exact_afr(self):
        rng = np.random.default_rng(4)
        sig = Signal(rng.uniform(0, 1, size=(7, 40)), 20.0)
        for curve in (Scheme.TTFS_LINEAR, Scheme.TTFS_LOG):
            t = encode_ttfs(sig, curve, 50)
            windows = np.abs(t.data[0]).reshape(7, 40, 50).sum(axis=2)
            assert (windows <= 1).all()
            if curve is Scheme.TTFS_LINEAR:
                assert (windows == 1).all()
                assert afr(t) == 1.0 / 50.0

    def test_needs_at_least_two_steps(self):
        with pytest.raises(ConfigError):
            encode_ttfs(single_value_signal(0.5), Scheme.TTFS_LINEAR, 1)


class TestEncodeBinary:
    def test_one_is_all_ones(self):
        t = encode_binary(single_value_signal(1.0), 6)
        assert t.data[:, 0, 0].tolist() == [1, 1, 1, 1, 1, 1]

    def test_zero_is_all_zeros(self):
        t = encode_binary(single_value_signal(0.0), 10)
        assert (t.data == 0).all()

    def test_hand_traced_patterns(self):
        # strict inequality: 0.75 skips the exact 0.25 bit, 0.5 skips the
        # leading bit and cascades
        assert encode_binary(single_value_signal(0.75), 6).data[:, 0, 0].tolist() == \
            [1, 0, 1, 1, 1, 1]
        assert encode_binary(single_value_signal(0.5), 6).data[:, 0, 0].tolist() == \
            [0, 1, 1, 1, 1, 1]

    def test_shape_and_time_step(self):
        sig = Signal(np.full((7, 40), 0.5), 20.0)
        t = encode_binary(sig, 6)
        assert t.shape == (6, 7, 40)
        assert t.time_step_ms == pytest.approx(50.0)
        assert t.window_steps == 1

    def test_round_trip_bound_and_monotone_on_grid(self):
        for n_bits in (6, 10):
            grid = np.linspace(0, 1, 10_000)
            sig = Signal(grid[None, :], 20.0)
            decoded = decode_binary(encode_binary(sig, n_bits)).data[0]
            err = grid - decoded
            assert (err >= 0).all()
            assert err.max() <= n_bits * 2.0 ** -n_bits
            assert (np.diff(decoded) >= 0).all()

    def test_bit_count_bounds(self):
        with pytest.raises(ConfigError):
            encode_binary(single_value_signal(0.5), 0)
        with pytest.raises(ConfigError):
            encode_binary(single_value_signal(0.5), 17)


class TestEncodeDelta:
    def test_constant_signal_is_silent(self):
        sig = Signal(np.full((7, 40), 0.4), 20.0)
        t = encode_delta(sig)
        assert (t.data == 0).all()
        assert t.shape == (5, 7, (40 - 1) * 5)
        assert t.time_step_ms == pytest.approx(10.0)

    def test_positive_step_fires_lower_thresholds(self):
        # one +0.002 jump exceeds levels 0..2 of the inertial bank only;
        # interp_factor 1 keeps the step intact
        data = np.full((1, 10), 0.3)
        data[0, 5:] = 0.302
        t = encode_delta(Signal(data, 20.0), thresholds=IMU_THRESHOLDS,
                         interp_factor=1)
        step = t.data[:, 0, 4]
        assert step.tolist() == [1, 1, 1, 0, 0]
        assert (t.data[:, 0, :4] == 0).all()

    def test_negative_step_mirrors_with_sign(self):
        data = np.full((1, 10), 0.5)
        data[0, 5:] = 0.495
        t = encode_delta(Signal(data, 20.0), thresholds=IMU_THRESHOLDS,
                         interp_factor=1)
        assert t.data[:, 0, 4].tolist() == [-1, -1, -1, -1, 0]

    def test_increasing_signal_never_fires_negative(self):
        rng = np.random.default_rng(9)
        ramp = np.sort(rng.uniform(0, 1, size=(3, 50)), axis=1)
        t = encode_delta(Signal(ramp, 20.0))
        assert (t.data >= 0).all()

    def test_threshold_order_enforced(self):
        sig = Signal(np.full((1, 5), 0.5), 20.0)
        with pytest.raises(ThresholdOrderError):
            encode_delta(sig, thresholds=(0.2, 0.1))

    def test_zero_interp_factor_is_a_config_error(self):
        with pytest.raises(ConfigError, match="interp_factor must be >= 1, got 0"):
            encode_delta(Signal(np.full((7, 4), 0.4), 20.0), interp_factor=0)

    @pytest.mark.parametrize("interp_factor", (1, 5))
    def test_single_sample_is_a_config_error(self, interp_factor):
        # one sample has no step-to-step difference: 0 timesteps otherwise
        with pytest.raises(ConfigError, match="at least 2 samples"):
            encode_delta(Signal(np.full((7, 1), 0.4), 20.0),
                         interp_factor=interp_factor)


class TestEncodeDispatcher:
    def test_every_scheme_produces_a_tensor(self):
        rng = np.random.default_rng(2)
        sig = Signal(rng.uniform(0.2, 0.8, size=(7, 20)), 20.0)
        expected_trains = {
            Scheme.RATE_UNIFORM: 1, Scheme.RATE_NORMAL: 1, Scheme.RATE_BETA: 1,
            Scheme.TTFS_LINEAR: 1, Scheme.TTFS_LOG: 1,
            Scheme.BINARY: 6, Scheme.DELTA_MOD: 5,
        }
        for scheme, trains in expected_trains.items():
            t = encode(sig, EncodingConfig(scheme, steps_per_sample=10, seed=1))
            assert t.n_trains == trains
            assert t.n_channels == 7
