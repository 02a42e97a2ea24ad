"""Decoder behavior: PPF inverses against independent oracles and exact
round trips for the deterministic schemes."""

import numpy as np
import pytest

import oracles
from spikecodec import (
    Scheme,
    Signal,
    SpikeTensor,
    decode_binary,
    decode_delta,
    decode_rate,
    decode_ttfs,
    encode_delta,
    encode_ttfs,
    map_value_to_rate,
    rate_ppf,
)
from spikecodec.core import IMU_THRESHOLDS
from spikecodec.errors import (
    DomainError,
    InconsistentSpikesError,
    MultipleSpikesInWindowError,
    ShapeError,
)

UNIFORM, NORMAL, BETA = Scheme.RATE_UNIFORM, Scheme.RATE_NORMAL, Scheme.RATE_BETA


def rate_tensor(window_spikes, steps=50):
    """Single-channel rate tensor from a list of per-window spike counts."""
    rows = []
    for count in window_spikes:
        row = np.zeros(steps, dtype=np.int8)
        row[:count] = 1
        rows.append(row)
    data = np.concatenate(rows)[None, None, :]
    return SpikeTensor(data, time_step_ms=1.0, window_steps=steps)


class TestRatePpf:
    def test_all_mappings_fix_midpoint(self):
        for mapping in (UNIFORM, NORMAL, BETA):
            assert rate_ppf(0.5, mapping) == pytest.approx(0.5, abs=1e-9)

    def test_combined_beta_inverse(self):
        p = map_value_to_rate(0.25, BETA)
        assert rate_ppf(p, BETA) == pytest.approx(0.25, abs=1e-9)
        assert rate_ppf(0.2026982, BETA) == pytest.approx(0.25, abs=1e-4)

    def test_normal_inverse(self):
        p = map_value_to_rate(1.0, NORMAL)
        assert rate_ppf(p, NORMAL) == pytest.approx(1.0, abs=1e-6)
        assert rate_ppf(0.8682238, NORMAL) == pytest.approx(1.0, abs=1e-3)

    def test_normal_singularities_clamped(self):
        assert rate_ppf(0.0, NORMAL) == 0.0
        assert rate_ppf(1.0, NORMAL) == 1.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            rate_ppf(1.2, UNIFORM)
        with pytest.raises(DomainError):
            rate_ppf(-0.2, BETA)

    def test_round_trip_grid_all_mappings(self):
        grid = np.linspace(0, 1, 1001)
        for mapping in (UNIFORM, NORMAL, BETA):
            back = rate_ppf(map_value_to_rate(grid, mapping), mapping)
            np.testing.assert_allclose(back, grid, atol=1e-4)

    def test_against_bisection_oracles(self):
        ps = np.linspace(0.001, 0.999, 41)
        for p in ps:
            assert rate_ppf(float(p), NORMAL) == pytest.approx(
                oracles.normal_ppf(float(p)), abs=1e-6)
            assert rate_ppf(float(p), BETA) == pytest.approx(
                oracles.combined_beta_ppf(float(p)), abs=1e-6)


class TestDecodeRate:
    def test_full_window_decodes_to_one(self):
        sig = decode_rate(rate_tensor([50]), UNIFORM, 50)
        assert sig.data[0, 0] == 1.0

    def test_half_window_decodes_to_half(self):
        # 25 spikes of 50 possible: empirical rate 0.5
        sig = decode_rate(rate_tensor([25]), UNIFORM, 50)
        assert sig.data[0, 0] == 0.5

    def test_beta_rate_inverts_through_ppf(self):
        # empirical rate near F(0.75) = 0.7973 decodes close to 0.75
        tensor = rate_tensor([int(round(0.7973017787506802 * 10_000))], steps=10_000)
        sig = decode_rate(tensor, BETA, 10_000)
        assert sig.data[0, 0] == pytest.approx(0.75, abs=1e-3)

    def test_indivisible_window_raises(self):
        with pytest.raises(ShapeError):
            decode_rate(rate_tensor([10], steps=30), UNIFORM, 7)

    @pytest.mark.parametrize("decode, scheme", ((decode_rate, UNIFORM),
                                                (decode_ttfs, Scheme.TTFS_LINEAR)))
    def test_two_trains_are_a_shape_error(self, decode, scheme):
        tensor = SpikeTensor(np.zeros((2, 1, 50), dtype=np.int8), 1.0, 50)
        with pytest.raises(ShapeError, match="decoding expects 1 train, got 2"):
            decode(tensor, scheme, 50)

    def test_sample_rate_restored(self):
        sig = decode_rate(rate_tensor([25, 10, 0]), UNIFORM, 50)
        assert sig.sample_rate_hz == pytest.approx(20.0)
        assert sig.n_samples == 3


class TestDecodeTtfs:
    def test_linear_inverse_of_midpoint(self):
        data = np.zeros((1, 1, 50), dtype=np.int8)
        data[0, 0, 25] = 1
        sig = decode_ttfs(SpikeTensor(data, 1.0, 50), Scheme.TTFS_LINEAR, 50)
        assert sig.data[0, 0] == 0.5

    def test_log_index_zero_is_one(self):
        data = np.zeros((1, 1, 50), dtype=np.int8)
        data[0, 0, 0] = 1
        sig = decode_ttfs(SpikeTensor(data, 1.0, 50), Scheme.TTFS_LOG, 50)
        assert sig.data[0, 0] == 1.0

    def test_log_negative_spike_at_six(self):
        # 0.5 - 0.5 * 10^(-0.3) = 0.2494064
        data = np.zeros((1, 1, 50), dtype=np.int8)
        data[0, 0, 6] = -1
        sig = decode_ttfs(SpikeTensor(data, 1.0, 50), Scheme.TTFS_LOG, 50)
        assert sig.data[0, 0] == pytest.approx(0.2494064, abs=1e-6)

    def test_empty_window_conventions(self):
        data = np.zeros((1, 1, 50), dtype=np.int8)
        tensor = SpikeTensor(data, 1.0, 50)
        assert decode_ttfs(tensor, Scheme.TTFS_LINEAR, 50).data[0, 0] == 0.0
        assert decode_ttfs(tensor, Scheme.TTFS_LOG, 50).data[0, 0] == 0.5

    def test_multiple_spikes_rejected(self):
        data = np.zeros((1, 1, 50), dtype=np.int8)
        data[0, 0, 3] = 1
        data[0, 0, 7] = 1
        with pytest.raises(MultipleSpikesInWindowError):
            decode_ttfs(SpikeTensor(data, 1.0, 50), Scheme.TTFS_LINEAR, 50)

    def test_linear_round_trip_bound(self):
        grid = np.linspace(1e-6, 1.0, 10_000)
        sig = Signal(grid[None, :], 20.0)
        decoded = decode_ttfs(encode_ttfs(sig, Scheme.TTFS_LINEAR, 50),
                              Scheme.TTFS_LINEAR, 50)
        assert np.abs(decoded.data[0] - grid).max() <= 1.0 / 50.0

    def test_log_round_trip_resolution(self):
        # away from the clamped zone the latency code quantizes |2v-1| on a
        # 1/20-decade grid; spot-check mid-range values
        grid = np.linspace(0.05, 0.45, 500)
        sig = Signal(grid[None, :], 20.0)
        decoded = decode_ttfs(encode_ttfs(sig, Scheme.TTFS_LOG, 50),
                              Scheme.TTFS_LOG, 50)
        assert np.abs(decoded.data[0] - grid).max() <= 0.06


class TestDecodeBinary:
    def test_all_ones_six_bits(self):
        data = np.ones((6, 1, 1), dtype=np.int8)
        assert decode_binary(SpikeTensor(data, 50.0)).data[0, 0] == 0.984375

    def test_all_zeros(self):
        data = np.zeros((6, 1, 1), dtype=np.int8)
        assert decode_binary(SpikeTensor(data, 50.0)).data[0, 0] == 0.0

    def test_traced_pattern(self):
        data = np.array([1, 0, 1, 1, 1, 1], dtype=np.int8)[:, None, None]
        assert decode_binary(SpikeTensor(data, 50.0)).data[0, 0] == 0.734375


class TestDecodeDelta:
    def test_silent_tensor_holds_initial_value(self):
        data = np.zeros((5, 1, 20), dtype=np.int8)
        sig = decode_delta(SpikeTensor(data, 10.0, 5), thresholds=IMU_THRESHOLDS,
                           initial_value=0.3)
        assert (sig.data == 0.3).all()
        assert sig.n_samples == 21

    def test_largest_fired_threshold_wins(self):
        # trains 0..2 firing +1 steps by T_2 = 0.0016
        data = np.zeros((5, 1, 1), dtype=np.int8)
        data[0:3, 0, 0] = 1
        sig = decode_delta(SpikeTensor(data, 10.0, 5), thresholds=IMU_THRESHOLDS,
                           initial_value=0.5)
        assert sig.data[0, -1] == pytest.approx(0.5016, abs=1e-12)

    def test_mixed_signs_rejected(self):
        data = np.zeros((5, 1, 1), dtype=np.int8)
        data[0, 0, 0] = 1
        data[4, 0, 0] = -1
        with pytest.raises(InconsistentSpikesError):
            decode_delta(SpikeTensor(data, 10.0, 5), thresholds=IMU_THRESHOLDS)

    def test_train_count_must_match_banks(self):
        data = np.zeros((3, 1, 1), dtype=np.int8)
        with pytest.raises(ShapeError):
            decode_delta(SpikeTensor(data, 10.0), thresholds=IMU_THRESHOLDS)

    def test_ramp_round_trip_tracks_within_bound(self):
        ramp = np.linspace(0.2, 0.8, 40)[None, :]
        sig = Signal(ramp, 20.0)
        tensor = encode_delta(sig, thresholds=IMU_THRESHOLDS, interp_factor=5)
        recon = decode_delta(tensor, thresholds=IMU_THRESHOLDS,
                             initial_value=ramp[0, 0])
        # per-step estimate error is below the largest threshold
        drift_bound = tensor.n_timesteps * max(IMU_THRESHOLDS)
        assert np.abs(recon.data[0, ::5] - ramp[0]).max() <= drift_bound

    def test_monotone_signal_gives_monotone_reconstruction(self):
        rng = np.random.default_rng(13)
        ramp = np.sort(rng.uniform(0.1, 0.9, size=(2, 30)), axis=1)
        sig = Signal(ramp, 20.0)
        tensor = encode_delta(sig, interp_factor=5)
        recon = decode_delta(tensor, initial_value=ramp[:, 0])
        assert (np.diff(recon.data, axis=1) >= 0).all()

    def test_initial_value_of_another_length_is_a_shape_error(self):
        tensor = SpikeTensor(np.zeros((5, 7, 4), dtype=np.int8), 10.0, 5)
        with pytest.raises(ShapeError, match="7 channels"):
            decode_delta(tensor, initial_value=[0.1, 0.2, 0.3])

    @pytest.mark.parametrize("initial", (float("nan"), [0.5, float("nan")]))
    def test_nan_initial_value_is_a_domain_error(self, initial):
        tensor = SpikeTensor(np.zeros((5, 2, 4), dtype=np.int8), 10.0, 5)
        with pytest.raises(DomainError, match="NaN"):
            decode_delta(tensor, initial_value=initial)

    def test_step_is_the_fired_threshold(self):
        data = np.zeros((5, 1, 1), dtype=np.int8)
        data[0, 0, 0] = 1
        base = decode_delta(SpikeTensor(data, 10.0, 5), thresholds=IMU_THRESHOLDS,
                            initial_value=0.5)
        assert base.data[0, -1] == pytest.approx(0.5004, abs=1e-12)
