"""The vectorised codec paths against the plain numpy formulations they
replaced (tests/oracles.py), byte for byte: delta-modulation integration
and decoding, noise injection and rate encoding.  Inputs run from 1 to 600
steps and 1 to 9 channels, and the delta cases are made to clamp often."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spikecodec import (
    NoiseMode,
    NoiseSpec,
    Rng,
    Scheme,
    Signal,
    SpikeTensor,
    decode_delta,
    encode_rate,
    inject_noise,
)
from spikecodec.core import resolve_threshold_banks
from spikecodec.decoders import _integrate_clamped
from spikecodec.errors import ThresholdOrderError

PROPERTY = settings(max_examples=80, deadline=None, database=None)
SEEDS = st.integers(0, 2**32 - 1)
CHANNELS = st.integers(1, 9)
STEPS = st.integers(1, 600)
# step sizes from the default banks' to several times the [0, 1] range
SCALES = st.sampled_from((0.0004, 0.0064, 0.05, 0.3, 1.0, 3.0))


def starts(rng, channels):
    """Per-channel initial values in [-0.5, 1.5], with 0, 1, -0.0 and the
    infinities common."""
    start = rng.uniform(-0.5, 1.5, size=channels)
    ends = rng.random(channels) < 0.4
    start[ends] = rng.choice((0.0, 1.0, -0.0, np.inf, -np.inf), size=int(ends.sum()))
    return start


def clamp_heavy_deltas(rng, channels, steps, scale, drift):
    """Signed steps of up to scale, a drift of the same size pushing each
    row into one of its bounds, and a third of the steps zero."""
    deltas = scale * (rng.random((channels, steps)) * 2.0 - 1.0 + drift)
    deltas[rng.random((channels, steps)) < 1 / 3] = 0.0
    return deltas


@PROPERTY
@given(seed=SEEDS, channels=CHANNELS, steps=STEPS, scale=SCALES,
       drift=st.sampled_from((-1.0, 0.0, 1.0)))
def test_integration_equals_a_clamp_per_step(seed, channels, steps, scale, drift):
    rng = np.random.default_rng(seed)
    start = starts(rng, channels)
    deltas = clamp_heavy_deltas(rng, channels, steps, scale, drift)
    fast = _integrate_clamped(start, deltas)
    assert fast.tobytes() == oracles.clamped_integration(start, deltas).tobytes()


def test_integration_propagates_nan_as_the_clamp_does():
    start = np.array([np.nan, 0.5, 1.0, 2.0])
    deltas = np.full((4, 4), 0.75)
    fast = _integrate_clamped(start, deltas)
    assert fast.tobytes() == oracles.clamped_integration(start, deltas).tobytes()
    assert np.isnan(fast[0]).all() and (fast[1:, 1:] == 1.0).all()


def test_integration_clamps_at_every_step():
    # the worst case for the scalar tail: 7 channels pushed past 1 each step
    start = np.ones(7)
    deltas = np.full((7, 5000), 0.0064)
    deltas[:, 1::2] = -0.0004
    fast = _integrate_clamped(start, deltas)
    assert fast.tobytes() == oracles.clamped_integration(start, deltas).tobytes()


@st.composite
def delta_cases(draw):
    """(spike data, banks, initial values): consistent signs per
    (channel, step), any subset of levels fired, thresholds up to scale."""
    rng = np.random.default_rng(draw(SEEDS))
    levels, channels, steps = draw(st.integers(1, 6)), draw(CHANNELS), draw(STEPS)
    scale = draw(SCALES)
    banks = np.cumsum(rng.uniform(0.1, 1.0, size=(channels, levels)), axis=1)
    banks *= scale / banks[:, -1:]
    sign = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(channels, steps),
                      p=draw(st.sampled_from(((0.2, 0.6, 0.2), (0.05, 0.15, 0.8),
                                              (0.8, 0.15, 0.05)))))
    fired = rng.random((levels, channels, steps)) < 0.5
    data = (fired * sign).astype(np.int8)
    if draw(st.booleans()):
        initial = rng.uniform(-0.5, 1.5, size=channels)
    else:
        initial = draw(st.sampled_from((0.0, 0.5, 1.0, -0.25, 2.0)))
    return data, banks, initial


@PROPERTY
@given(case=delta_cases())
def test_decode_delta_equals_argmax_and_per_step_clamp(case):
    data, banks, initial = case
    thresholds = [tuple(bank) for bank in banks]
    fast = decode_delta(SpikeTensor(data, 1.0), thresholds, initial)
    expected = oracles.decode_delta_values(
        data, resolve_threshold_banks(thresholds, data.shape[1]), initial)
    assert fast.data.tobytes() == expected.tobytes()


@st.composite
def spike_data(draw):
    rng = np.random.default_rng(draw(SEEDS))
    shape = (draw(st.integers(1, 5)), draw(CHANNELS), draw(STEPS))
    values = draw(st.sampled_from(((0, 1), (-1, 0, 1))))
    return rng.choice(np.array(values, dtype=np.int8), size=shape)


@PROPERTY
@given(data=spike_data(), p=st.sampled_from((0.0, 0.1, 1.0)),
       mode=st.sampled_from(tuple(NoiseMode)), seed=SEEDS)
def test_inject_noise_equals_the_where_chain(data, p, mode, seed):
    spec = NoiseSpec(p, seed=seed, mode=mode)
    noisy = inject_noise(SpikeTensor(data, 1.0), spec).data
    expected = oracles.inject_noise_data(data, spec)
    assert noisy.dtype == np.int8 and noisy.shape == data.shape
    assert noisy.tobytes() == expected.tobytes()


@PROPERTY
@given(seed=SEEDS, channels=CHANNELS, samples=st.integers(1, 12),
       steps=st.integers(1, 50),
       kind=st.sampled_from((Scheme.RATE_UNIFORM, Scheme.RATE_NORMAL,
                             Scheme.RATE_BETA)))
def test_encode_rate_equals_repeated_probabilities(seed, channels, samples, steps,
                                                   kind):
    values = np.random.default_rng(seed).random((channels, samples))
    signal = Signal(values, sample_rate_hz=20.0)
    tensor = encode_rate(signal, kind, steps, Rng(seed))
    expected = oracles.encode_rate_data(signal, kind, steps, Rng(seed))
    assert tensor.data.tobytes() == expected.tobytes()
    assert tensor.shape == expected.shape


class TestCachedBanks:
    @pytest.mark.parametrize("thresholds", (None, (0.1, 0.2), [[0.1, 0.2]] * 3))
    def test_resolved_banks_are_read_only(self, thresholds):
        banks = resolve_threshold_banks(thresholds, 3)
        assert not banks.flags.writeable
        with pytest.raises(ValueError):
            banks[0, 0] = 1.0

    def test_equal_banks_resolve_to_one_array(self):
        assert resolve_threshold_banks(None, 7) is resolve_threshold_banks(None, 7)
        listed = resolve_threshold_banks([[0.1, 0.2]], 2)
        assert listed is resolve_threshold_banks(((0.1, 0.2),), 2)

    def test_a_rejected_bank_is_rejected_every_time(self):
        for _ in range(2):
            with pytest.raises(ThresholdOrderError):
                resolve_threshold_banks((0.2, 0.1), 3)
