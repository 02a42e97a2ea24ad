"""Per-codec properties on random (channels, samples) signals in [0, 1]:
firing rates are rates, TTFS fires at most once per sample window, binary
fractions reconstruct within their resolution, and noise at p = 0 changes
nothing."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spikecodec import NoiseMode, NoiseSpec, Rng, Signal, afr, encode, inject_noise
from spikecodec.evaluation import VARIANT_NAMES, reconstruct, variant_config

PROPERTY = settings(max_examples=60, deadline=None, database=None)
STEPS = 10


@st.composite
def signals(draw):
    shape = (draw(st.integers(1, 4)), draw(st.integers(2, 12)))
    data = draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
    return Signal(data, sample_rate_hz=20.0)


def encoded(name, signal, seed=0):
    config = variant_config(name, steps_per_sample=STEPS, seed=seed)
    return config, encode(signal, config, Rng(seed))


@PROPERTY
@given(signal=signals(), seed=st.integers(0, 2**32))
def test_afr_is_a_rate_for_every_variant(signal, seed):
    for name in VARIANT_NAMES:
        assert 0.0 <= afr(encoded(name, signal, seed)[1]) <= 1.0


@PROPERTY
@given(signal=signals())
def test_ttfs_fires_at_most_once_per_channel_and_sample(signal):
    for name in ("ttfs-linear", "ttfs-log"):
        _, tensor = encoded(name, signal)
        c, n = signal.data.shape
        per_window = np.abs(tensor.data[0]).reshape(c, n, STEPS).sum(axis=2)
        assert per_window.max() <= 1


@PROPERTY
@given(signal=signals())
def test_binary_reconstructs_within_its_resolution(signal):
    for name, bits in (("binary6", 6), ("binary10", 10)):
        config, tensor = encoded(name, signal)
        recon = reconstruct(tensor, config, signal)
        assert np.abs(recon.data - signal.data).max() <= 2.0 ** -bits


@PROPERTY
@given(signal=signals(), seed=st.integers(0, 2**32))
def test_noise_at_zero_probability_is_the_identity(signal, seed):
    for name in VARIANT_NAMES:
        _, tensor = encoded(name, signal)
        for mode in NoiseMode:
            noisy = inject_noise(tensor, NoiseSpec(0.0, seed=seed, mode=mode))
            assert noisy.data.tobytes() == tensor.data.tobytes()
            assert noisy.shape == tensor.shape
