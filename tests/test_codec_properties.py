"""Per-codec properties on random (channels, samples) signals in [0, 1]:
firing rates are rates, TTFS fires at most once per sample window, binary
and TTFS codes reconstruct within their resolution, delta modulation never
fires both signs at one (channel, step), and noise at p = 0 changes
nothing.

Rate and delta-modulation reconstruction have no such property: the rate
decoder's error is statistical, and delta modulation's is unbounded under
slope overload."""

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
    values = st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0)
    data = draw(arrays(np.float64, shape, elements=values))
    return Signal(data, sample_rate_hz=20.0)


def encoded(name, signal, seed=0, steps=STEPS):
    config = variant_config(name, steps_per_sample=steps, seed=seed)
    return config, encode(signal, config, Rng(seed))


def max_error(name, signal, steps):
    config, tensor = encoded(name, signal, steps=steps)
    return np.abs(reconstruct(tensor, config, signal).data - signal.data).max()


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
@given(signal=signals(), steps=st.integers(2, 50))
def test_ttfs_linear_reconstructs_within_one_step(signal, steps):
    assert max_error("ttfs-linear", signal, steps) <= 1.0 / steps + 1e-12


@PROPERTY
@given(signal=signals(), steps=st.integers(2, 50))
def test_ttfs_log_reconstructs_within_its_latency_resolution(signal, steps):
    # half a 1 dB latency bin, or half the smallest distance from 0.5 that
    # the last latency still resolves
    bound = max(0.5 * (1.0 - 10.0 ** (-1.0 / 20.0)),
                0.5 * 10.0 ** (-(steps - 1) / 20.0))
    assert max_error("ttfs-log", signal, steps) <= bound + 1e-12


@PROPERTY
@given(signal=signals())
def test_delta_mod_never_fires_both_signs_at_one_step(signal):
    _, tensor = encoded("delta-mod", signal)
    fired_up = (tensor.data == 1).any(axis=0)
    fired_down = (tensor.data == -1).any(axis=0)
    assert not (fired_up & fired_down).any()


@PROPERTY
@given(signal=signals(), seed=st.integers(0, 2**32))
def test_noise_at_zero_probability_is_the_identity(signal, seed):
    for name in VARIANT_NAMES:
        _, tensor = encoded(name, signal)
        for mode in NoiseMode:
            noisy = inject_noise(tensor, NoiseSpec(0.0, seed=seed, mode=mode))
            assert noisy.data.tobytes() == tensor.data.tobytes()
            assert noisy.shape == tensor.shape
