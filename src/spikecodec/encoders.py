"""Signal-to-spike encoders: rate, time-to-first-spike, binary, delta.

Every encoder consumes a validated [0, 1] signal and produces a ternary
SpikeTensor.  Rate encoding is the only stochastic scheme; it draws one
uniform variate per (channel, timestep) in fixed channel-major order, so a
given seed always reproduces the same tensor.
"""

from __future__ import annotations

import numpy as np

from .core import (
    BETA_SHAPE,
    NORMAL_MU,
    NORMAL_VAR,
    EncodingConfig,
    Rng,
    Scheme,
    Signal,
    SpikeTensor,
    resolve_threshold_banks,
    validate_signal,
)
from .errors import ConfigError, DomainError


def _check_rate_scheme(scheme: Scheme):
    if scheme not in (Scheme.RATE_UNIFORM, Scheme.RATE_NORMAL, Scheme.RATE_BETA):
        raise ConfigError(f"{scheme} is not a rate scheme")


def _check_unit_interval(values: np.ndarray, what: str):
    if not np.isfinite(values).all():
        raise DomainError(f"{what} must be finite")
    if (values < 0.0).any() or (values > 1.0).any():
        bad = values[(values < 0.0) | (values > 1.0)].flat[0]
        raise DomainError(f"{what} must lie in [0, 1], got {bad}")


def map_value_to_rate(v, scheme: Scheme):
    """Map signal values in [0, 1] to firing probabilities in [0, 1] by a
    monotone curve per rate scheme.

    RATE_UNIFORM is the identity.  RATE_NORMAL uses the Gaussian CDF centred
    at NORMAL_MU with variance NORMAL_VAR.  RATE_BETA glues two beta CDFs of
    shape parameter BETA_SHAPE, one per half of [0, 1], each rescaled to its
    half so the combined curve is a single monotone CDF with a steep slope
    around 0.5.  Accepts scalars or arrays; scalar input yields a float.
    """
    _check_rate_scheme(scheme)
    arr = np.asarray(v, dtype=np.float64)
    _check_unit_interval(arr, "signal value")
    if scheme is Scheme.RATE_UNIFORM:
        out = arr.copy()
    elif scheme is Scheme.RATE_NORMAL:
        from scipy.special import ndtr

        out = ndtr((arr - NORMAL_MU) / np.sqrt(NORMAL_VAR))
    else:
        lower = 0.5 * (1.0 - np.power(np.clip(1.0 - 2.0 * arr, 0.0, 1.0), BETA_SHAPE))
        upper = 0.5 + 0.5 * np.power(np.clip(2.0 * arr - 1.0, 0.0, 1.0), BETA_SHAPE)
        out = np.where(arr < 0.5, lower, upper)
    if np.isscalar(v) or np.ndim(v) == 0:
        return float(out)
    return out


def encode_rate(signal: Signal, scheme: Scheme, steps_per_sample: int = 50,
                rng: Rng = None) -> SpikeTensor:
    """Bernoulli rate encoding: each sample expands to steps_per_sample
    independent trials with success probability map_value_to_rate(value)."""
    validate_signal(signal)
    if steps_per_sample < 1:
        raise ConfigError(f"steps_per_sample must be >= 1, got {steps_per_sample}")
    if rng is None:
        rng = Rng(0)
    n = int(steps_per_sample)
    rates = map_value_to_rate(signal.data, scheme)
    channels, samples = rates.shape
    draws = rng.uniform(size=(channels, samples * n))
    fired = draws.reshape(channels, samples, n) < rates[:, :, np.newaxis]
    spikes = fired.view(np.int8).reshape(1, channels, samples * n)
    step_ms = 1000.0 / (signal.sample_rate_hz * n)
    return SpikeTensor(spikes, time_step_ms=step_ms, window_steps=n)


def encode_ttfs(signal: Signal, curve: Scheme, steps_per_sample: int = 50) -> SpikeTensor:
    """Time-to-first-spike encoding: one spike per sample window at most.

    curve is the TTFS scheme.  TTFS_LINEAR places a +1 spike at
    floor((1 - v) * N), so larger values fire earlier.  TTFS_LOG encodes the
    signed distance from 0.5 on a logarithmic latency scale, using negative
    spikes for values below 0.5 and no spike at exactly 0.5.
    """
    validate_signal(signal)
    if curve not in (Scheme.TTFS_LINEAR, Scheme.TTFS_LOG):
        raise ConfigError(f"{curve} is not a TTFS scheme")
    n = int(steps_per_sample)
    if n < 2:
        raise ConfigError(f"steps_per_sample must be >= 2 for TTFS, got {n}")
    data = signal.data
    channels, samples = data.shape
    out = np.zeros((1, channels, samples * n), dtype=np.int8)
    ch_idx = np.arange(channels)[:, np.newaxis]
    base = np.arange(samples)[np.newaxis, :] * n

    if curve is Scheme.TTFS_LINEAR:
        idx = np.minimum(np.floor((1.0 - data) * n).astype(np.int64), n - 1)
        out[0, ch_idx, base + idx] = 1
    else:
        diff = 2.0 * (data - 0.5)
        mag = np.abs(diff)
        fired = mag > 0.0
        with np.errstate(divide="ignore"):
            lat = np.floor(-20.0 * np.log10(np.where(fired, mag, 1.0)))
        idx = np.clip(lat.astype(np.int64), 0, n - 1)
        sign = np.sign(diff).astype(np.int8)
        positions = base + idx
        c_coords, s_coords = np.nonzero(fired)
        out[0, c_coords, positions[c_coords, s_coords]] = sign[c_coords, s_coords]

    step_ms = 1000.0 / (signal.sample_rate_hz * n)
    return SpikeTensor(out, time_step_ms=step_ms, window_steps=n)


def encode_binary(signal: Signal, n_bits: int = 6) -> SpikeTensor:
    """Binary-fraction encoding on n_bits parallel trains, one timestep per
    original sample.

    The greedy residual rule fires bit k iff the remaining residual strictly
    exceeds 2^-(k+1), then subtracts that weight.
    """
    validate_signal(signal)
    if not 1 <= n_bits <= 16:
        raise ConfigError(f"n_bits must be in 1..16, got {n_bits}")
    residual = signal.data.copy()
    channels, samples = residual.shape
    out = np.empty((n_bits, channels, samples), dtype=np.int8)
    fire = out.view(bool)  # each bit's 0/1 row doubles as its fire mask
    decision = 0.5
    for bit in range(n_bits):
        # exactly residual - decision > 0: IEEE subtraction of finite
        # doubles is zero only for equal operands and keeps the sign
        np.greater(residual, decision, out=fire[bit])
        np.subtract(residual, decision, out=residual, where=fire[bit])
        decision *= 0.5
    step_ms = 1000.0 / signal.sample_rate_hz
    return SpikeTensor(out, time_step_ms=step_ms, window_steps=1)


def encode_delta(signal: Signal, thresholds=None, interp_factor: int = 5) -> SpikeTensor:
    """Multi-threshold delta modulation on linearly up-sampled input.

    Each threshold level owns one train: level i fires +1 when the
    step-to-step difference exceeds T_i and -1 when it drops below -T_i.
    A signal of fewer than 2 samples has no difference to encode and is a
    ConfigError.
    """
    # per call, not at module top: bench/run.py's tracer rebinds dataio.interpolate_linear
    from .dataio import interpolate_linear

    validate_signal(signal)
    if interp_factor < 1:
        raise ConfigError(f"interp_factor must be >= 1, got {interp_factor}")
    if signal.n_samples < 2:
        raise ConfigError("delta modulation needs at least 2 samples per window, "
                          f"got {signal.n_samples}")
    banks = resolve_threshold_banks(thresholds, signal.n_channels)
    upsampled = interpolate_linear(signal, interp_factor)
    diff = np.diff(upsampled.data, axis=1)  # (channels, timesteps)
    pos = diff[:, np.newaxis, :] > banks[:, :, np.newaxis]
    neg = diff[:, np.newaxis, :] < -banks[:, :, np.newaxis]
    out = (pos.astype(np.int8) - neg.astype(np.int8)).transpose(1, 0, 2)
    step_ms = 1000.0 / upsampled.sample_rate_hz
    return SpikeTensor(out, time_step_ms=step_ms, window_steps=int(interp_factor))


def encode(signal: Signal, config: EncodingConfig, rng: Rng = None) -> SpikeTensor:
    """Encode under the scheme selected by config; rng defaults to a stream
    seeded with config.seed."""
    from .evaluation import codec

    return codec(config.scheme).encode(signal, config,
                                       rng if rng is not None else Rng(config.seed))
