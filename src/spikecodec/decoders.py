"""Spike-to-signal decoders, one per encoding family.

Rate decoding inverts the value-to-rate mapping through its percent point
function (inverse CDF); TTFS reads spike timestamps back; binary sums the
fired binary fractions; delta modulation integrates threshold-sized steps
from a known initial value.
"""

from __future__ import annotations

import numpy as np

from .core import (
    EncodingConfig,
    Scheme,
    Signal,
    SpikeTensor,
    resolve_threshold_banks,
)
from .encoders import RateMapping, _check_unit_interval
from .errors import (
    ConfigError,
    DomainError,
    InconsistentSpikesError,
    MultipleSpikesInWindowError,
    ShapeError,
)

# Empirical rates of exactly 0 or 1 sit on the Gaussian PPF singularities;
# reconstruction stays finite by clamping the PPF argument.
_PPF_CLAMP = 1e-6


def rate_ppf(p, mapping: RateMapping):
    """Invert map_value_to_rate: firing probability back to a signal value.

    Accepts scalars or arrays; scalar input yields a float.  The Gaussian
    branch clamps its argument to [1e-6, 1 - 1e-6] and its output to [0, 1].
    """
    arr = np.asarray(p, dtype=np.float64)
    _check_unit_interval(arr, "probability")
    if mapping.kind is Scheme.RATE_UNIFORM:
        out = arr.copy()
    elif mapping.kind is Scheme.RATE_NORMAL:
        from scipy.special import ndtri

        clamped = np.clip(arr, _PPF_CLAMP, 1.0 - _PPF_CLAMP)
        out = np.clip(mapping.mu + np.sqrt(mapping.var) * ndtri(clamped), 0.0, 1.0)
    else:
        inv = 1.0 / mapping.beta_shape
        lower = 0.5 * (1.0 - np.power(np.clip(1.0 - 2.0 * arr, 0.0, 1.0), inv))
        upper = 0.5 * (1.0 + np.power(np.clip(2.0 * arr - 1.0, 0.0, 1.0), inv))
        out = np.where(arr < 0.5, lower, upper)
    if np.isscalar(p) or np.ndim(p) == 0:
        return float(out)
    return out


def _single_train(tensor: SpikeTensor, scheme: str) -> np.ndarray:
    if tensor.n_trains != 1:
        raise ShapeError(
            f"{scheme} decoding expects 1 train, got {tensor.n_trains}"
        )
    return tensor.data[0]


def _window_view(data: np.ndarray, steps_per_sample: int) -> np.ndarray:
    channels, timesteps = data.shape
    if steps_per_sample < 1 or timesteps % steps_per_sample:
        raise ShapeError(
            f"{timesteps} timesteps not divisible by window of {steps_per_sample}"
        )
    return data.reshape(channels, timesteps // steps_per_sample, steps_per_sample)


def decode_rate(tensor: SpikeTensor, mapping: RateMapping,
                steps_per_sample: int = 50) -> Signal:
    """Empirical rate per sample window, pushed through the mapping's PPF."""
    data = _single_train(tensor, "rate")
    windows = _window_view(data, steps_per_sample)
    rates = windows.sum(axis=2, dtype=np.float64) / steps_per_sample
    values = rate_ppf(np.clip(rates, 0.0, 1.0), mapping)
    rate_hz = 1000.0 / (tensor.time_step_ms * steps_per_sample)
    return Signal(values, sample_rate_hz=rate_hz)


def decode_ttfs(tensor: SpikeTensor, curve: Scheme,
                steps_per_sample: int = 50) -> Signal:
    """Read the spike timestamp in each window back to a value.

    curve is the TTFS scheme.  TTFS_LINEAR: v = 1 - index/N, an empty window
    decoding to 0.  TTFS_LOG:
    v = 0.5 + sign * 0.5 * 10^(-index/20), an empty window decoding to 0.5.
    """
    if curve not in (Scheme.TTFS_LINEAR, Scheme.TTFS_LOG):
        raise ConfigError(f"{curve} is not a TTFS scheme")
    data = _single_train(tensor, "ttfs")
    windows = _window_view(data, steps_per_sample)
    nonzero = windows != 0
    counts = nonzero.sum(axis=2)
    if (counts > 1).any():
        ch, win = np.argwhere(counts > 1)[0]
        raise MultipleSpikesInWindowError(
            f"{counts[ch, win]} spikes in window {win} of channel {ch}"
        )
    has_spike = counts == 1
    idx = np.argmax(nonzero, axis=2)
    n = float(steps_per_sample)
    if curve is Scheme.TTFS_LINEAR:
        values = np.where(has_spike, 1.0 - idx / n, 0.0)
    else:
        sign = np.take_along_axis(windows, idx[:, :, np.newaxis], axis=2)[:, :, 0]
        values = np.where(has_spike,
                          0.5 + sign * 0.5 * np.power(10.0, -idx / 20.0),
                          0.5)
    rate_hz = 1000.0 / (tensor.time_step_ms * steps_per_sample)
    return Signal(values, sample_rate_hz=rate_hz)


def decode_binary(tensor: SpikeTensor) -> Signal:
    """Sum the fired spikes weighted by their binary fractions."""
    n_bits = tensor.n_trains
    weights = np.power(2.0, -(np.arange(n_bits, dtype=np.float64) + 1.0))
    values = np.tensordot(weights, tensor.data.astype(np.float64), axes=(0, 0))
    return Signal(values, sample_rate_hz=1000.0 / tensor.time_step_ms)


def decode_delta(tensor: SpikeTensor, thresholds=None, initial_value=0.0) -> Signal:
    """Integrate threshold-sized steps from an initial value.

    At each timestep the estimated change is the signed threshold of the
    largest-index train that fired (0 when silent); the running value is
    clamped to [0, 1].  The returned signal has timesteps + 1 samples,
    starting at the initial value, at the tensor's (interpolated) sample
    rate.  initial_value is one value or one per channel; a NaN is a
    DomainError and any other length a ShapeError.

    The running value is the same, bit for bit, as clamping after every
    step; see _integrate_clamped for why.
    """
    banks = resolve_threshold_banks(thresholds, tensor.n_channels)
    levels = banks.shape[1]
    if tensor.n_trains != levels:
        raise ShapeError(
            f"tensor has {tensor.n_trains} trains but banks define {levels} levels"
        )
    channels = tensor.n_channels
    initial = np.asarray(initial_value, dtype=np.float64)
    if initial.ndim > 1 or initial.size not in (1, channels):
        raise ShapeError(f"initial_value of shape {initial.shape} does not fit "
                         f"{channels} channels")
    if np.isnan(initial).any():
        raise DomainError("initial_value must not be NaN")
    data = tensor.data  # (levels, channels, timesteps), each -1, 0 or +1
    up, down = data.max(axis=0), data.min(axis=0)
    mixed = (up > 0) & (down < 0)
    if mixed.any():
        ch, t = np.argwhere(mixed)[0]
        raise InconsistentSpikesError(
            f"mixed spike signs at channel {ch}, step {t}"
        )
    # threshold of the largest fired level per (channel, timestep), 0 if none
    magnitude = np.zeros(data.shape[1:])
    for level in range(levels):
        np.copyto(magnitude, banks[:, level, np.newaxis], where=data[level] != 0)
    deltas = np.sign(up + down) * magnitude  # up and down never differ in sign here
    values = _integrate_clamped(initial, deltas)
    return Signal(values, sample_rate_hz=1000.0 / tensor.time_step_ms)


def _integrate_clamped(initial: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """values[:, 0] = clip(initial, 0, 1) and values[:, t + 1] =
    clip(values[:, t] + deltas[:, t], 0, 1), bit for bit.

    One cumulative sum does every row: np.cumsum (add.accumulate) adds
    left to right, one float64 addition per step, so up to the first value
    outside [0, 1] it performs exactly the additions of the clamped
    recurrence, whose clip is the identity there.  A row that leaves
    [0, 1] is clamped at that value and finished by a scalar loop of the
    same additions and clamps.  A NaN never compares outside, so it
    propagates as it does through np.clip.
    """
    channels, timesteps = deltas.shape
    values = np.empty((channels, timesteps + 1), dtype=np.float64)
    values[:, 0] = initial
    values[:, 1:] = deltas
    np.cumsum(values, axis=1, out=values)
    outside = (values < 0.0) | (values > 1.0)
    for ch in np.flatnonzero(outside.any(axis=1)):
        first = int(np.argmax(outside[ch]))
        current = 0.0 if values[ch, first] < 0.0 else 1.0
        tail = [current]
        for step in deltas[ch, first:].tolist():
            current += step
            if current < 0.0:
                current = 0.0
            elif current > 1.0:
                current = 1.0
            tail.append(current)
        values[ch, first:] = tail
    return values


def decode(tensor: SpikeTensor, config: EncodingConfig, initial_value=0.0) -> Signal:
    """Decode under the scheme selected by config.  initial_value is where
    delta modulation starts integrating; the other schemes ignore it."""
    from .evaluation import codec

    return codec(config.scheme).decode(tensor, config, initial_value)
