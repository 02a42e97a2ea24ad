"""Independent high-precision oracles used by the tests.

These deliberately avoid the code paths (and the scipy special functions)
used by the library: the Gaussian CDF comes from a Maclaurin series for erf,
beta CDFs from mpmath's regularized incomplete beta, and every inverse is a
bisection of the oracle it inverts.

The last section keeps the plain numpy formulations that faster library
code replaced (a per-step clamp loop, np.where chains, np.repeat): the
fast paths must match them byte for byte.
"""

import math

import mpmath
import numpy as np

from spikecodec import NoiseMode, Rng, map_value_to_rate

mpmath.mp.dps = 40

_ERF_COEFFS = tuple(
    (-1.0) ** n / (math.factorial(n) * (2 * n + 1)) for n in range(64)
)


def erf_series(x: float) -> float:
    """Maclaurin series 2/sqrt(pi) * sum (-1)^n x^(2n+1) / (n! (2n+1))."""
    total = 0.0
    xsq = x * x
    power = x
    for coeff in _ERF_COEFFS:
        total += coeff * power
        power *= xsq
    return 2.0 / math.sqrt(math.pi) * total


def normal_cdf(v: float, mu: float = 0.5, var: float = 0.2) -> float:
    x = (v - mu) / math.sqrt(var)
    return 0.5 * (1.0 + erf_series(x / math.sqrt(2.0)))


def combined_beta_cdf(v: float, shape: float = 0.75) -> float:
    """Two one-shape-parameter beta CDFs glued at 0.5, each rescaled to its
    half; evaluated through mpmath's regularized incomplete beta."""
    if v < 0.5:
        inc = mpmath.betainc(1, shape, 0, 2.0 * v, regularized=True)
        return float(0.5 * inc)
    inc = mpmath.betainc(shape, 1, 0, 2.0 * v - 1.0, regularized=True)
    return float(0.5 + 0.5 * inc)


def _bisect(func, target: float, lo: float, hi: float, tol: float = 1e-12) -> float:
    f_lo = func(lo) - target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = func(mid) - target
        if abs(hi - lo) < tol:
            return mid
        if (f_lo <= 0) == (f_mid <= 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def normal_ppf(p: float, mu: float = 0.5, var: float = 0.2,
               clamp: float = 1e-6) -> float:
    """Mirror of the library's reconstruction rule with an independent CDF:
    argument clamped away from the singularities, output clamped to [0, 1].

    The bracket stays within +-5 standard scores: the clamp maps to +-4.76,
    and the alternating Maclaurin series loses precision beyond that.
    """
    p = min(max(p, clamp), 1.0 - clamp)
    x = _bisect(lambda t: 0.5 * (1.0 + erf_series(t / math.sqrt(2.0))), p, -5.0, 5.0)
    return min(max(mu + math.sqrt(var) * x, 0.0), 1.0)


def combined_beta_ppf(p: float, shape: float = 0.75) -> float:
    """Closed-form inverse powers evaluated in 40-digit arithmetic."""
    p_mp = mpmath.mpf(p)
    inv = 1 / mpmath.mpf(shape)
    if p < 0.5:
        return float((1 - (1 - 2 * p_mp) ** inv) / 2)
    return float((1 + (2 * p_mp - 1) ** inv) / 2)


# --- formulations replaced by faster library code -------------------------

def clamped_integration(initial, deltas):
    """One np.clip for the initial values, then one per timestep."""
    channels, timesteps = deltas.shape
    values = np.empty((channels, timesteps + 1), dtype=np.float64)
    values[:, 0] = np.clip(initial, 0.0, 1.0)
    current = values[:, 0].copy()
    for t in range(timesteps):
        current = np.clip(current + deltas[:, t], 0.0, 1.0)
        values[:, t + 1] = current
    return values


def decode_delta_values(data, banks, initial_value):
    """Delta-modulation decoding by argmax over the reversed levels and a
    per-step clamp; data is (levels, channels, timesteps) without mixed
    signs, banks the resolved (channels, levels) thresholds."""
    levels = banks.shape[1]
    has_pos = (data > 0).any(axis=0)
    has_neg = (data < 0).any(axis=0)
    fired = data != 0
    top = levels - 1 - np.argmax(fired[::-1], axis=0)
    magnitude = np.take_along_axis(banks, top, axis=1)
    sign = has_pos.astype(np.float64) - has_neg.astype(np.float64)
    deltas = np.where(fired.any(axis=0), sign * magnitude, 0.0)
    initial = np.broadcast_to(np.asarray(initial_value, dtype=np.float64),
                              (data.shape[1],))
    return clamped_integration(initial, deltas)


def inject_noise_data(data, spec):
    """Noise injection through np.where and astype chains (int64 inside)."""
    rng = Rng(spec.seed)
    change = rng.uniform(size=data.shape) < spec.error_probability
    if spec.mode is NoiseMode.FLIP_BINARY:
        changed = np.where(data == 0, 1, 0).astype(np.int8)
    else:
        signs = np.where(rng.uniform(size=data.shape) < 0.5, 1, -1).astype(np.int8)
        changed = np.where(data == 0, signs, 0).astype(np.int8)
    return np.where(change, changed, data).astype(np.int8)


def encode_rate_data(signal, mapping, steps_per_sample, rng):
    """Rate encoding against probabilities repeated with np.repeat."""
    rates = map_value_to_rate(signal.data, mapping)
    prob = np.repeat(rates, steps_per_sample, axis=1)
    draws = rng.uniform(size=prob.shape)
    return (draws < prob).astype(np.int8)[np.newaxis, :, :]
