"""Reference computations the benchmark checks the package against.

Each one is written from the scheme definitions and file layouts, not from
the package's code: the TTFS and binary encoders work element by element in
exact arithmetic, the rate probabilities come from ``math.erf`` and the
closed-form beta CDFs, the CUBA recurrence runs from the neuron equations on
weights parsed straight out of the checkpoint bytes, and spike files are
parsed with ``struct``.
"""

from __future__ import annotations

import math
import struct

import numpy as np

# Two-sided bound on a binomial count, in standard deviations: a false
# alarm at 6 sigma is about 2e-9 per check.
SIGMAS = 6.0


def ttfs_linear(data, steps):
    """One +1 spike per sample at step floor((1 - v) * steps), the latest
    step for v = 0; shape (1, channels, samples * steps)."""
    channels, samples = data.shape
    out = np.zeros((1, channels, samples * steps), dtype=np.int8)
    for c in range(channels):
        for k in range(samples):
            latency = min(math.floor((1.0 - float(data[c, k])) * steps), steps - 1)
            out[0, c, k * steps + latency] = 1
    return out


def binary_fraction(data, n_bits):
    """Bits of the largest multiple q * 2^-n_bits strictly below v (0 for
    v = 0), most significant bit on train 0; shape (n_bits, channels,
    samples)."""
    channels, samples = data.shape
    out = np.zeros((n_bits, channels, samples), dtype=np.int8)
    for c in range(channels):
        for k in range(samples):
            v = float(data[c, k])
            q = math.ceil(v * 2 ** n_bits) - 1 if v > 0.0 else 0
            for bit in range(n_bits):
                out[bit, c, k] = (q >> (n_bits - 1 - bit)) & 1
    return out


def rate_probability(v, variant, mu=0.5, var=0.2, shape=0.75):
    """Firing probability of one rate-coded value: identity, the Gaussian
    CDF via math.erf, or Beta(1, a) / Beta(a, 1) CDFs on the two halves of
    [0, 1], each squeezed into its half."""
    if variant == "rate-uniform":
        return v
    if variant == "rate-normal":
        return 0.5 * (1.0 + math.erf((v - mu) / math.sqrt(2.0 * var)))
    if variant == "rate-beta":
        if v < 0.5:
            return 0.5 * (1.0 - (1.0 - 2.0 * v) ** shape)
        return 0.5 + 0.5 * (2.0 * v - 1.0) ** shape
    raise ValueError(variant)


def binomial_ok(count, mean, variance):
    """A count lies within SIGMAS standard deviations of its mean (plus one
    for the lattice)."""
    return abs(count - mean) <= SIGMAS * math.sqrt(variance) + 1.0


def mixed_sign_steps(data):
    """(channel, step) positions where one train fires +1 and another -1."""
    return int(np.count_nonzero((data > 0).any(axis=0) & (data < 0).any(axis=0)))


def parse_spk1(path):
    """(dims, time_step_ms, payload bytes) of an SPK1 file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"SPK1":
        raise ValueError(f"{path}: bad magic")
    version, ndim = struct.unpack_from("<HB", blob, 4)
    if version != 1:
        raise ValueError(f"{path}: version {version}")
    dims = struct.unpack_from(f"<{ndim}I", blob, 7)
    offset = 7 + 4 * ndim
    (step_ms,) = struct.unpack_from("<d", blob, offset)
    return dims, step_ms, blob[offset + 8:]


def parse_cub1(path):
    """(layer sizes, [(threshold, current decay, voltage decay)], [weights])
    of a CUB1 checkpoint; weights are float32 on disk."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"CUB1":
        raise ValueError(f"{path}: bad magic")
    version, n_layers = struct.unpack_from("<HB", blob, 4)
    if version != 1:
        raise ValueError(f"{path}: version {version}")
    offset = 7
    sizes = struct.unpack_from(f"<{n_layers + 1}I", blob, offset)
    offset += 4 * (n_layers + 1) + 8  # sizes, then the dropout rate
    params = []
    for _ in range(n_layers):
        params.append(struct.unpack_from("<3d", blob, offset))
        offset += 24
    weights = []
    for i in range(n_layers):
        count = sizes[i + 1] * sizes[i]
        w = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        weights.append(w.reshape(sizes[i + 1], sizes[i]).astype(np.float64))
        offset += 4 * count
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes")
    return sizes, params, weights


def cuba_rates(params, weights, features):
    """Output spike counts / steps of a dense CUBA network on one input of
    shape (features, steps).

    Per layer and step: current u = (1 - du) u + W x; voltage
    v = (1 - dv) v + u; spike s = [v >= threshold]; a spike resets v to 0.
    """
    x = np.asarray(features, dtype=np.float64)
    steps = x.shape[1]
    for (threshold, du, dv), w in zip(params, weights):
        u = np.zeros(w.shape[0])
        v = np.zeros(w.shape[0])
        out = np.zeros((w.shape[0], steps))
        for t in range(steps):
            u = (1.0 - du) * u + w @ x[:, t]
            v = (1.0 - dv) * v + u
            fired = v >= threshold
            out[fired, t] = 1.0
            v[fired] = 0.0
        x = out
    return x.sum(axis=1) / steps
