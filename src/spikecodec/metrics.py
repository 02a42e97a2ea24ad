"""Evaluation metrics: average firing rate, reconstruction SNR, and the
spike-error robustness protocol."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import Rng, Scheme, Signal, SpikeTensor, derive_seed
from .errors import ConfigError, ShapeError


def afr(tensor: SpikeTensor) -> float:
    """Average firing rate: spikes (by absolute value) over all possible
    spike positions.  Sign flips do not change it."""
    if tensor.data.size == 0:
        return 0.0
    return float(np.abs(tensor.data).sum() / tensor.data.size)


def snr_db(original: Signal, reconstructed: Signal) -> float:
    """Signal-to-noise ratio of a reconstruction in dB.

    10 * log10(P_signal / P_err) with P_signal the mean squared original
    value and P_err the mean squared reconstruction error.  A perfect
    reconstruction yields +inf.
    """
    if original.data.shape != reconstructed.data.shape:
        raise ShapeError(
            f"shape mismatch: {original.data.shape} vs {reconstructed.data.shape}"
        )
    err = original.data - reconstructed.data
    p_err = float(np.mean(err * err))
    p_signal = float(np.mean(original.data * original.data))
    if p_err == 0.0:
        return float("inf")
    if p_signal == 0.0:
        return float("-inf")
    return 10.0 * np.log10(p_signal / p_err)


class NoiseMode(enum.Enum):
    """How a position changes when the error probability fires.

    FLIP_BINARY suits pure {0, 1} trains: zeros become ones and vice versa.
    SIGNED_PERTURB suits ternary trains: existing spikes vanish and silent
    positions gain a random-sign spike.
    """

    FLIP_BINARY = "flip-binary"
    SIGNED_PERTURB = "signed-perturb"


@dataclass(frozen=True)
class NoiseSpec:
    """Positional spike-error model: each position is independently changed
    with probability error_probability."""

    error_probability: float
    seed: int = 0
    mode: NoiseMode = NoiseMode.FLIP_BINARY

    def __post_init__(self):
        if not 0.0 <= self.error_probability <= 1.0:
            raise ConfigError(
                f"error_probability must be in [0, 1], got {self.error_probability}"
            )


def noise_mode_for(scheme: Scheme) -> NoiseMode:
    """Default noise mode of a scheme, from the variant table: sign-aware
    perturbation for the ternary schemes (log TTFS and delta modulation),
    plain flips everywhere else."""
    from .evaluation import codec

    return codec(scheme).noise_mode


def inject_noise(tensor: SpikeTensor, spec: NoiseSpec) -> SpikeTensor:
    """Apply independent positional spike errors; deterministic given seed."""
    rng = Rng(spec.seed)
    data = tensor.data
    change = rng.uniform(size=data.shape) < spec.error_probability
    if spec.mode is NoiseMode.FLIP_BINARY:
        changed = np.where(data == 0, 1, 0).astype(np.int8)
    else:
        signs = np.where(rng.uniform(size=data.shape) < 0.5, 1, -1).astype(np.int8)
        changed = np.where(data == 0, signs, 0).astype(np.int8)
    out = np.where(change, changed, data).astype(np.int8)
    return SpikeTensor(out, time_step_ms=tensor.time_step_ms,
                       window_steps=tensor.window_steps)


@dataclass(frozen=True)
class RobustnessRow:
    """One row of a robustness sweep: accuracy at error probability p and
    the drop relative to the clean baseline."""

    error_probability: float
    accuracy: float
    accuracy_drop: float


def robustness_sweep(net, dataset, p_list, mode: NoiseMode, seed: int = 0, *,
                     baseline_accuracy: float) -> list:
    """Classify a test set under increasing spike-error probabilities.

    dataset is a sequence of (SpikeTensor, label) pairs encoded with the
    scheme the network was trained on.  The per-sample noise seed derives
    from (seed, sample index) and is shared across the probabilities, so one
    seed fixes a single error-position draw whose change masks nest as p
    grows; drops are then directly comparable along the sweep, and the whole
    sweep is reproducible and independent of evaluation order.  Drops are
    taken from baseline_accuracy, the network's clean accuracy on dataset.
    """
    # per call, not at module top: bench/run.py's tracer rebinds snn.classify_batch
    from .snn import classify_batch

    tensors = [t for t, _ in dataset]
    labels = np.asarray([l for _, l in dataset], dtype=np.int64)
    if not tensors:
        raise ShapeError("robustness sweep needs a non-empty dataset")

    rows = []
    for p in p_list:
        noisy = [
            inject_noise(t, NoiseSpec(p, seed=derive_seed(seed, i), mode=mode))
            for i, t in enumerate(tensors)
        ]
        pred = classify_batch(net, noisy)
        acc = float(np.mean(pred == labels))
        rows.append(RobustnessRow(float(p), acc, baseline_accuracy - acc))
    return rows
