"""The variant table and the scheme-by-scheme evaluation pipeline.

VARIANTS is the one place that knows each encoding variant: its scheme,
encoder, decoder, noise mode and the configuration it takes.
encoders.encode, decoders.decode and metrics.noise_mode_for look their
scheme up here.  The pipeline reports firing rate, reconstruction SNR,
classification accuracy and robustness drops, one row per variant."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable

import numpy as np

from .core import EncodingConfig, Rng, Scheme, derive_seed, resolve_threshold_banks
from .dataio import WindowedDataset, downsample
from .decoders import decode, decode_binary, decode_delta, decode_rate, decode_ttfs
from .encoders import (
    RateMapping,
    encode,
    encode_binary,
    encode_delta,
    encode_rate,
    encode_ttfs,
)
from .errors import ConfigError, EmptyDatasetError
# afr is no longer called here but stays bound: bench/run.py times it at
# this binding too
from .metrics import afr  # noqa: F401
from .metrics import NoiseMode, robustness_sweep, snr_db
from .snn import CubaNetwork, TrainConfig, train

DEFAULT_P_LIST = (0.001, 0.01, 0.1)
# Hidden layer widths of the classifier fit_variant builds.
HIDDEN = (256, 64)
# The most spike bytes one encode_dataset call may make.  --interp 100000
# on delta-mod plans 8.2 GB for the default synthetic set, which ended in a
# MemoryError; the largest set the README, the CI walk-through and the
# benchmark encode is 0.84 MB.
ENCODED_MAX_BYTES = 2 ** 30


@dataclass(frozen=True)
class Variant:
    """One encoding variant.

    encode(signal, config, rng) and decode(tensor, config, initial_value)
    are its codec; decode lands on the tensor's own time grid (reconstruct
    maps it onto the original samples).  params names the EncodingConfig
    fields the codec reads, plus the seed that names the encoding stream;
    every other field keeps its default.  shape(config, channels, samples)
    is the (trains, timesteps) that encode gives a window of that size.
    noise_mode is its default spike-error model.  n_bits, when set, fixes
    the bit depth.
    """

    scheme: Scheme
    encode: Callable
    decode: Callable
    params: tuple
    shape: Callable
    noise_mode: NoiseMode
    n_bits: int = None


# One (encode, decode, params, shape) tuple per family: the codec reads
# from the config exactly the fields params names; v0 is the initial value
# that delta modulation integrates from.
_RATE = (lambda s, c, rng: encode_rate(s, RateMapping(c.scheme), c.steps_per_sample, rng),
         lambda t, c, v0: decode_rate(t, RateMapping(c.scheme), c.steps_per_sample),
         ("steps_per_sample", "seed"),
         lambda c, channels, samples: (1, samples * c.steps_per_sample))
_TTFS = (lambda s, c, rng: encode_ttfs(s, c.scheme, c.steps_per_sample),
         lambda t, c, v0: decode_ttfs(t, c.scheme, c.steps_per_sample),
         ("steps_per_sample", "seed"),
         lambda c, channels, samples: (1, samples * c.steps_per_sample))
_BINARY = (lambda s, c, rng: encode_binary(s, c.n_bits),
           lambda t, c, v0: decode_binary(t),
           ("n_bits", "seed"),
           lambda c, channels, samples: (c.n_bits, samples))
_DELTA = (lambda s, c, rng: encode_delta(s, c.thresholds, c.interp_factor),
          lambda t, c, v0: decode_delta(t, c.thresholds, v0),
          ("interp_factor", "thresholds", "seed"),
          lambda c, channels, samples: (
              resolve_threshold_banks(c.thresholds, channels).shape[1],
              (samples - 1) * c.interp_factor))
_FLIP, _SIGNED = NoiseMode.FLIP_BINARY, NoiseMode.SIGNED_PERTURB

VARIANTS = MappingProxyType({
    "rate-uniform": Variant(Scheme.RATE_UNIFORM, *_RATE, _FLIP),
    "rate-normal": Variant(Scheme.RATE_NORMAL, *_RATE, _FLIP),
    "rate-beta": Variant(Scheme.RATE_BETA, *_RATE, _FLIP),
    "ttfs-linear": Variant(Scheme.TTFS_LINEAR, *_TTFS, _FLIP),
    "ttfs-log": Variant(Scheme.TTFS_LOG, *_TTFS, _SIGNED),
    "binary6": Variant(Scheme.BINARY, *_BINARY, _FLIP, n_bits=6),
    "binary10": Variant(Scheme.BINARY, *_BINARY, _FLIP, n_bits=10),
    "delta-mod": Variant(Scheme.DELTA_MOD, *_DELTA, _SIGNED),
    "binary": Variant(Scheme.BINARY, *_BINARY, _FLIP),
})

# The eight variants evaluated side by side: every entry but the last, plain
# "binary", which repeats binary6 or binary10 at the caller's bit depth.
VARIANT_NAMES = tuple(VARIANTS)[:-1]

# The binary entries share their codec, so any of them serves the scheme.
_BY_SCHEME = {v.scheme: v for v in VARIANTS.values()}


def codec(scheme: Scheme) -> Variant:
    """The table entry that encodes, decodes and perturbs a scheme."""
    return _BY_SCHEME[scheme]


def variant_config(name: str, steps_per_sample: int = 50, n_bits: int = 6,
                   interp_factor: int = 5, thresholds=None, seed: int = 0) -> EncodingConfig:
    """Resolve a variant name (e.g. "binary10") to an EncodingConfig; a
    variant takes only the parameters its table entry names."""
    if name not in VARIANTS:
        raise ConfigError(
            f"unknown scheme {name!r}; expected one of: {', '.join(VARIANTS)}")
    v = VARIANTS[name]
    given = {"steps_per_sample": steps_per_sample, "n_bits": v.n_bits or n_bits,
             "interp_factor": interp_factor, "thresholds": thresholds, "seed": seed}
    return EncodingConfig(v.scheme, **{k: given[k] for k in v.params})


def check_encoded_size(dataset: WindowedDataset, config: EncodingConfig):
    """ConfigError when encoding every window of dataset under config would
    make more than ENCODED_MAX_BYTES of spikes (windows x trains x channels
    x timesteps int8 values, counted in Python ints from the window sizes),
    before anything is encoded."""
    shape = codec(config.scheme).shape
    size = 0
    for sig, _ in dataset:
        trains, steps = shape(config, sig.n_channels, sig.n_samples)
        size += trains * sig.n_channels * steps
    if size > ENCODED_MAX_BYTES:
        raise ConfigError(f"encoding {len(dataset)} windows as {config.scheme.value} "
                          f"makes {size:,} spike bytes, over the "
                          f"{ENCODED_MAX_BYTES:,}-byte cap")


def encode_dataset(dataset: WindowedDataset, config: EncodingConfig,
                   base_seed: int = None) -> list:
    """Encode every window; stochastic schemes get one child seed per window
    so the result is reproducible and order-independent.  A set over the
    size cap is refused first (check_encoded_size)."""
    check_encoded_size(dataset, config)
    if base_seed is None:
        base_seed = config.seed
    return [
        (encode(sig, config, Rng(derive_seed(base_seed, i))), int(label))
        for i, (sig, label) in enumerate(dataset)
    ]


def reconstruct(tensor, config: EncodingConfig, original):
    """Decode a tensor back to a signal aligned with the original samples.

    Decoding starts from the original's first value per channel (delta
    modulation integrates from it; the other schemes ignore it).  A decoded
    signal at a multiple of the original rate, as delta modulation's
    up-sampled one is, is decimated back to the original grid.
    """
    recon = decode(tensor, config, initial_value=original.data[:, 0])
    factor = round(recon.sample_rate_hz / original.sample_rate_hz)
    return downsample(recon, factor) if factor > 1 else recon


def reconstruction_snr_db(dataset: WindowedDataset, config: EncodingConfig,
                          encoded=None) -> float:
    """Mean reconstruction SNR over all windows of a dataset.  encoded, if
    given, is the dataset already encoded under config."""
    if len(dataset) == 0:
        raise EmptyDatasetError("cannot evaluate SNR on an empty dataset")
    if encoded is None:
        encoded = encode_dataset(dataset, config)
    values = [
        snr_db(sig, reconstruct(tensor, config, sig))
        for (sig, _), (tensor, _) in zip(dataset, encoded)
    ]
    return float(np.mean(values))


def mean_afr(encoded) -> float:
    """AFR over a whole encoded set: all spikes over all spike positions,
    summed before the one division so that exact rates stay exact."""
    spikes = sum(int(np.abs(t.data).sum()) for t, _ in encoded)
    positions = sum(t.data.size for t, _ in encoded)
    return spikes / positions if positions else 0.0


@dataclass
class SchemeEvaluation:
    """One report row: the reproducible columns of the evaluation matrix.

    Deployment measurements (on-chip energy and execution time) are not
    taken here and are reported as "not measured"."""

    scheme: str
    tensor_shape: tuple
    time_step_ms: float
    afr_pct: float
    snr_db: float
    accuracy: float
    drops: dict = field(default_factory=dict)

    dynamic_energy = execution_time = "not measured"

    def to_dict(self) -> dict:
        """The row as JSON values; a non-finite SNR (a lossless
        reconstruction scores +inf) becomes None."""
        return {
            "scheme": self.scheme,
            "tensor_shape": list(self.tensor_shape),
            "time_step_ms": self.time_step_ms,
            "afr_pct": self.afr_pct,
            "snr_db": self.snr_db if math.isfinite(self.snr_db) else None,
            "accuracy": self.accuracy,
            "drops": {str(p): d for p, d in self.drops.items()},
            "dynamic_energy": self.dynamic_energy,
            "execution_time": self.execution_time,
        }


def fit_variant(config: EncodingConfig, train_ds: WindowedDataset,
                test_ds: WindowedDataset, train_cfg: TrainConfig, net_seed: int,
                track_train_accuracy: bool):
    """Encode both splits and train a fresh classifier on them.

    The splits are encoded with the child seeds 1 (train) and 2 (test) of
    config.seed; the network is (features, *HIDDEN, classes), its features
    read off the first training tensor, with weights drawn from net_seed
    and the default dropout of CubaNetwork.
    Returns (encoded_train, encoded_test, TrainResult).
    """
    if len(train_ds) == 0:
        raise EmptyDatasetError("no training windows to fit on")
    encoded_train = encode_dataset(train_ds, config, derive_seed(config.seed, 1))
    encoded_test = encode_dataset(test_ds, config, derive_seed(config.seed, 2))
    sample = encoded_train[0][0]
    sizes = (sample.n_trains * sample.n_channels, *HIDDEN, train_ds.n_classes)
    net = CubaNetwork(sizes, seed=net_seed)
    result = train(net, encoded_train, train_cfg, test_set=encoded_test,
                   track_train_accuracy=track_train_accuracy)
    return encoded_train, encoded_test, result


def evaluate_scheme(name: str, config: EncodingConfig,
                    train_ds: WindowedDataset, test_ds: WindowedDataset,
                    train_cfg: TrainConfig, p_list=DEFAULT_P_LIST,
                    noise_seeds: int = 1, noise_seed_base: int = 0) -> SchemeEvaluation:
    """Run the full pipeline for one variant.

    Encodes both splits, trains a fresh classifier (network seed 5),
    measures AFR and SNR on the test split, and averages robustness drops
    over noise_seeds independent error draws.  The drops are taken from the
    best epoch's test accuracy, which is the clean accuracy of the restored
    weights, so no second clean pass runs.
    """
    if noise_seeds < 1:
        raise ConfigError(f"noise_seeds must be >= 1, got {noise_seeds}")
    if len(train_ds) == 0 or len(test_ds) == 0:
        raise EmptyDatasetError("evaluation needs non-empty train and test splits")
    encoded_train, encoded_test, result = fit_variant(
        config, train_ds, test_ds, train_cfg, net_seed=5,
        track_train_accuracy=False)
    snr = reconstruction_snr_db(test_ds, config, encoded=encoded_test)

    mode = codec(config.scheme).noise_mode
    drop_sums = np.zeros(len(p_list))
    for s in range(noise_seeds):
        rows = robustness_sweep(result.net, encoded_test, p_list, mode,
                                seed=derive_seed(noise_seed_base, s),
                                baseline_accuracy=result.best_test_accuracy)
        drop_sums += [row.accuracy_drop for row in rows]
    drops = {float(p): float(d / noise_seeds) for p, d in zip(p_list, drop_sums)}

    sample = encoded_train[0][0]
    return SchemeEvaluation(
        scheme=name,
        tensor_shape=sample.shape,
        time_step_ms=sample.time_step_ms,
        afr_pct=100.0 * mean_afr(encoded_test),
        snr_db=snr,
        accuracy=result.best_test_accuracy,
        drops=drops,
    )
