"""Scheme-by-scheme evaluation pipeline: firing rate, reconstruction SNR,
classification accuracy, and robustness drops, one report row per encoding
variant."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import EncodingConfig, Rng, Scheme, derive_seed
from .dataio import WindowedDataset, downsample
from .decoders import decode
from .encoders import encode
from .errors import EmptyDatasetError
# afr is no longer called here but stays bound: bench/run.py times it at
# this binding too
from .metrics import afr  # noqa: F401
from .metrics import clean_accuracy, noise_mode_for, robustness_sweep, snr_db
from .snn import CubaNetwork, TrainConfig, train

DEFAULT_P_LIST = (0.001, 0.01, 0.1)

# The eight variants evaluated side by side. "binary" appears twice with its
# two bit depths; "delta-mod" keeps the default five-threshold banks.
VARIANT_NAMES = (
    "rate-uniform", "rate-normal", "rate-beta",
    "ttfs-linear", "ttfs-log",
    "binary6", "binary10",
    "delta-mod",
)


def variant_config(name: str, steps_per_sample: int = 50, n_bits: int = 6,
                   interp_factor: int = 5, thresholds=None, seed: int = 0) -> EncodingConfig:
    """Resolve a variant name (e.g. "binary10") to an EncodingConfig."""
    if name in ("binary6", "binary10"):
        return EncodingConfig(Scheme.BINARY, n_bits=int(name[len("binary"):]),
                              seed=seed)
    if name == "binary":
        return EncodingConfig(Scheme.BINARY, n_bits=n_bits, seed=seed)
    scheme = Scheme.from_string(name)
    return EncodingConfig(scheme, steps_per_sample=steps_per_sample,
                          n_bits=n_bits, interp_factor=interp_factor,
                          thresholds=thresholds, seed=seed)


def encode_dataset(dataset: WindowedDataset, config: EncodingConfig,
                   base_seed: int = None) -> list:
    """Encode every window; stochastic schemes get one child seed per window
    so the result is reproducible and order-independent."""
    if base_seed is None:
        base_seed = config.seed
    return [
        (encode(sig, config, Rng(derive_seed(base_seed, i))), int(label))
        for i, (sig, label) in enumerate(dataset)
    ]


def reconstruct(tensor, config: EncodingConfig, original):
    """Decode a tensor back to a signal aligned with the original samples.

    Delta modulation integrates from the original's first value (per
    channel) and is decimated back to the original rate; all other schemes
    decode directly to the original sampling grid.
    """
    if config.scheme is Scheme.DELTA_MOD:
        recon = decode(tensor, config, initial_value=original.data[:, 0])
        return downsample(recon, config.interp_factor)
    return decode(tensor, config)


def reconstruction_snr_db(dataset: WindowedDataset, config: EncodingConfig,
                          base_seed: int = None) -> float:
    """Mean reconstruction SNR over all windows of a dataset."""
    if len(dataset) == 0:
        raise EmptyDatasetError("cannot evaluate SNR on an empty dataset")
    encoded = encode_dataset(dataset, config, base_seed)
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
    dynamic_energy: str = "not measured"
    execution_time: str = "not measured"

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "tensor_shape": list(self.tensor_shape),
            "time_step_ms": self.time_step_ms,
            "afr_pct": self.afr_pct,
            "snr_db": self.snr_db,
            "accuracy": self.accuracy,
            "drops": {str(p): d for p, d in self.drops.items()},
            "dynamic_energy": self.dynamic_energy,
            "execution_time": self.execution_time,
        }


def evaluate_scheme(name: str, config: EncodingConfig,
                    train_ds: WindowedDataset, test_ds: WindowedDataset,
                    train_cfg: TrainConfig, hidden=(256, 64),
                    dropout_p: float = 0.1, net_seed: int = 5,
                    p_list=DEFAULT_P_LIST, noise_seeds: int = 1,
                    noise_seed_base: int = 0) -> SchemeEvaluation:
    """Run the full pipeline for one variant.

    Encodes both splits, trains a fresh classifier, measures AFR and SNR on
    the test split, and averages robustness drops over noise_seeds
    independent error draws.
    """
    if len(train_ds) == 0 or len(test_ds) == 0:
        raise EmptyDatasetError("evaluation needs non-empty train and test splits")
    encoded_train = encode_dataset(train_ds, config, derive_seed(config.seed, 1))
    encoded_test = encode_dataset(test_ds, config, derive_seed(config.seed, 2))

    snr_values = [
        snr_db(sig, reconstruct(tensor, config, sig))
        for (sig, _), (tensor, _) in zip(test_ds, encoded_test)
    ]

    sample = encoded_train[0][0]
    n_features = sample.n_trains * sample.n_channels
    sizes = (n_features,) + tuple(hidden) + (train_ds.n_classes,)
    net = CubaNetwork(sizes, dropout_p=dropout_p, seed=net_seed)
    result = train(net, encoded_train, train_cfg, test_set=encoded_test)

    mode = noise_mode_for(config.scheme)
    acc0 = clean_accuracy(result.net, encoded_test)
    drop_sums = np.zeros(len(p_list))
    for s in range(noise_seeds):
        rows = robustness_sweep(result.net, encoded_test, p_list, mode,
                                seed=derive_seed(noise_seed_base, s),
                                baseline_accuracy=acc0)
        drop_sums += [row.accuracy_drop for row in rows]
    drops = {float(p): float(d / noise_seeds) for p, d in zip(p_list, drop_sums)}

    return SchemeEvaluation(
        scheme=name,
        tensor_shape=sample.shape,
        time_step_ms=sample.time_step_ms,
        afr_pct=100.0 * mean_afr(encoded_test),
        snr_db=float(np.mean(snr_values)),
        accuracy=result.best_test_accuracy,
        drops=drops,
    )
