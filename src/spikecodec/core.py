"""Core domain types: signals, ternary spike tensors, configuration and RNG.

All containers are frozen after construction (each keeps its own read-only
copy of its numpy buffer), so they can be shared freely across threads.
Randomness always flows through :class:`Rng`, which wraps a counter-based
PCG64 stream; parallel workers seed their own streams with
:func:`derive_seed`.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    ConfigError,
    NonFiniteValueError,
    OutOfRangeError,
    RaggedChannelsError,
    ShapeError,
    ThresholdOrderError,
)

# Threshold banks for the five-level delta modulation scheme.  The inertial
# channels use coarser levels than the capacitance channel.
IMU_THRESHOLDS = (0.0004, 0.0008, 0.0016, 0.0032, 0.0064)
HBC_THRESHOLDS = (0.0001, 0.0002, 0.0004, 0.0008, 0.0016)

# The fixed value-to-probability curves of the rate variants: rate-normal
# is the Gaussian CDF with this mean and variance, rate-beta the glued beta
# CDF with this shape parameter.
NORMAL_MU, NORMAL_VAR, BETA_SHAPE = 0.5, 0.2, 0.75
# The curves as EncodingConfig.to_dict records them in every sidecar.
_RATE_CURVES = {"normal_mu": NORMAL_MU, "normal_var": NORMAL_VAR,
                "beta_shape": BETA_SHAPE}

# The most bytes a planned block may take (a synthetic set's float64
# samples, an encoded set's spikes, a training run's float64 blocks); a
# larger plan is refused before it is allocated.  Read at call time.
MAX_BLOCK_BYTES = 2 ** 30


class Scheme(enum.Enum):
    """The seven encoding variants supported by the package."""

    RATE_UNIFORM = "rate-uniform"
    RATE_NORMAL = "rate-normal"
    RATE_BETA = "rate-beta"
    TTFS_LINEAR = "ttfs-linear"
    TTFS_LOG = "ttfs-log"
    BINARY = "binary"
    DELTA_MOD = "delta-mod"

    @classmethod
    def from_string(cls, name: str) -> "Scheme":
        for scheme in cls:
            if scheme.value == name:
                return scheme
        known = ", ".join(s.value for s in cls)
        raise ConfigError(f"unknown scheme {name!r}; expected one of: {known}")


def frozen_array(data, dtype) -> np.ndarray:
    """An owned C-contiguous, read-only copy of data as dtype, for frozen
    containers.  It is a copy even where a view would do, so the caller's
    array stays writeable."""
    arr = np.array(data, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Signal:
    """A normalized multi-channel time series.

    data is stored as a (channels, samples) float64 array.  Values are
    expected to lie in [0, 1] once normalized; encoders enforce this through
    :func:`validate_signal` rather than at construction time, so decoders can
    return raw reconstructions without tripping the check.
    """

    data: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        try:
            arr = frozen_array(self.data, np.float64)
        except (ValueError, TypeError) as exc:
            raise RaggedChannelsError(
                "channels have differing sample counts; a signal must be "
                "rectangular (channels x samples)"
            ) from exc
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise ShapeError(f"signal must be 2-D (channels x samples), got ndim={arr.ndim}")
        object.__setattr__(self, "data", arr)
        if self.sample_rate_hz <= 0:
            raise ConfigError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


def validate_signal(signal: Signal) -> Signal:
    """Check the signal invariants, reporting the first offending value.

    Raises NonFiniteValueError or OutOfRangeError with the (channel, index,
    value) coordinate of the first violation.  Returns the signal unchanged
    so calls can be chained.
    """
    data = signal.data
    finite = np.isfinite(data)
    if not finite.all():
        ch, idx = np.argwhere(~finite)[0]
        raise NonFiniteValueError(ch, idx, data[ch, idx])
    in_range = (data >= 0.0) & (data <= 1.0)
    if not in_range.all():
        ch, idx = np.argwhere(~in_range)[0]
        raise OutOfRangeError(ch, idx, data[ch, idx])
    return signal


@dataclass(frozen=True)
class SpikeTensor:
    """A ternary spike train tensor of shape (trains, channels, timesteps).

    data may have any dtype whose values are exactly -1, 0 or +1; it is
    stored as int8, and any other value is a ShapeError.

    time_step_ms is the interval between adjacent possible spike positions;
    window_steps, an integer >= 1, records how many positions each original
    sample occupies (1 for parallel schemes such as binary encoding).
    """

    data: np.ndarray
    time_step_ms: float
    window_steps: int = 1

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ShapeError(
                f"spike tensor must be 3-D (trains x channels x timesteps), got ndim={arr.ndim}"
            )
        if arr.dtype != np.int8:
            # the cast below would truncate 0.5 to 0 and turn NaN into 0
            bad = ~((arr == 0) | (arr == 1) | (arr == -1))
        elif arr.size and (arr.min() < -1 or arr.max() > 1):
            bad = (arr < -1) | (arr > 1)
        else:
            bad = None
        if bad is not None and bad.any():
            raise ShapeError(
                f"spike values must be in {{-1, 0, +1}}, found {arr[bad].flat[0]}")
        object.__setattr__(self, "data", frozen_array(arr, np.int8))
        if not 0 < self.time_step_ms < np.inf:
            raise ConfigError(f"time_step_ms must be positive and finite, "
                              f"got {self.time_step_ms}")
        check_field_types(self, ("window_steps",), ())
        if self.window_steps < 1:
            raise ConfigError(f"window_steps must be >= 1, got {self.window_steps}")

    @property
    def n_trains(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def n_timesteps(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple:
        return self.data.shape


def check_field_types(config, integers, reals):
    """Type checks of a frozen config dataclass: each field named in
    integers must be an integer (a bool is not) and is stored as an int;
    each field named in reals must be a finite number.  Raises
    ConfigError naming the first field that fails."""
    for name in integers:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(config, name, int(value))
    for name in reals:
        value = getattr(config, name)
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class EncodingConfig:
    """Scheme selector plus every parameter any scheme needs.

    thresholds, when given, is one bank (sequence of numbers) applied to all
    channels, or one bank per channel, each with the same number of levels.
    None selects the built-in IMU/HBC default banks at encode time.

    normal_mu, normal_var and beta_shape are not settings: they read the
    fixed rate curves, and to_dict records them for the sidecars.
    """

    scheme: Scheme
    steps_per_sample: int = 50
    n_bits: int = 6
    thresholds: tuple = None
    interp_factor: int = 5
    seed: int = 0

    normal_mu = NORMAL_MU
    normal_var = NORMAL_VAR
    beta_shape = BETA_SHAPE

    def __post_init__(self):
        if isinstance(self.scheme, str):
            object.__setattr__(self, "scheme", Scheme.from_string(self.scheme))
        check_field_types(self, ("steps_per_sample", "n_bits", "interp_factor", "seed"), ())
        if self.steps_per_sample < 1:
            raise ConfigError(f"steps_per_sample must be >= 1, got {self.steps_per_sample}")
        if not 1 <= self.n_bits <= 16:
            raise ConfigError(f"n_bits must be in 1..16, got {self.n_bits}")
        if self.interp_factor < 1:
            raise ConfigError(f"interp_factor must be >= 1, got {self.interp_factor}")
        if self.seed < 0:
            raise ConfigError(f"seed must be unsigned, got {self.seed}")
        if self.thresholds is not None:
            banks = _freeze_banks(self.thresholds)
            _check_banks(banks)
            object.__setattr__(self, "thresholds", banks)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["scheme"] = self.scheme.value
        if self.thresholds is not None:
            d["thresholds"] = [list(b) for b in self.thresholds]
        d.update(_RATE_CURVES)
        return d

    @classmethod
    def from_dict(cls, d) -> "EncodingConfig":
        """Inverse of to_dict.  Anything to_dict could not have written (not
        an object, a missing or unknown key, a value of the wrong type or
        out of range, a rate curve other than the fixed one) raises
        ConfigError."""
        if not isinstance(d, dict):
            raise ConfigError(f"an encoding config is an object, got {type(d).__name__}")
        if "scheme" not in d:
            raise ConfigError("an encoding config needs a scheme")
        unknown = sorted(set(d) - {f.name for f in fields(cls)} - set(_RATE_CURVES))
        if unknown:
            raise ConfigError(f"unknown encoding config keys: {', '.join(unknown)}")
        d = dict(d)
        for name, value in _RATE_CURVES.items():
            given = d.pop(name, value)
            if given != value:
                raise ConfigError(f"{name} is fixed at {value}, got {given!r}")
        try:
            d["scheme"] = Scheme.from_string(d["scheme"])
            if d.get("thresholds") is not None:
                d["thresholds"] = tuple(tuple(b) for b in d["thresholds"])
            return cls(**d)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad encoding config: {exc}") from exc


def _freeze_banks(thresholds) -> tuple:
    """Normalize a thresholds argument to a tuple of banks."""
    seq = list(thresholds)
    if seq and np.isscalar(seq[0]):
        return (tuple(_level(t) for t in seq),)
    return tuple(tuple(_level(t) for t in bank) for bank in seq)


def _level(t) -> float:
    if isinstance(t, bool) or not isinstance(t, numbers.Real):
        raise ConfigError(f"thresholds must be numbers, got {t!r}")
    return float(t)


def _check_banks(banks):
    """At least one bank, all of one level count, each positive, finite
    and strictly increasing."""
    if not banks:
        raise ThresholdOrderError("thresholds hold no bank")
    sizes = {len(b) for b in banks}
    if len(sizes) != 1:
        raise ThresholdOrderError(f"threshold banks differ in level count: {sorted(sizes)}")
    if 0 in sizes:
        raise ThresholdOrderError("threshold bank is empty")
    for bank in banks:
        arr = np.asarray(bank, dtype=np.float64)
        if not ((arr > 0) & (arr < np.inf)).all():  # NaN fails this too
            raise ThresholdOrderError(f"thresholds must be positive and finite, got {bank}")
        if (np.diff(arr) <= 0).any():
            raise ThresholdOrderError(f"thresholds must be strictly increasing, got {bank}")


def default_threshold_banks(n_channels: int) -> tuple:
    """Per-channel default banks: inertial levels everywhere except a final
    capacitance channel (channel 6 and beyond) which uses the finer bank."""
    return tuple(
        IMU_THRESHOLDS if ch < 6 else HBC_THRESHOLDS for ch in range(n_channels)
    )


def resolve_threshold_banks(thresholds, n_channels: int) -> np.ndarray:
    """Expand a thresholds argument to a validated (channels, levels) array.

    The array is read-only and shared: each (banks, n_channels) pair is
    validated once and then served from a cache, since delta modulation
    resolves the same banks twice per window (encode and decode).
    """
    frozen = None if thresholds is None else _freeze_banks(thresholds)
    return _validated_banks(frozen, n_channels)


@functools.lru_cache(maxsize=32)
def _validated_banks(frozen, n_channels: int) -> np.ndarray:
    if frozen is None:
        banks = default_threshold_banks(n_channels)
    else:
        banks = frozen
        if len(banks) == 1:
            banks = banks * n_channels
        if len(banks) != n_channels:
            raise ShapeError(
                f"{len(banks)} threshold banks for {n_channels} channels"
            )
    _check_banks(banks)
    return frozen_array(banks, np.float64)


class Rng:
    """Seeded uniform stream; equal seeds give bitwise-equal streams.

    Wraps numpy's PCG64, whose stream for a fixed seed is stable across runs
    and platforms.  An Rng instance is single-owner: parallel workers build
    their own, Rng(derive_seed(seed, index)), instead of sharing one stream.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ConfigError(f"seed must be unsigned, got {seed}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def uniform(self, size=None):
        """Uniform variates on [0, 1)."""
        return self._gen.random(size)

    def normal(self, size=None, loc=0.0, scale=1.0):
        return self._gen.normal(loc, scale, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def __repr__(self):
        return f"Rng(seed={self.seed})"


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministically hash a parent seed and worker indices to a child seed."""
    if seed < 0:
        raise ConfigError(f"seed must be unsigned, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(i) for i in indices))
    return int(ss.generate_state(1, np.uint64)[0])
