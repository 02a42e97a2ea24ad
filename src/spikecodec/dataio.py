"""Data ingestion and persistence: CSV sensor sessions, min-max
normalization, fixed-length windowing, linear up-sampling, a synthetic
dataset generator, and the SPK1 binary spike-file format."""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .core import EncodingConfig, Rng, Signal, SpikeTensor
from .errors import (
    BadMagicError,
    ConfigError,
    DegenerateChannelWarning,
    LabelError,
    MissingColumnError,
    ParseError,
    ShapeError,
    TruncatedPayloadError,
    VersionMismatchError,
)

SPIKE_MAGIC = b"SPK1"
SPIKE_VERSION = 1

# Workout vocabulary of the gym-activity recordings this package targets:
# eleven exercise classes plus a null class.
DEFAULT_LABELS = (
    "Adductor", "ArmCurl", "BenchPress", "LegCurl", "LegPress", "Riding",
    "RopeSkipping", "Running", "Squat", "StairClimber", "Walking", "Null",
)

DEFAULT_CHANNELS = ("acc_x", "acc_y", "acc_z", "gyro_x", "gyro_y", "gyro_z", "hbc")


@dataclass(frozen=True)
class CsvSchema:
    """Column layout and label vocabulary of a sensor CSV file."""

    channel_columns: tuple = DEFAULT_CHANNELS
    label_column: str = "label"
    user_column: str = "user"
    labels: tuple = DEFAULT_LABELS
    sample_rate_hz: float = 20.0


@dataclass(frozen=True)
class SessionRecord:
    """A contiguous, time-ordered run of sensor rows sharing one label and
    one user.  values has shape (rows, channels)."""

    values: np.ndarray
    label: str
    user: str

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if arr.ndim != 2:
            raise ShapeError(f"session values must be 2-D, got ndim={arr.ndim}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


def load_csv(path, schema: CsvSchema = CsvSchema()) -> list:
    """Parse a sensor CSV into session records.

    Rows are grouped into a new record whenever the user or label changes.
    Malformed cells raise ParseError with the offending line number (1-based,
    header included); unknown labels raise LabelError listing the vocabulary.
    """
    path = os.fspath(path)
    records = []
    rows = []
    current = None  # (user, label)

    def flush():
        if rows:
            records.append(SessionRecord(np.array(rows), current[1], current[0]))
            rows.clear()

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError(f"{path}: empty file")
        needed = list(schema.channel_columns) + [schema.label_column, schema.user_column]
        for col in needed:
            if col not in reader.fieldnames:
                raise MissingColumnError(f"{path}: missing column {col!r}")
        for line_no, row in enumerate(reader, start=2):
            try:
                sensors = [float(row[c]) for c in schema.channel_columns]
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{path}: line {line_no}: non-numeric sensor cell") from exc
            label = row[schema.label_column]
            if label not in schema.labels:
                raise LabelError(
                    f"{path}: line {line_no}: unknown label {label!r}; "
                    f"vocabulary: {', '.join(schema.labels)}"
                )
            user = row[schema.user_column]
            if current != (user, label):
                flush()
                current = (user, label)
            rows.append(sensors)
    flush()
    return records


@dataclass(frozen=True)
class NormStats:
    """Per-channel min-max statistics fitted on a training split."""

    minimum: np.ndarray
    maximum: np.ndarray


def normalize(records, stats: NormStats = None):
    """Min-max normalize session records to [0, 1].

    When stats is None, statistics are fitted over the given records (the
    training split); otherwise the given training statistics are applied and
    out-of-range values are clamped.  Channels with zero spread map to the
    constant 0.5 with a DegenerateChannelWarning.  Returns (records, stats).
    """
    if not records:
        return [], stats
    if stats is None:
        stacked = np.concatenate([r.values for r in records], axis=0)
        stats = NormStats(stacked.min(axis=0), stacked.max(axis=0))
    span = stats.maximum - stats.minimum
    degenerate = span == 0
    if degenerate.any():
        warnings.warn(
            f"channels {np.flatnonzero(degenerate).tolist()} have zero spread; "
            "mapping to constant 0.5",
            DegenerateChannelWarning,
        )
    safe_span = np.where(degenerate, 1.0, span)
    out = []
    for rec in records:
        values = (rec.values - stats.minimum) / safe_span
        values = np.where(degenerate, 0.5, values)
        out.append(SessionRecord(np.clip(values, 0.0, 1.0), rec.label, rec.user))
    return out, stats


@dataclass
class WindowedDataset:
    """Fixed-length labeled windows with user ids for leave-one-user-out
    splits."""

    signals: list
    labels: np.ndarray
    users: list
    label_names: tuple

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.signals)

    def __iter__(self):
        return iter(zip(self.signals, self.labels))

    @property
    def n_classes(self) -> int:
        return len(self.label_names)

    def subset(self, indices) -> "WindowedDataset":
        indices = np.asarray(indices)
        return WindowedDataset(
            [self.signals[i] for i in indices],
            self.labels[indices],
            [self.users[i] for i in indices],
            self.label_names,
        )

    def split_leave_one_user_out(self, user: str):
        """(train, test) datasets with every window of one user held out."""
        users = np.asarray(self.users)
        if user not in users:
            raise ConfigError(f"unknown user {user!r}; present: {sorted(set(self.users))}")
        test = np.flatnonzero(users == user)
        train = np.flatnonzero(users != user)
        return self.subset(train), self.subset(test)


def window(records, sample_rate_hz: float, seconds: float = 2.0,
           stride_seconds: float = None, labels=DEFAULT_LABELS) -> WindowedDataset:
    """Cut sessions into fixed-length windows.

    Each window carries its session's label; since records are per-label
    runs, a window never straddles a label change.  Stride defaults to the
    window length (no overlap).
    """
    width = int(round(sample_rate_hz * seconds))
    if width < 1:
        raise ConfigError(f"window of {seconds}s at {sample_rate_hz}Hz is empty")
    if stride_seconds is None:
        stride = width
    else:
        stride = int(round(sample_rate_hz * stride_seconds))
    if stride < 1:
        raise ConfigError(f"stride must cover at least one sample, got {stride}")
    label_index = {name: i for i, name in enumerate(labels)}
    signals, label_ids, users = [], [], []
    for rec in records:
        if rec.label not in label_index:
            raise LabelError(
                f"label {rec.label!r} not in vocabulary: {', '.join(labels)}"
            )
        for start in range(0, rec.n_rows - width + 1, stride):
            chunk = rec.values[start:start + width].T  # (channels, width)
            signals.append(Signal(chunk, sample_rate_hz=sample_rate_hz))
            label_ids.append(label_index[rec.label])
            users.append(rec.user)
    return WindowedDataset(signals, np.asarray(label_ids, dtype=np.int64),
                           users, tuple(labels))


def interpolate_linear(signal: Signal, factor: int) -> Signal:
    """Piecewise-linear up-sampling: factor - 1 points inserted between
    consecutive samples, endpoints preserved."""
    if factor < 1:
        raise ConfigError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return signal
    if signal.n_samples < 2:
        return Signal(signal.data, signal.sample_rate_hz * factor,
                      signal.channel_names)
    n = signal.n_samples
    xp = np.arange(n, dtype=np.float64)
    x = np.arange((n - 1) * factor + 1, dtype=np.float64) / factor
    data = np.empty((signal.n_channels, x.size))
    for ch in range(signal.n_channels):
        data[ch] = np.interp(x, xp, signal.data[ch])
    return Signal(data, signal.sample_rate_hz * factor, signal.channel_names)


def downsample(signal: Signal, factor: int) -> Signal:
    """Inverse of interpolate_linear on its stride positions: keep every
    factor-th sample."""
    if factor < 1:
        raise ConfigError(f"factor must be >= 1, got {factor}")
    return Signal(signal.data[:, ::factor], signal.sample_rate_hz / factor,
                  signal.channel_names)


def synth_dataset(n_classes: int, samples_per_class: int, seed: int = 0,
                  n_channels: int = 7, sample_rate_hz: float = 20.0,
                  seconds: float = 2.0, n_users: int = 4,
                  offset_spread: float = 0.07, amp_low: float = 0.06,
                  amp_high: float = 0.12, noise_std: float = 0.02) -> WindowedDataset:
    """Deterministic synthetic activity windows.

    Each class owns a family of per-channel sinusoids: a class-specific
    offset pattern around 0.5 (orthogonal cosine patterns guarantee pairwise
    class-mean separation), a class frequency ladder, and fixed phases.
    Individual samples add small amplitude jitter and Gaussian noise, then
    clip to [0, 1], so values stay concentrated near the 0.5 midpoint.
    Users are round-robin cohorts so every leave-one-user-out fold sees all
    classes.
    """
    if n_classes < 1 or samples_per_class < 1:
        raise ConfigError("need at least one class and one sample per class")
    width = int(round(sample_rate_hz * seconds))
    rng = Rng(seed)
    t = np.arange(width) / sample_rate_hz

    ch = np.arange(n_channels)
    offsets = np.empty((n_classes, n_channels))
    freqs = np.empty((n_classes, n_channels))
    for c in range(n_classes):
        pattern = np.cos(np.pi * (2 * ch + 1) * (c + 1) / (2.0 * n_channels))
        offsets[c] = 0.5 + offset_spread * pattern
        freqs[c] = 0.5 * (c + 1) * (1.0 + 0.1 * ch / max(1, n_channels - 1))
    amps = amp_low + (amp_high - amp_low) * rng.uniform(size=(n_classes, n_channels))
    phases = 2.0 * np.pi * rng.uniform(size=(n_classes, n_channels))

    signals, labels, users = [], [], []
    for c in range(n_classes):
        base = offsets[c][:, None] + amps[c][:, None] * np.sin(
            2.0 * np.pi * freqs[c][:, None] * t[None, :] + phases[c][:, None])
        for i in range(samples_per_class):
            jitter = 1.0 + 0.05 * rng.normal(size=(n_channels, 1))
            noisy = offsets[c][:, None] + (base - offsets[c][:, None]) * jitter
            noisy = noisy + noise_std * rng.normal(size=(n_channels, width))
            signals.append(Signal(np.clip(noisy, 0.0, 1.0), sample_rate_hz))
            labels.append(c)
            users.append(f"user{i % n_users}")
    names = tuple(f"class{c}" for c in range(n_classes))
    return WindowedDataset(signals, np.asarray(labels, dtype=np.int64), users, names)


def _atomic_write(path: str, payload: bytes):
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def write_spikes(tensor: SpikeTensor, metadata: dict, path):
    """Serialize a spike tensor to the SPK1 binary format plus JSON sidecar.

    Layout: magic "SPK1", version u16, dim count u8, dims u32 each, the time
    step in ms as f64, then the payload as signed 8-bit values in row-major
    (trains, channels, timesteps) order; all integers little-endian.  The
    sidecar (same basename, .json) carries the metadata dict, with any
    EncodingConfig under "encoding" serialized to plain JSON, plus the
    tensor's window_steps.
    """
    path = os.fspath(path)
    header = SPIKE_MAGIC
    header += struct.pack("<H", SPIKE_VERSION)
    header += struct.pack("<B", 3)
    for dim in tensor.data.shape:
        header += struct.pack("<I", dim)
    header += struct.pack("<d", tensor.time_step_ms)
    _atomic_write(path, header + tensor.data.tobytes())

    sidecar = dict(metadata or {})
    if isinstance(sidecar.get("encoding"), EncodingConfig):
        sidecar["encoding"] = sidecar["encoding"].to_dict()
    sidecar["window_steps"] = tensor.window_steps
    _atomic_write(_sidecar_path(path),
                  (json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode())


def _sidecar_path(path: str) -> str:
    base, _ = os.path.splitext(path)
    return base + ".json"


def unpack_header(fmt: str, blob: bytes, offset: int, path: str):
    """struct.unpack_from with a length check: returns (values, offset past
    them) or raises TruncatedPayloadError when blob ends inside the field."""
    end = offset + struct.calcsize(fmt)
    if len(blob) < end:
        raise TruncatedPayloadError(
            f"{path}: header truncated ({len(blob)} bytes, field needs {end})"
        )
    return struct.unpack_from(fmt, blob, offset), end


def read_sidecar(path: str) -> dict:
    """The JSON object in a sidecar file, or {} when there is no file.

    Raises ParseError when the file is not UTF-8 JSON holding an object.
    """
    if not os.path.exists(path):
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: sidecar is not valid JSON: {exc}") from exc
    if not isinstance(sidecar, dict):
        raise ParseError(f"{path}: sidecar holds {type(sidecar).__name__}, "
                         "expected a JSON object")
    return sidecar


def read_spikes(path):
    """Read an SPK1 file (and its sidecar if present).

    Returns (SpikeTensor, metadata dict).  Raises BadMagicError,
    VersionMismatchError, TruncatedPayloadError, ShapeError or ParseError on
    malformed files, including well-formed fields holding invalid values.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != SPIKE_MAGIC:
        raise BadMagicError(f"{path}: expected {SPIKE_MAGIC!r}, got {blob[:4]!r}")
    (version,), offset = unpack_header("<H", blob, 4, path)
    if version != SPIKE_VERSION:
        raise VersionMismatchError(f"{path}: version {version} unsupported")
    (ndim,), offset = unpack_header("<B", blob, offset, path)
    if ndim != 3:
        raise ShapeError(f"{path}: {ndim} dimensions, expected 3 "
                         "(trains, channels, timesteps)")
    dims, offset = unpack_header(f"<{ndim}I", blob, offset, path)
    (time_step_ms,), offset = unpack_header("<d", blob, offset, path)
    count = math.prod(dims)
    payload = blob[offset:offset + count]
    if len(payload) < count:
        raise TruncatedPayloadError(
            f"{path}: payload has {len(payload)} of {count} bytes"
        )
    data = np.frombuffer(payload, dtype=np.int8).reshape(dims)

    metadata = read_sidecar(_sidecar_path(path))
    try:
        window_steps = int(metadata.pop("window_steps", 1))
        tensor = SpikeTensor(data, time_step_ms=time_step_ms, window_steps=window_steps)
    except (ConfigError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return tensor, metadata
