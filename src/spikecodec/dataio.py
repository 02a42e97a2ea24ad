"""Data ingestion and persistence: CSV sensor sessions, min-max
normalization, fixed-length windowing, linear up-sampling, a synthetic
dataset generator, and the SPK1 binary spike-file format."""

from __future__ import annotations

import codecs
import contextlib
import csv
import io
import json
import math
import os
import struct
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import core
from .core import EncodingConfig, Rng, Signal, SpikeTensor, frozen_array
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

# synth_dataset: one channel per sensor column, class offsets around 0.5,
# amplitudes drawn from [SYNTH_AMP_LOW, SYNTH_AMP_HIGH), Gaussian noise.
SYNTH_CHANNELS = len(DEFAULT_CHANNELS)
SYNTH_OFFSET_SPREAD = 0.07
SYNTH_AMP_LOW = 0.06
SYNTH_AMP_HIGH = 0.12
SYNTH_NOISE_STD = 0.02


@dataclass(frozen=True)
class SessionRecord:
    """A contiguous, time-ordered run of sensor rows sharing one label and
    one user.  values has shape (rows, channels)."""

    values: np.ndarray
    label: str
    user: str

    def __post_init__(self):
        arr = frozen_array(self.values, np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"session values must be 2-D, got ndim={arr.ndim}")
        object.__setattr__(self, "values", arr)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


def load_csv(path) -> list:
    """Parse a sensor CSV into session records.

    The file is UTF-8 text, with or without the byte order mark that Excel
    writes.  The layout is fixed: the DEFAULT_CHANNELS columns, "label" (one
    of DEFAULT_LABELS) and "user".  Rows are grouped into a new record
    whenever the user or label changes.  A file that is not UTF-8, a row
    with more or fewer cells than the header, a sensor cell that is not a
    finite number, and a row the csv module cannot parse raise ParseError
    with the offending line number (1-based, header included); unknown
    labels raise LabelError listing the vocabulary.
    """
    path = os.fspath(path)
    records = []
    rows = []
    current = None  # (user, label)

    def flush():
        if rows:
            records.append(SessionRecord(np.array(rows), current[1], current[0]))
            rows.clear()

    with open(path, "rb") as fh:
        blob = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = blob[:exc.start].count(b"\n") + 1
        raise ParseError(f"{path}: line {line_no}: not UTF-8 text") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        column = {name: i for i, name in enumerate(header)}
        for col in (*DEFAULT_CHANNELS, "label", "user"):
            if col not in column:
                raise MissingColumnError(f"{path}: missing column {col!r}")
        for row in reader:
            if not row:
                continue  # a blank line
            line_no = reader.line_num
            if len(row) != len(header):
                raise ParseError(f"{path}: line {line_no}: {len(row)} cells where "
                                 f"the header has {len(header)}")
            try:
                sensors = [float(row[column[c]]) for c in DEFAULT_CHANNELS]
            except ValueError as exc:
                raise ParseError(f"{path}: line {line_no}: non-numeric sensor cell") from exc
            if not all(map(math.isfinite, sensors)):
                raise ParseError(f"{path}: line {line_no}: non-finite sensor cell")
            label = row[column["label"]]
            if label not in DEFAULT_LABELS:
                raise LabelError(
                    f"{path}: line {line_no}: unknown label {label!r}; "
                    f"vocabulary: {', '.join(DEFAULT_LABELS)}"
                )
            user = row[column["user"]]
            if current != (user, label):
                flush()
                current = (user, label)
            rows.append(sensors)
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
    flush()
    return records


@dataclass(frozen=True)
class NormStats:
    """Per-channel min-max statistics fitted on a training split."""

    minimum: np.ndarray
    maximum: np.ndarray

    @classmethod
    def fit(cls, records) -> "NormStats":
        """Per-channel minimum and maximum over the rows of records."""
        stacked = np.concatenate([r.values for r in records], axis=0)
        return cls(stacked.min(axis=0), stacked.max(axis=0))


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
        stats = NormStats.fit(records)
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


def _samples(sample_rate_hz: float, seconds: float, what: str) -> int:
    """Samples in a span of seconds, rounded; ConfigError unless that is a
    finite count of at least one."""
    n = sample_rate_hz * seconds
    if not (math.isfinite(n) and round(n) >= 1):
        raise ConfigError(f"{what} of {seconds}s at {sample_rate_hz}Hz "
                          "covers no whole sample")
    return int(round(n))


def window(records, sample_rate_hz: float, seconds: float = 2.0,
           stride_seconds: float = None) -> WindowedDataset:
    """Cut sessions into fixed-length windows.

    Each window carries its session's label as an index into DEFAULT_LABELS;
    since records are per-label runs, a window never straddles a label
    change.  Stride defaults to the window length (no overlap).
    """
    width = _samples(sample_rate_hz, seconds, "window")
    stride = (width if stride_seconds is None
              else _samples(sample_rate_hz, stride_seconds, "stride"))
    label_index = {name: i for i, name in enumerate(DEFAULT_LABELS)}
    signals, label_ids, users = [], [], []
    for rec in records:
        if rec.label not in label_index:
            raise LabelError(
                f"label {rec.label!r} not in vocabulary: {', '.join(DEFAULT_LABELS)}"
            )
        for start in range(0, rec.n_rows - width + 1, stride):
            chunk = rec.values[start:start + width].T  # (channels, width)
            signals.append(Signal(chunk, sample_rate_hz=sample_rate_hz))
            label_ids.append(label_index[rec.label])
            users.append(rec.user)
    return WindowedDataset(signals, np.asarray(label_ids, dtype=np.int64),
                           users, DEFAULT_LABELS)


def interpolate_linear(signal: Signal, factor: int) -> Signal:
    """Piecewise-linear up-sampling: factor - 1 points inserted between
    consecutive samples, endpoints preserved."""
    if factor < 1:
        raise ConfigError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return signal
    if signal.n_samples < 2:
        return Signal(signal.data, signal.sample_rate_hz * factor)
    n = signal.n_samples
    xp = np.arange(n, dtype=np.float64)
    x = np.arange((n - 1) * factor + 1, dtype=np.float64) / factor
    data = np.empty((signal.n_channels, x.size))
    for ch in range(signal.n_channels):
        data[ch] = np.interp(x, xp, signal.data[ch])
    return Signal(data, signal.sample_rate_hz * factor)


def downsample(signal: Signal, factor: int) -> Signal:
    """Inverse of interpolate_linear on its stride positions: keep every
    factor-th sample."""
    if factor < 1:
        raise ConfigError(f"factor must be >= 1, got {factor}")
    return Signal(signal.data[:, ::factor], signal.sample_rate_hz / factor)


def synth_dataset(n_classes: int, samples_per_class: int, seed: int = 0,
                  sample_rate_hz: float = 20.0, seconds: float = 2.0,
                  n_users: int = 4) -> WindowedDataset:
    """Deterministic synthetic activity windows.

    Each class owns a family of per-channel sinusoids: a class-specific
    offset pattern around 0.5 (orthogonal cosine patterns guarantee pairwise
    class-mean separation), a class frequency ladder, and fixed phases.
    Individual samples add small amplitude jitter and Gaussian noise, then
    clip to [0, 1], so values stay concentrated near the 0.5 midpoint.
    Users are round-robin cohorts so every leave-one-user-out fold sees all
    classes.  A set of more than core.MAX_BLOCK_BYTES of float64 samples is
    a ConfigError, raised before anything is allocated.
    """
    if n_classes < 1 or samples_per_class < 1:
        raise ConfigError("need at least one class and one sample per class")
    if n_users < 1:
        raise ConfigError(f"need at least one user, got {n_users}")
    width = _samples(sample_rate_hz, seconds, "window")
    size = int(n_classes) * int(samples_per_class) * SYNTH_CHANNELS * width * 8
    if size > core.MAX_BLOCK_BYTES:
        raise ConfigError(
            f"a synthetic set of {n_classes} x {samples_per_class} windows of "
            f"{width:.6g} samples is over the {core.MAX_BLOCK_BYTES / 2 ** 30:g} GiB cap")
    rng = Rng(seed)
    t = np.arange(width) / sample_rate_hz

    n_channels = SYNTH_CHANNELS
    ch = np.arange(n_channels)
    offsets = np.empty((n_classes, n_channels))
    freqs = np.empty((n_classes, n_channels))
    for c in range(n_classes):
        pattern = np.cos(np.pi * (2 * ch + 1) * (c + 1) / (2.0 * n_channels))
        offsets[c] = 0.5 + SYNTH_OFFSET_SPREAD * pattern
        freqs[c] = 0.5 * (c + 1) * (1.0 + 0.1 * ch / max(1, n_channels - 1))
    amps = SYNTH_AMP_LOW + (SYNTH_AMP_HIGH - SYNTH_AMP_LOW) * rng.uniform(
        size=(n_classes, n_channels))
    phases = 2.0 * np.pi * rng.uniform(size=(n_classes, n_channels))

    signals, labels, users = [], [], []
    for c in range(n_classes):
        base = offsets[c][:, None] + amps[c][:, None] * np.sin(
            2.0 * np.pi * freqs[c][:, None] * t[None, :] + phases[c][:, None])
        for i in range(samples_per_class):
            jitter = 1.0 + 0.05 * rng.normal(size=(n_channels, 1))
            noisy = offsets[c][:, None] + (base - offsets[c][:, None]) * jitter
            noisy = noisy + SYNTH_NOISE_STD * rng.normal(size=(n_channels, width))
            signals.append(Signal(np.clip(noisy, 0.0, 1.0), sample_rate_hz))
            labels.append(c)
            users.append(f"user{i % n_users}")
    names = tuple(f"class{c}" for c in range(n_classes))
    return WindowedDataset(signals, np.asarray(labels, dtype=np.int64), users, names)


def atomic_write(files):
    """Write a group of (path, payload) pairs whole or not at all.

    A group naming one path twice, .tmp files counted, is a ConfigError
    naming the repeats, raised before anything is made.  Then the group's
    missing directories are made, and every payload goes to a sibling .tmp
    file; each is then renamed onto its path in order.  When a write or a
    rename fails, every .tmp file and every file already renamed is removed
    (an older file one replaced stays replaced) and the error propagates.
    """
    files = [(os.fspath(path), payload) for path, payload in files]
    paths = [path for path, _ in files]
    counts = Counter(paths)
    repeated = (sorted(path for path, n in counts.items() if n > 1)
                or sorted(path + ".tmp" for path in paths if path + ".tmp" in counts))
    if repeated:
        raise ConfigError(f"one group of files names {', '.join(repeated)} twice")
    for directory in sorted({os.path.dirname(path) for path in paths} - {""}):
        os.makedirs(directory, exist_ok=True)
    renamed = 0
    try:
        for path, payload in files:
            with open(path + ".tmp", "wb") as fh:
                fh.write(payload)
        for path in paths:
            os.replace(path + ".tmp", path)
            renamed += 1
    except BaseException:
        for i, path in enumerate(paths):
            with contextlib.suppress(OSError):
                os.unlink(path if i < renamed else path + ".tmp")
        raise


def json_bytes(obj) -> bytes:
    """The one JSON file layout (sidecars and reports): indent 2, sorted
    keys, a final newline."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def sidecar_path(path, checkpoint: bool = False) -> str:
    """The JSON sidecar beside a spike file (w.spk -> w.json) or, with
    checkpoint, beside a CUB1 checkpoint (m.cuba -> m.cuba.json)."""
    path = os.fspath(path)
    return (path if checkpoint else os.path.splitext(path)[0]) + ".json"


def spike_files(tensor: SpikeTensor, metadata: dict, path) -> list:
    """The (path, payload) pairs of a spike tensor: the SPK1 file and its
    JSON sidecar.

    Layout: magic "SPK1", version u16, dim count u8, dims u32 each, the time
    step in ms as f64, then the payload as signed 8-bit values in row-major
    (trains, channels, timesteps) order; all integers little-endian.  The
    sidecar (sidecar_path) carries the metadata dict, with any
    EncodingConfig under "encoding" serialized to plain JSON, plus the
    tensor's window_steps.
    """
    header = struct.pack("<4sHB3Id", SPIKE_MAGIC, SPIKE_VERSION, 3,
                         *tensor.data.shape, tensor.time_step_ms)
    sidecar = dict(metadata or {})
    if isinstance(sidecar.get("encoding"), EncodingConfig):
        sidecar["encoding"] = sidecar["encoding"].to_dict()
    sidecar["window_steps"] = tensor.window_steps
    return [(path, header + tensor.data.tobytes()),
            (sidecar_path(path), json_bytes(sidecar))]


def write_spikes(tensor: SpikeTensor, metadata: dict, path):
    """Write a spike tensor's SPK1 file and sidecar (spike_files) as one
    group."""
    atomic_write(spike_files(tensor, metadata, path))


def unpack_header(fmt: str, blob: bytes, offset: int, path: str):
    """struct.unpack_from with a length check: returns (values, offset past
    them) or raises TruncatedPayloadError when blob ends inside the field."""
    end = offset + struct.calcsize(fmt)
    if len(blob) < end:
        raise TruncatedPayloadError(
            f"{path}: header truncated ({len(blob)} bytes, field needs {end})"
        )
    return struct.unpack_from(fmt, blob, offset), end


def expect_end(blob: bytes, offset: int, path: str):
    """Raise ParseError when blob holds bytes past offset, the end of its
    last field."""
    extra = len(blob) - offset
    if extra > 0:
        raise ParseError(f"{path}: {extra} extra byte(s) after the last field")


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


def read_container(path, magic: bytes, version: int):
    """Read a file opening with the SPK1/CUB1 prefix (magic, u16 version,
    u8 count) and check it in that order.  Returns (blob, count, offset
    just past the count)."""
    path = os.fspath(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != magic:
        raise BadMagicError(f"{path}: expected {magic!r}, got {blob[:4]!r}")
    (found,), offset = unpack_header("<H", blob, 4, path)
    if found != version:
        raise VersionMismatchError(f"{path}: version {found} unsupported")
    (count,), offset = unpack_header("<B", blob, offset, path)
    return blob, count, offset


def read_spikes(path):
    """Read an SPK1 file (and its sidecar if present).

    Returns (SpikeTensor, metadata dict).  Raises BadMagicError,
    VersionMismatchError, TruncatedPayloadError, ShapeError or ParseError on
    malformed files, including well-formed fields holding invalid values and
    bytes after the payload.
    """
    path = os.fspath(path)
    blob, ndim, offset = read_container(path, SPIKE_MAGIC, SPIKE_VERSION)
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
    expect_end(blob, offset + count, path)
    data = np.frombuffer(payload, dtype=np.int8).reshape(dims)

    metadata = read_sidecar(sidecar_path(path))
    try:
        tensor = SpikeTensor(data, time_step_ms=time_step_ms,
                             window_steps=metadata.pop("window_steps", 1))
    except ConfigError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return tensor, metadata
