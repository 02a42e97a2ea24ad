"""Current-based LIF classifier with surrogate-gradient training.

The neuron keeps two state variables per step: a synaptic current that
low-pass filters incoming spikes and a membrane potential driven by that
current.  A neuron fires when the potential reaches the threshold and is
hard-reset to zero.  Training backpropagates through time, replacing the
threshold derivative with a fast-sigmoid surrogate; a fully differentiable
soft mode (sigmoid spikes) exists so the whole backward pass can be checked
against finite differences.

The matmuls of a layer run once over the whole (T * B) block; only the
element-wise time recurrence steps through time.  That recurrence runs in a
small C kernel (_cuba.c, built on first use with the system C compiler and
loaded through ctypes) when one can be built, and in numpy otherwise; the
two give bitwise the same results, and soft mode always uses numpy.
Every (T, B, n) block lives in a _Workspace: train keeps one for all its
batches and accuracy passes, every other caller gets a fresh one per call.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import math
import os
import platform
import shutil
import struct
import subprocess
import tempfile
from dataclasses import dataclass

import numpy as np

from .core import Rng, SpikeTensor
from .dataio import read_sidecar, unpack_header
from .errors import (
    BadMagicError,
    ConfigError,
    DivergenceError,
    EmptyDatasetError,
    ParseError,
    ShapeError,
    TruncatedPayloadError,
    VersionMismatchError,
)

CHECKPOINT_MAGIC = b"CUB1"
CHECKPOINT_VERSION = 1

_KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_cuba.c")
# No -ffast-math or -march=native: without FMA contraction the kernel
# rounds exactly as the numpy reference does.
_KERNEL_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _load_kernel():
    """Load the compiled LIF recurrence (_cuba.c), building it on first use.

    The shared library is cached under $XDG_CACHE_HOME (or ~/.cache) in a
    file named by the hash of the source, flags and machine, so a build
    happens once per user and source version.  Returns None when there is
    no C compiler or the build fails; callers then use the numpy reference.
    """
    try:
        with open(_KERNEL_SOURCE, "rb") as fh:
            source = fh.read()
        key = hashlib.sha256(source + " ".join(
            _KERNEL_FLAGS + (platform.machine(),)).encode()).hexdigest()[:16]
        cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                             or os.path.expanduser("~/.cache"), "spikecodec")
        lib_path = os.path.join(cache, f"cuba-{key}.so")
        if not os.path.exists(lib_path):
            compiler = shutil.which("cc") or shutil.which("gcc")
            if compiler is None:
                return None
            os.makedirs(cache, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run([compiler, *_KERNEL_FLAGS, "-o", tmp, _KERNEL_SOURCE],
                               check=True, capture_output=True, timeout=120)
                os.replace(tmp, lib_path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(lib_path)
    except (OSError, subprocess.SubprocessError):
        return None
    ptr, n, real = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    lib.cuba_forward.argtypes = [ptr, ptr, ptr, ptr, n, n, real, real, real]
    lib.cuba_forward.restype = None
    lib.cuba_backward.argtypes = [ptr, ptr, ptr, n, ptr, ptr, ptr, ptr,
                                  n, n, real, real, real, real]
    lib.cuba_backward.restype = None
    return lib


_kernel = functools.cache(_load_kernel)


def _ptr(a: np.ndarray, shape, broadcast_time: bool = False) -> int:
    """Address of a float64 array laid out C-contiguously as shape, for the
    kernel; with broadcast_time, a time stride of 0 (one row repeated over
    time) is accepted too."""
    ok = a.dtype == np.float64 and a.shape == tuple(shape) and (
        a.flags.c_contiguous
        or (broadcast_time and a.strides[0] == 0 and a[0].flags.c_contiguous))
    if not ok:
        raise ShapeError(f"kernel buffer {a.shape} {a.dtype} strides {a.strides} "
                         f"is not a C-contiguous float64 block of shape {tuple(shape)}")
    return a.ctypes.data


@dataclass(frozen=True)
class CubaParams:
    """Neuron constants: firing threshold and the per-step decay fractions
    of the synaptic current and the membrane potential."""

    threshold: float = 1.0
    current_decay: float = 0.5
    voltage_decay: float = 0.3

    def __post_init__(self):
        if not 0 < self.threshold < np.inf:
            raise ConfigError(f"threshold must be positive and finite, got {self.threshold}")
        if not 0 < self.current_decay <= 1:
            raise ConfigError(f"current_decay must be in (0, 1], got {self.current_decay}")
        if not 0 < self.voltage_decay <= 1:
            raise ConfigError(f"voltage_decay must be in (0, 1], got {self.voltage_decay}")


@dataclass(frozen=True)
class LossSpec:
    """Target firing rates for the output layer: high for the true class,
    low for all others."""

    true_rate: float = 0.9
    false_rate: float = 0.1

    def __post_init__(self):
        if not 0 < self.true_rate <= 1:
            raise ConfigError(f"true_rate must be in (0, 1], got {self.true_rate}")
        if not 0 <= self.false_rate < 1:
            raise ConfigError(f"false_rate must be in [0, 1), got {self.false_rate}")
        if self.false_rate >= self.true_rate:
            raise ConfigError("false_rate must be below true_rate")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    batch_size: int = 32
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    surrogate_slope: float = 10.0
    soft_mode: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.surrogate_slope <= 0:
            raise ConfigError(f"surrogate_slope must be positive, got {self.surrogate_slope}")


class CubaNetwork:
    """Feed-forward dense network of CUBA neurons.

    layer_sizes includes the input width, e.g. (7, 256, 64, 12).  Weights are
    drawn from a seeded normal scaled by 1/sqrt(fan_in) unless given.
    """

    def __init__(self, layer_sizes, params=None, dropout_p: float = 0.1,
                 weights=None, seed: int = 0, init_gain: float = 2.0):
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2:
            raise ConfigError("layer_sizes needs at least input and output widths")
        if any(s < 1 for s in sizes):
            raise ConfigError(f"layer sizes must be positive, got {sizes}")
        if not 0 <= dropout_p < 1:
            raise ConfigError(f"dropout_p must be in [0, 1), got {dropout_p}")
        self.layer_sizes = sizes
        self.dropout_p = float(dropout_p)
        n_layers = len(sizes) - 1
        if params is None:
            params = CubaParams()
        if isinstance(params, CubaParams):
            params = [params] * n_layers
        self.params = list(params)
        if len(self.params) != n_layers:
            raise ShapeError(f"{len(self.params)} param sets for {n_layers} layers")
        if weights is None:
            rng = Rng(seed)
            weights = [
                rng.normal(size=(sizes[i + 1], sizes[i]),
                           scale=init_gain / np.sqrt(sizes[i]))
                for i in range(n_layers)
            ]
        self.weights = [np.array(w, dtype=np.float64) for w in weights]
        for i, w in enumerate(self.weights):
            expected = (sizes[i + 1], sizes[i])
            if w.shape != expected:
                raise ShapeError(f"layer {i} weights {w.shape} != {expected}")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]

    def copy_weights(self):
        return [w.copy() for w in self.weights]

    def set_weights(self, weights):
        for w, new in zip(self.weights, weights):
            if w.shape != new.shape:
                raise ShapeError(f"weight shape {new.shape} != {w.shape}")
        self.weights = [np.array(w, dtype=np.float64) for w in weights]


def _surrogate_grad(v: np.ndarray, params: CubaParams, slope: float) -> np.ndarray:
    """Fast-sigmoid surrogate for the threshold derivative."""
    return 1.0 / np.square(1.0 + slope * np.abs(v - params.threshold))


def _soft_spike(v: np.ndarray, params: CubaParams, slope: float) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-slope * (v - params.threshold)))


def _soft_spike_grad(s: np.ndarray, slope: float) -> np.ndarray:
    return slope * s * (1.0 - s)


@dataclass
class ForwardResult:
    """Output raster of shape (classes, timesteps) plus the per-class mean
    firing rates over the whole duration."""

    spikes: np.ndarray
    rates: np.ndarray
    potentials: list = None


@dataclass(frozen=True)
class Classification:
    label: int
    rates: np.ndarray
    no_spikes: bool


def _as_features(x) -> np.ndarray:
    if isinstance(x, SpikeTensor):
        return x.features()
    return np.asarray(x, dtype=np.float64)


def _stack_batch(tensors) -> np.ndarray:
    feats = [_as_features(t) for t in tensors]
    shapes = {f.shape for f in feats}
    if len(shapes) != 1:
        raise ShapeError(f"batch mixes input shapes: {sorted(shapes)}")
    return np.stack(feats)  # (B, F, T)


class _Workspace:
    """Named flat float64 buffers, reused from call to call.

    take(name, shape) returns the C-contiguous prefix of the buffer, so a
    smaller request (the short last batch, an accuracy block) reuses the
    memory of a larger one; a buffer is only (re)allocated when a request
    outgrows it.  The returned view is overwritten by the next take of the
    same name, so nothing a caller keeps may alias it.
    """

    def __init__(self):
        self._flat = {}

    def take(self, name, shape) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


def _lif_forward(drive: np.ndarray, v_rec, p: CubaParams, soft: bool = False,
                 slope: float = 10.0):
    """LIF recurrence over a (T, B, n) block of input currents.

    Overwrites drive with the spikes and, if v_rec is given, records the
    pre-reset potentials into it.  Hard-threshold runs go to the compiled
    kernel when there is one; the numpy loop below is the reference it
    matches bit for bit.
    """
    t_len, b, n = drive.shape
    kernel = None if soft else _kernel()
    if kernel is not None:
        state = np.zeros((2, b * n))
        kernel.cuba_forward(_ptr(drive, drive.shape),
                            None if v_rec is None else _ptr(v_rec, drive.shape),
                            state.ctypes.data, state[1].ctypes.data, t_len, b * n,
                            1.0 - p.current_decay, 1.0 - p.voltage_decay,
                            p.threshold)
        return
    au = 1.0 - p.current_decay
    av = 1.0 - p.voltage_decay
    u = np.zeros((b, n))
    v = np.zeros((b, n))
    for t in range(t_len):
        u = au * u + drive[t]
        v = av * v + u
        if soft:
            s = _soft_spike(v, p, slope)
        else:
            s = (v >= p.threshold).astype(np.float64)
        if v_rec is not None:
            v_rec[t] = v
        v = v * (1.0 - s)
        drive[t] = s


def _simulate(net: CubaNetwork, x: np.ndarray, soft: bool = False,
              slope: float = 10.0, record: bool = False,
              dropout_masks=None, work: _Workspace = None):
    """Run the network over a (B, F, T) block.

    Returns (out_spikes (T, B, C), tape).  When record is set, the tape holds
    per layer the inputs "x", pre-reset potentials "v" and spikes "s" needed
    for backpropagation, all in (T, B, n) layout.  Both are views into work
    (a fresh workspace if none is given).
    """
    b, f, t_len = x.shape
    if f != net.n_inputs:
        raise ShapeError(f"input features {f} != network input width {net.n_inputs}")
    work = work or _Workspace()
    current = work.take("input", (t_len, b, f))
    np.copyto(current, x.transpose(2, 0, 1))
    tape = []
    for li in range(net.n_layers):
        w = net.weights[li]
        n_out, n_in = w.shape
        drive = work.take(("s", li), (t_len, b, n_out))
        np.matmul(current.reshape(t_len * b, n_in), w.T,
                  out=drive.reshape(t_len * b, n_out))
        v_rec = work.take(("v", li), drive.shape) if record else None
        _lif_forward(drive, v_rec, net.params[li], soft, slope)
        if record:
            tape.append({"x": current, "v": v_rec, "s": drive})
        current = drive
        if dropout_masks is not None and li < net.n_layers - 1:
            current = np.multiply(drive, dropout_masks[li],
                                  out=work.take(("x", li + 1), drive.shape))
    return current, tape


def forward(net: CubaNetwork, spikes_in, record_potentials: bool = False) -> ForwardResult:
    """Output raster of one sample, and with record_potentials the
    post-reset potentials of every layer; classification goes through
    output_rates instead."""
    x = _as_features(spikes_in)[np.newaxis]  # (1, F, T)
    out, tape = _simulate(net, x, record=record_potentials)
    raster = out[:, 0, :].T  # (classes, T)
    rates = raster.mean(axis=1)
    potentials = None
    if record_potentials:
        potentials = [(layer["v"] * (1.0 - layer["s"]))[:, 0, :].T for layer in tape]
    return ForwardResult(spikes=raster, rates=rates, potentials=potentials)


def output_rates(net: CubaNetwork, x: np.ndarray, soft: bool = False,
                 slope: float = 10.0, batch_size: int = None,
                 work: _Workspace = None) -> np.ndarray:
    """Per-class output rates (B, classes) of a stacked (B, F, T) block: the
    mean output spike count over time.  With batch_size, the block is
    simulated that many samples at a time, every block in one workspace."""
    step = batch_size or x.shape[0]
    work = work or _Workspace()
    return np.concatenate([
        _simulate(net, x[start:start + step], soft=soft, slope=slope,
                  work=work)[0].mean(axis=0)
        for start in range(0, x.shape[0], step)
    ])


def classify_detailed(net: CubaNetwork, spikes_in) -> Classification:
    """Class with the highest output rate for one sample; ties break toward
    the lowest index."""
    rates = output_rates(net, _as_features(spikes_in)[np.newaxis])[0]
    return Classification(label=int(np.argmax(rates)), rates=rates,
                          no_spikes=bool(rates.sum() == 0.0))


def classify_batch(net: CubaNetwork, tensors) -> np.ndarray:
    return np.argmax(output_rates(net, _stack_batch(tensors)), axis=1)


def spike_rate_loss(rates, label: int, spec: LossSpec = LossSpec()) -> float:
    """Mean squared error between output rates and the target rate vector."""
    rates = np.asarray(rates, dtype=np.float64)
    n = rates.shape[0]
    if not 0 <= label < n:
        raise IndexError(f"label {label} out of range for {n} classes")
    target = np.full(n, spec.false_rate)
    target[label] = spec.true_rate
    return float(np.mean(np.square(rates - target)))


def _targets(labels: np.ndarray, n_classes: int, spec: LossSpec) -> np.ndarray:
    t = np.full((labels.shape[0], n_classes), spec.false_rate)
    t[np.arange(labels.shape[0]), labels] = spec.true_rate
    return t


def _loss_and_grads(net: CubaNetwork, x: np.ndarray, labels: np.ndarray,
                    loss_spec: LossSpec, slope: float, soft: bool,
                    dropout_masks=None, work: _Workspace = None):
    """Forward plus backpropagation through time over a (B, F, T) block.

    Returns (loss, [dW per layer]).  The backward pass follows the forward
    graph exactly: spike derivative (surrogate in hard mode, exact sigmoid
    derivative in soft mode), the multiplicative reset, and both state
    recurrences.  The reverse recurrence yields the current gradients of a
    whole layer, from which dW and the input gradient are one matmul each.
    The tape and the gradient blocks live in work (a fresh workspace if
    none is given).  Each layer's current and spike gradients are dead once
    the next layer down has read them, so all layers share one buffer of
    each, as wide as the widest layer; the returned dW are new arrays.
    """
    b, _, t_len = x.shape
    work = work or _Workspace()
    out, tape = _simulate(net, x, soft=soft, slope=slope, record=True,
                          dropout_masks=dropout_masks, work=work)
    rates = out.mean(axis=0)  # (B, C)
    targets = _targets(labels, net.n_classes, loss_spec)
    diff = rates - targets
    loss = float(np.mean(np.square(diff)))
    g_rates = 2.0 * diff / diff.size

    grads = [None] * net.n_layers
    g_s = np.broadcast_to(g_rates / t_len, (t_len,) + g_rates.shape)
    for li in range(net.n_layers - 1, -1, -1):
        layer = tape[li]
        w = net.weights[li]
        mask = None
        if dropout_masks is not None and li < net.n_layers - 1:
            mask = dropout_masks[li]
        n_out, n_in = w.shape
        g_u = work.take("g_u", layer["v"].shape)
        _lif_backward(layer["v"], layer["s"], g_s, mask, g_u, net.params[li],
                      slope, soft)
        g_u = g_u.reshape(t_len * b, n_out)
        grads[li] = g_u.T @ layer["x"].reshape(t_len * b, n_in)
        if li > 0:  # the network input's gradient is never read
            g_s = work.take("g_s", (t_len, b, n_in))
            np.matmul(g_u, w, out=g_s.reshape(t_len * b, n_in))
    return loss, grads


def _lif_backward(v_seq, s_seq, g_s, mask, g_u, p: CubaParams, slope: float,
                  soft: bool):
    """Reverse LIF recurrence: writes the synaptic-current gradients of a
    (T, B, n) block into g_u, given the spike gradients g_s (times the
    dropout mask, if any).  Dispatched like _lif_forward; g_s may broadcast
    one (B, n) row over time."""
    t_len, b, n = g_u.shape
    kernel = None if soft else _kernel()
    if kernel is not None:
        carry = np.zeros((2, b * n))
        kernel.cuba_backward(_ptr(v_seq, g_u.shape), _ptr(s_seq, g_u.shape),
                             _ptr(g_s, g_u.shape, broadcast_time=True),
                             g_s.strides[0] // g_s.itemsize,
                             None if mask is None else _ptr(mask, (b, n)),
                             _ptr(g_u, g_u.shape), carry.ctypes.data,
                             carry[1].ctypes.data, t_len, b * n,
                             1.0 - p.current_decay, 1.0 - p.voltage_decay,
                             p.threshold, slope)
        return
    au = 1.0 - p.current_decay
    av = 1.0 - p.voltage_decay
    carry_u = np.zeros((b, n))
    carry_vp = np.zeros((b, n))
    for t in range(t_len - 1, -1, -1):
        v = v_seq[t]
        s = s_seq[t]
        if soft:
            sd = _soft_spike_grad(s, slope)
        else:
            sd = _surrogate_grad(v, p, slope)
        g = g_s[t] if mask is None else g_s[t] * mask
        g_v = sd * (g - v * carry_vp) + (1.0 - s) * carry_vp
        g_u[t] = g_v + au * carry_u
        carry_u = g_u[t]
        carry_vp = av * g_v


class _Adam:
    def __init__(self, shapes, cfg: TrainConfig):
        self.cfg = cfg
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def step(self, weights, grads):
        cfg = self.cfg
        self.t += 1
        b1_corr = 1.0 - cfg.beta1 ** self.t
        b2_corr = 1.0 - cfg.beta2 ** self.t
        for i, g in enumerate(grads):
            self.m[i] = cfg.beta1 * self.m[i] + (1.0 - cfg.beta1) * g
            self.v[i] = cfg.beta2 * self.v[i] + (1.0 - cfg.beta2) * np.square(g)
            m_hat = self.m[i] / b1_corr
            v_hat = self.v[i] / b2_corr
            weights[i] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)


@dataclass(frozen=True)
class EpochStats:
    """One epoch of training: mean batch loss and the accuracies after it.
    train_accuracy is None when train ran with track_train_accuracy off."""

    epoch: int
    loss: float
    train_accuracy: float | None
    test_accuracy: float


@dataclass
class TrainResult:
    net: CubaNetwork
    history: list
    best_epoch: int
    best_test_accuracy: float


def _accuracy(net: CubaNetwork, x: np.ndarray, labels: np.ndarray,
              batch_size: int, work: _Workspace) -> float:
    pred = np.argmax(output_rates(net, x, batch_size=batch_size, work=work), axis=1)
    return float(np.mean(pred == labels))


def train(net: CubaNetwork, dataset, cfg: TrainConfig,
          test_set=None, loss_spec: LossSpec = LossSpec(),
          track_train_accuracy: bool = True) -> TrainResult:
    """Surrogate-gradient training with ADAM; deterministic given seed.

    dataset (and test_set, if given) are sequences of (SpikeTensor, label)
    pairs sharing one tensor shape.  Accuracy is tracked every epoch and the
    weights of the first best test-accuracy epoch are restored at the end.
    Without a test_set the training set doubles as the tracking set, and
    one pass per epoch fills both accuracies.  With track_train_accuracy
    off, no training-split pass runs and every EpochStats.train_accuracy is
    None; the accuracy passes draw no random numbers, so weights, losses
    and test accuracies are the same either way.  One workspace serves
    every batch and accuracy pass of the call and is released when it
    returns.
    """
    if len(dataset) == 0:
        raise EmptyDatasetError("training dataset is empty")
    x_train = _stack_batch([t for t, _ in dataset])
    y_train = np.asarray([l for _, l in dataset], dtype=np.int64)
    if test_set is not None and len(test_set) > 0:
        x_test = _stack_batch([t for t, _ in test_set])
        y_test = np.asarray([l for _, l in test_set], dtype=np.int64)
    else:
        x_test, y_test = x_train, y_train

    rng = Rng(cfg.seed)
    adam = _Adam([w.shape for w in net.weights], cfg)
    history = []
    best_acc = -1.0
    best_epoch = -1
    best_weights = net.copy_weights()
    n = x_train.shape[0]
    work = _Workspace()

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb = x_train[idx]
            yb = y_train[idx]
            masks = None
            if net.dropout_p > 0.0:
                keep = 1.0 - net.dropout_p
                masks = [
                    (rng.uniform(size=(xb.shape[0], net.layer_sizes[i + 1])) < keep)
                    .astype(np.float64) / keep
                    for i in range(net.n_layers - 1)
                ]
            loss, grads = _loss_and_grads(net, xb, yb, loss_spec,
                                          cfg.surrogate_slope, cfg.soft_mode,
                                          dropout_masks=masks, work=work)
            if not np.isfinite(loss):
                raise DivergenceError(f"loss became non-finite at epoch {epoch}")
            adam.step(net.weights, grads)
            epoch_loss += loss
            n_batches += 1
        test_acc = _accuracy(net, x_test, y_test, cfg.batch_size, work)
        train_acc = None
        if track_train_accuracy:
            train_acc = (test_acc if x_test is x_train else
                         _accuracy(net, x_train, y_train, cfg.batch_size, work))
        history.append(EpochStats(epoch, epoch_loss / n_batches, train_acc, test_acc))
        if test_acc > best_acc:
            best_acc = test_acc
            best_epoch = epoch
            best_weights = net.copy_weights()
    net.set_weights(best_weights)
    return TrainResult(net=net, history=history, best_epoch=best_epoch,
                       best_test_accuracy=best_acc)


@dataclass(frozen=True)
class GradCheckResult:
    status: str
    max_rel_error: float
    n_checked: int

    @property
    def ok(self) -> bool:
        return self.status == "checked"


def gradient_check(net: CubaNetwork, sample, cfg: TrainConfig,
                   n_weights: int = 120, step: float = 1e-5,
                   loss_spec: LossSpec = LossSpec()) -> GradCheckResult:
    """Compare analytic gradients against central finite differences.

    Only meaningful in soft mode, where the forward pass is differentiable;
    in hard mode the check is skipped with a non-differentiable status.
    Dropout is disabled for the comparison.
    """
    if not cfg.soft_mode:
        return GradCheckResult(status="skipped: non-differentiable hard threshold",
                               max_rel_error=float("nan"), n_checked=0)
    tensor, label = sample
    x = _as_features(tensor)[np.newaxis]
    labels = np.asarray([label], dtype=np.int64)

    def loss_only():
        rates = output_rates(net, x, soft=True, slope=cfg.surrogate_slope)
        return float(np.mean(np.square(rates - _targets(labels, net.n_classes,
                                                        loss_spec))))

    _, grads = _loss_and_grads(net, x, labels, loss_spec,
                               cfg.surrogate_slope, soft=True)
    rng = Rng(cfg.seed)
    sizes = np.array([w.size for w in net.weights])
    total = int(sizes.sum())
    picks = np.sort(rng.integers(0, total, size=min(n_weights, total)))
    bounds = np.cumsum(sizes)
    max_rel = 0.0
    for flat in picks:
        li = int(np.searchsorted(bounds, flat, side="right"))
        local = int(flat - (bounds[li - 1] if li else 0))
        w = net.weights[li]
        coord = np.unravel_index(local, w.shape)
        orig = w[coord]
        w[coord] = orig + step
        up = loss_only()
        w[coord] = orig - step
        down = loss_only()
        w[coord] = orig
        numeric = (up - down) / (2.0 * step)
        analytic = grads[li][coord]
        # guard the denominator at the scale below which central differences
        # bottom out in float64 cancellation noise
        denom = max(abs(numeric), abs(analytic), 1e-5)
        max_rel = max(max_rel, abs(numeric - analytic) / denom)
    return GradCheckResult(status="checked", max_rel_error=max_rel,
                           n_checked=len(picks))


def dataset_fingerprint(dataset) -> str:
    """Stable hash of a (SpikeTensor, label) sequence, for checkpoint
    sidecars."""
    h = hashlib.sha256()
    for tensor, label in dataset:
        h.update(np.int64(label).tobytes())
        h.update(np.asarray(tensor.data.shape, dtype=np.int64).tobytes())
        h.update(tensor.data.tobytes())
    return h.hexdigest()[:16]


def save_checkpoint(net: CubaNetwork, path, train_config: TrainConfig = None,
                    sidecar_extra: dict = None):
    """Write a versioned binary checkpoint plus a JSON sidecar.

    Layout: magic, version u16, layer count u8, layer sizes u32, dropout f64,
    per-layer neuron params as 3 x f64, then per-layer weights as
    little-endian f32 row-major.
    """
    path = os.fspath(path)
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<H", CHECKPOINT_VERSION)
    blob += struct.pack("<B", net.n_layers)
    for size in net.layer_sizes:
        blob += struct.pack("<I", size)
    blob += struct.pack("<d", net.dropout_p)
    for p in net.params:
        blob += struct.pack("<ddd", p.threshold, p.current_decay, p.voltage_decay)
    for w in net.weights:
        blob += np.ascontiguousarray(w, dtype="<f4").tobytes()
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(bytes(blob))
    os.replace(tmp, path)

    sidecar = {
        "format": "cuba-checkpoint",
        "version": CHECKPOINT_VERSION,
        "layer_sizes": list(net.layer_sizes),
    }
    if train_config is not None:
        sidecar["train_config"] = {
            "epochs": train_config.epochs,
            "learning_rate": train_config.learning_rate,
            "batch_size": train_config.batch_size,
            "beta1": train_config.beta1,
            "beta2": train_config.beta2,
            "eps": train_config.eps,
            "surrogate_slope": train_config.surrogate_slope,
            "soft_mode": train_config.soft_mode,
            "seed": train_config.seed,
        }
    if sidecar_extra:
        sidecar.update(sidecar_extra)
    tmp = path + ".json.tmp"
    with open(tmp, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path + ".json")


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint.

    Returns (net, sidecar dict); the sidecar is empty if its file is absent.
    Fields that parse but hold invalid values (a zero width, a non-positive
    threshold) raise ParseError, like a sidecar that is not a JSON object.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise BadMagicError(f"{path}: expected {CHECKPOINT_MAGIC!r}, got {blob[:4]!r}")
    (version,), offset = unpack_header("<H", blob, 4, path)
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(f"{path}: version {version} unsupported")
    (n_layers,), offset = unpack_header("<B", blob, offset, path)
    if n_layers == 0:
        raise ShapeError(f"{path}: checkpoint has no layers")
    sizes, offset = unpack_header(f"<{n_layers + 1}I", blob, offset, path)
    (dropout_p,), offset = unpack_header("<d", blob, offset, path)
    constants = []
    for _ in range(n_layers):
        layer_constants, offset = unpack_header("<ddd", blob, offset, path)
        constants.append(layer_constants)
    weights = []
    for i in range(n_layers):
        count = sizes[i + 1] * sizes[i]
        nbytes = count * 4
        chunk = blob[offset:offset + nbytes]
        if len(chunk) < nbytes:
            raise TruncatedPayloadError(
                f"{path}: layer {i} weights truncated ({len(chunk)} of {nbytes} bytes)"
            )
        weights.append(np.frombuffer(chunk, dtype="<f4").reshape(
            sizes[i + 1], sizes[i]).astype(np.float64))
        offset += nbytes
    try:
        net = CubaNetwork(sizes, params=[CubaParams(*c) for c in constants],
                          dropout_p=dropout_p, weights=weights)
    except ConfigError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return net, read_sidecar(path + ".json")
