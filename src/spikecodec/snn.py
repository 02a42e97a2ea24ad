"""Current-based LIF classifier with surrogate-gradient training.

The neuron keeps two state variables per step: a synaptic current that
low-pass filters incoming spikes and a membrane potential driven by that
current.  A neuron fires when the potential reaches the threshold and is
hard-reset to zero.  Every neuron of every layer has the same threshold
and decays, the module constants THRESHOLD, CURRENT_DECAY and
VOLTAGE_DECAY; a checkpoint records them, and load_checkpoint refuses one
that holds others.  Training backpropagates through time, replacing the
threshold derivative with a fast-sigmoid surrogate; a fully differentiable
soft mode (sigmoid spikes), which training never uses, lets gradient_check
compare the whole backward pass against finite differences.

The matmuls of a layer run once over the whole (T * B) block; only the
element-wise time recurrence steps through time.  That recurrence runs in a
small C kernel (_cuba.c, built on first use with the system C compiler and
loaded through ctypes) when one can be built, and in numpy otherwise; the
two give bitwise the same results, and soft mode always uses numpy.
Every (T, B, n) block lives in a _Workspace: train keeps one for all its
batches and accuracy passes, every other caller gets a fresh one per call.

The training tape is lean.  Per layer it holds only the input x and the
pre-reset potentials v: the recurrence writes the spikes, times the dropout
mask, straight into the block that becomes the next layer's input, and the
backward pass re-derives the spikes from v (v >= threshold, or the soft
sigmoid).  The current gradients of a layer overwrite its spike gradients
in place, so the backward pass needs two gradient blocks in all.  At
widths 7-256-64-3 a training step holds step_width = 973 float64s per step
and sample (49.8 MB at T = 400, B = 16).

A large op of a hidden layer runs in two fixed halves, the first on the
calling thread and the second on one helper thread; numpy's matmul and the
kernel call both release the GIL.  The forward GEMM and the input-gradient
GEMM split the rows of the (T * B) block, the dW GEMM its output columns,
and a kernel call the B * n lanes (the kernel's stride argument lets one
call cover a lane range).  A half boundary is half the size rounded up to
a multiple of 8, whatever the timing or the CPU count, and each row,
column or lane is computed by the same operations as in the whole op, so
the results are bitwise those of one call: on OpenBLAS's SkylakeX kernels
at any BLAS thread count, and on every kernel checked with one BLAS thread.
(With several, OpenBLAS's own partition of a GEMM already makes a row's
bits on its Haswell-class kernels depend on the thread count, whole or
split.)  The output layer is never split: its 64 -> 3 GEMM has no row-slice
rule that keeps its bits in every block size.  Ops below SPLIT_WORK stay on
the calling thread, which keeps batch-1 inference and the binary variants'
T = 20 steps serial.  The helper thread is made when a process that may
run on at least two CPUs (os.sched_getaffinity) first splits an op; a
forked child makes its own, and a one-CPU process makes none.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import platform
import shutil
import struct
import subprocess
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from .core import Rng, check_field_types
from .dataio import (
    atomic_write,
    expect_end,
    json_bytes,
    read_container,
    read_sidecar,
    sidecar_path,
    unpack_header,
)
from .errors import (
    ConfigError,
    DivergenceError,
    EmptyDatasetError,
    ParseError,
    ShapeError,
    TruncatedPayloadError,
)

CHECKPOINT_MAGIC = b"CUB1"
CHECKPOINT_VERSION = 1

# Target output firing rates of the loss: high for the true class, low for
# all others.
TRUE_RATE = 0.9
FALSE_RATE = 0.1
# Initial weights are normal with standard deviation INIT_GAIN / sqrt(fan_in).
INIT_GAIN = 2.0
# Checkpoints store weights as float32: a weight beyond this magnitude, or
# NaN, means training diverged, even where the loss stays finite.
WEIGHT_LIMIT = float(np.finfo(np.float32).max)
# Steepness of the surrogate (and soft-mode sigmoid) spike derivative.
SURROGATE_SLOPE = 10.0
# The one neuron model of every layer: the firing threshold and the
# per-step decay fractions of the synaptic current and membrane potential.
THRESHOLD = 1.0
CURRENT_DECAY = 0.5
VOLTAGE_DECAY = 0.3
# ADAM's moment decays and denominator guard.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _weights_in_range(weights) -> bool:
    """False when a weight is NaN or beyond WEIGHT_LIMIT in magnitude."""
    return all(-WEIGHT_LIMIT <= w.min() and w.max() <= WEIGHT_LIMIT for w in weights)


_KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_cuba.c")
# No -ffast-math or -march=native: without FMA contraction the kernel
# rounds exactly as the numpy reference does.  -O3 vectorises the AVX2
# clones _cuba.c builds on x86-64; the loader picks a clone per host.
_KERNEL_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


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
    lib.cuba_forward.argtypes = [ptr, ptr, ptr, ptr, n, n, n, real, real, real]
    lib.cuba_forward.restype = None
    lib.cuba_backward.argtypes = [ptr, ptr, ptr, ptr, n, n, n, real, real, real, real]
    lib.cuba_backward.restype = None
    return lib


_kernel = functools.cache(_load_kernel)


def _ptr(a: np.ndarray, shape) -> int:
    """Address of a float64 array laid out C-contiguously as shape, for the
    kernel."""
    if not (a.dtype == np.float64 and a.shape == tuple(shape)
            and a.flags.c_contiguous):
        raise ShapeError(f"kernel buffer {a.shape} {a.dtype} strides {a.strides} "
                         f"is not a C-contiguous float64 block of shape {tuple(shape)}")
    return a.ctypes.data


# An op of a hidden layer runs in two halves, one on the calling thread and
# one on the helper thread, when its work reaches SPLIT_WORK units: one
# unit is a multiply-add of a GEMM, and a kernel call costs KERNEL_WORK
# units per lane and step (a lane-step took the time of 8-14 multiply-adds
# on one 2 GHz Xeon thread).  The hand-off costs 20 us to 0.3 ms, the more
# the longer the helper slept, so small ops stay whole: 2^23 keeps serial
# every op of a batch-1, T = 400 pass (the largest, the 256 -> 64 GEMM, is
# 6.6e6) and of a binary training step at T = 20 and B = 16 (5.7e6 at 70
# inputs).  It may not go below 2^21: OpenBLAS's SkylakeX build gives a
# GEMM of at most 10^6 multiply-adds to small-matrix kernels that round
# differently, and the halves of a 2^21 op stay above that.
SPLIT_WORK = 1 << 23
KERNEL_WORK = 8

_helper = None  # (pid, the helper executor or None) of the process that made it


def _helper_thread():
    """The process's one helper thread, as a single-worker executor made on
    first use; None when the process may run on only one CPU.  The pid
    check makes a forked child, which has none of its parent's threads,
    make its own."""
    global _helper
    if _helper is None or _helper[0] != os.getpid():
        pool = None
        if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2:
            from concurrent.futures import ThreadPoolExecutor
            pool = ThreadPoolExecutor(1, thread_name_prefix="spikecodec-half")
        _helper = (os.getpid(), pool)
    return _helper[1]


def _in_halves(fn, size: int, work: int):
    """Run fn(lo, hi) over range(size): as one call, or, when work reaches
    SPLIT_WORK and there is a helper thread, as fn(0, mid) on the calling
    thread and fn(mid, size) on the helper, with mid half of size rounded
    up to a multiple of 8; the output layer's ops pass work 0.  The halves
    depend on size alone, never on timing or the CPU count.  Returns only
    once both halves are done; an exception from either propagates."""
    mid = (size + 15) // 16 * 8
    helper = _helper_thread() if SPLIT_WORK <= work and mid < size else None
    if helper is None:
        fn(0, size)
        return
    other = helper.submit(fn, mid, size)
    try:
        fn(0, mid)
    finally:
        other.exception()  # waits: the other half may still be writing
    other.result()


def _run_lanes(entry, blocks, split: bool, *constants):
    """Call a compiled LIF pass with the checked addresses of blocks (two
    (T, B, n) blocks and a (B, n) mask, any but the first may be None) and
    of a zeroed state, then the sizes and constants: in two halves of the
    B * n lanes (_in_halves) when split is set and the block is large."""
    t_len, b, n = blocks[0].shape
    width = b * n
    blocks = (*blocks, np.zeros((2, width)))  # held until both halves return
    shapes = (blocks[0].shape, blocks[0].shape, (b, n), (2, width))
    addresses = [None if a is None else _ptr(a, shape)
                 for a, shape in zip(blocks, shapes)]
    _in_halves(lambda lo, hi: entry(
        *(None if a is None else a + 8 * lo for a in addresses), t_len,
        hi - lo, width, *constants), width, t_len * width * KERNEL_WORK if split else 0)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        check_field_types(self, ("epochs", "batch_size", "seed"), ("learning_rate",))
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be unsigned, got {self.seed}")


class CubaNetwork:
    """Dense network of CUBA neurons, each layer feeding only the next.

    layer_sizes includes the input width, e.g. (7, 256, 64, 12).  Weights are
    drawn from a seeded normal scaled by INIT_GAIN/sqrt(fan_in) unless given.
    Every neuron follows the module constants THRESHOLD, CURRENT_DECAY and
    VOLTAGE_DECAY.
    """

    def __init__(self, layer_sizes, dropout_p: float = 0.1,
                 weights=None, seed: int = 0):
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
        if weights is None:
            rng = Rng(seed)
            weights = [
                rng.normal(size=(sizes[i + 1], sizes[i]),
                           scale=INIT_GAIN / np.sqrt(sizes[i]))
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


def _soft_spike(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-SURROGATE_SLOPE * (v - THRESHOLD)))


@dataclass(frozen=True)
class Classification:
    label: int
    rates: np.ndarray
    no_spikes: bool


def _stack_batch(tensors) -> np.ndarray:
    """The network's (B, F, T) float64 input block, the one place that
    knows its layout: each SpikeTensor's trains and channels flatten,
    train-major, to F rows.  Tensors of differing shapes, or of no
    timesteps, are a ShapeError."""
    feats = [t.data.reshape(t.n_trains * t.n_channels, t.n_timesteps)
             .astype(np.float64) for t in tensors]
    shapes = {f.shape for f in feats}
    if len(shapes) != 1:
        raise ShapeError(f"batch mixes input shapes: {sorted(shapes)}")
    if feats[0].shape[1] == 0:
        raise ShapeError("spike tensors have no timesteps")
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


def step_width(layer_sizes) -> int:
    """Float64s per step and sample of a training step's workspace: every
    layer's "x" and "v" blocks and the two gradient blocks, each as wide as
    the widest layer of its parity (_loss_and_grads)."""
    s = tuple(layer_sizes)
    return sum(s) + sum(s[1:]) + max(s[1::2], default=0) + max(s[2::2], default=0)


def _lif_forward(drive: np.ndarray, v_rec, soft: bool = False, mask=None,
                 split: bool = True):
    """LIF recurrence over a (T, B, n) block of input currents.

    Overwrites drive with the spikes, times mask (a (B, n) dropout mask) if
    one is given, and, if v_rec is given, records the pre-reset potentials
    into it.  Hard-threshold runs go to the compiled kernel when there is
    one, in two halves of the B * n lanes when split is set and the block
    is large (_in_halves); the numpy loop below is the reference it matches
    bit for bit.
    """
    au, av = 1.0 - CURRENT_DECAY, 1.0 - VOLTAGE_DECAY
    kernel = None if soft else _kernel()
    if kernel is not None:
        _run_lanes(kernel.cuba_forward, (drive, v_rec, mask), split, au, av, THRESHOLD)
        return
    u, v = np.zeros((2, *drive.shape[1:]))
    for t in range(drive.shape[0]):
        u[...] = au * u + drive[t]
        v[...] = av * v + u
        if soft:
            s = _soft_spike(v)
        else:
            s = (v >= THRESHOLD).astype(np.float64)
        if v_rec is not None:
            v_rec[t] = v
        v *= 1.0 - s
        drive[t] = s if mask is None else s * mask


def _simulate(net: CubaNetwork, x: np.ndarray, soft: bool = False,
              record: bool = False, dropout_masks=None, work: _Workspace = None):
    """Run the network over a (B, F, T) block.

    Returns (out_spikes (T, B, C), tape).  When record is set, the tape holds
    per layer the inputs "x" (the previous layer's spikes times its dropout
    mask) and the pre-reset potentials "v" needed for backpropagation, both
    in (T, B, n) layout; the spikes are v >= threshold (the soft sigmoid of
    v in soft mode) and are not kept.  Both are views into work (a fresh
    workspace if none is given): block ("x", li) is layer li's input, and
    layer li's recurrence turns its drive into block ("x", li + 1).
    """
    b, f, t_len = x.shape
    if f != net.n_inputs:
        raise ShapeError(f"input features {f} != network input width {net.n_inputs}")
    work = work or _Workspace()
    current = work.take(("x", 0), (t_len, b, f))
    np.copyto(current, x.transpose(2, 0, 1))
    tape = []
    rows = t_len * b
    for li in range(net.n_layers):
        w = net.weights[li]
        n_out, n_in = w.shape
        hidden = li < net.n_layers - 1
        drive = work.take(("x", li + 1), (t_len, b, n_out))
        x_in, d = current.reshape(rows, n_in), drive.reshape(rows, n_out)
        _in_halves(lambda lo, hi: np.matmul(x_in[lo:hi], w.T, out=d[lo:hi]),
                   rows, rows * n_in * n_out if hidden else 0)
        v_rec = work.take(("v", li), drive.shape) if record else None
        _lif_forward(drive, v_rec, soft, mask=_dropout_mask(net, dropout_masks, li),
                     split=hidden)
        if record:
            tape.append({"x": current, "v": v_rec})
        current = drive
    return current, tape


def _dropout_mask(net: CubaNetwork, dropout_masks, li: int):
    """Dropout mask of layer li's spikes; the output layer has none."""
    if dropout_masks is None or li == net.n_layers - 1:
        return None
    return dropout_masks[li]


def output_rates(net: CubaNetwork, x: np.ndarray, batch_size: int = None,
                 work: _Workspace = None) -> np.ndarray:
    """Per-class output rates (B, classes) of a stacked (B, F, T) block: the
    mean output spike count over time.  The one way a network runs outside
    training.  With batch_size, the block is simulated that many samples at
    a time, every block in one workspace."""
    step = batch_size or x.shape[0]
    work = work or _Workspace()
    return np.concatenate([
        _simulate(net, x[start:start + step], work=work)[0].mean(axis=0)
        for start in range(0, x.shape[0], step)
    ])


def classify_detailed(net: CubaNetwork, spikes_in) -> Classification:
    """Class with the highest output rate for one sample; ties break toward
    the lowest index."""
    rates = output_rates(net, _stack_batch([spikes_in]))[0]
    return Classification(label=int(np.argmax(rates)), rates=rates,
                          no_spikes=bool(rates.sum() == 0.0))


def classify_batch(net: CubaNetwork, tensors) -> np.ndarray:
    return np.argmax(output_rates(net, _stack_batch(tensors)), axis=1)


def _targets(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Target rate rows of the loss, TRUE_RATE at each label's class."""
    t = np.full((labels.shape[0], n_classes), FALSE_RATE)
    t[np.arange(labels.shape[0]), labels] = TRUE_RATE
    return t


def _loss_and_grads(net: CubaNetwork, x: np.ndarray, labels: np.ndarray,
                    soft: bool = False, dropout_masks=None, work: _Workspace = None):
    """Forward plus backpropagation through time over a (B, F, T) block.

    Returns (loss, [dW per layer]); the loss is the mean squared error of
    the output rates against _targets.  The backward pass follows the
    simulation exactly: spike derivative (surrogate in hard mode, exact sigmoid
    derivative in soft mode), the multiplicative reset, and both state
    recurrences.  The reverse recurrence yields the current gradients of a
    whole layer, from which dW and the input gradient are one matmul each.
    The tape and the gradient blocks live in work (a fresh workspace if
    none is given).  Layer li's spike gradients sit in block ("g", li % 2),
    which _lif_backward turns into its current gradients in place, and the
    input gradient goes to the other parity block, so two blocks, as wide
    as the widest layers of each parity, serve the whole pass; the output
    layer's spike gradient, the same g_rates / T at every step, is written
    into its parity block too.  The returned dW are new arrays.
    """
    b, _, t_len = x.shape
    work = work or _Workspace()
    out, tape = _simulate(net, x, soft=soft, record=True,
                          dropout_masks=dropout_masks, work=work)
    rates = out.mean(axis=0)  # (B, C)
    targets = _targets(labels, net.n_classes)
    diff = rates - targets
    loss = float(np.mean(np.square(diff)))
    g_rates = 2.0 * diff / diff.size

    grads = [None] * net.n_layers
    g = work.take(("g", (net.n_layers - 1) % 2), out.shape)
    g[...] = g_rates / t_len
    rows = t_len * b
    for li in range(net.n_layers - 1, -1, -1):
        layer = tape[li]
        w = net.weights[li]
        n_out, n_in = w.shape
        hidden = li < net.n_layers - 1
        macs = rows * n_in * n_out if hidden else 0
        _lif_backward(layer["v"], g, _dropout_mask(net, dropout_masks, li), soft,
                      split=hidden)
        g_u = g.reshape(rows, n_out)
        x_in = layer["x"].reshape(rows, n_in)
        # OpenBLAS gives bitwise the same dW either way; the transposed form
        # is faster for an input narrower than the layer (2.1 against 6.3 ms
        # at 6400 x 7 -> 256 on one thread) and slower otherwise (10.2
        # against 7.5 ms at 6400 x 256 -> 64)
        left, right = (x_in.T, g_u) if n_in < n_out else (g_u.T, x_in)
        dw = np.empty((left.shape[0], right.shape[1]))
        _in_halves(lambda lo, hi: np.matmul(left, right[:, lo:hi], out=dw[:, lo:hi]),
                   right.shape[1], macs)
        grads[li] = dw.T if n_in < n_out else dw
        if li > 0:  # the network input's gradient is never read
            g = work.take(("g", (li - 1) % 2), (t_len, b, n_in))
            g_in = g.reshape(rows, n_in)
            _in_halves(lambda lo, hi: np.matmul(g_u[lo:hi], w, out=g_in[lo:hi]),
                       rows, macs)
    return loss, grads


def _lif_backward(v_seq, g, mask, soft: bool, split: bool = True):
    """Reverse LIF recurrence over a (T, B, n) block, in place: g holds the
    spike gradients (times the dropout mask, if any) on entry and the
    synaptic-current gradients on return.  The spikes are re-derived from
    the pre-reset potentials v_seq as _lif_forward made them.  Dispatched,
    and split, like _lif_forward."""
    au, av = 1.0 - CURRENT_DECAY, 1.0 - VOLTAGE_DECAY
    kernel = None if soft else _kernel()
    if kernel is not None:
        _run_lanes(kernel.cuba_backward, (v_seq, g, mask), split, au, av, THRESHOLD,
                   SURROGATE_SLOPE)
        return
    cu, cvp = np.zeros((2, *g.shape[1:]))
    for t in range(g.shape[0] - 1, -1, -1):
        v = v_seq[t]
        if soft:
            s = _soft_spike(v)
            sd = SURROGATE_SLOPE * s * (1.0 - s)
        else:
            s = (v >= THRESHOLD).astype(np.float64)
            # fast-sigmoid surrogate for the threshold derivative
            sd = 1.0 / np.square(1.0 + SURROGATE_SLOPE * np.abs(v - THRESHOLD))
        g_s = g[t] if mask is None else g[t] * mask
        g_v = sd * (g_s - v * cvp) + (1.0 - s) * cvp
        g[t] = g_v + au * cu
        cu[...] = g[t]
        cvp[...] = av * g_v


class _Adam:
    def __init__(self, shapes, learning_rate: float):
        self.learning_rate = learning_rate
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def step(self, weights, grads):
        self.t += 1
        b1_corr = 1.0 - ADAM_BETA1 ** self.t
        b2_corr = 1.0 - ADAM_BETA2 ** self.t
        for i, g in enumerate(grads):
            self.m[i] = ADAM_BETA1 * self.m[i] + (1.0 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1.0 - ADAM_BETA2) * np.square(g)
            m_hat = self.m[i] / b1_corr
            v_hat = self.v[i] / b2_corr
            weights[i] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass(frozen=True)
class EpochStats:
    """One epoch of training: mean batch loss and the accuracies after it.
    train_accuracy is None when train ran with track_train_accuracy off;
    such a run also lists no epoch after its first perfect one (see train)."""

    epoch: int
    loss: float
    train_accuracy: float | None
    test_accuracy: float


@dataclass
class TrainResult:
    """The network with its best epoch's weights restored, and one
    EpochStats per epoch that ran: cfg.epochs of them, or fewer when
    track_train_accuracy was off and an epoch reached test accuracy 1.0."""

    net: CubaNetwork
    history: list
    best_epoch: int
    best_test_accuracy: float


def _accuracy(net: CubaNetwork, x: np.ndarray, labels: np.ndarray,
              batch_size: int, work: _Workspace) -> float:
    pred = np.argmax(output_rates(net, x, batch_size=batch_size, work=work), axis=1)
    return float(np.mean(pred == labels))


def train(net: CubaNetwork, dataset, cfg: TrainConfig,
          test_set=None, track_train_accuracy: bool = True) -> TrainResult:
    """Surrogate-gradient training with ADAM; deterministic given seed.

    dataset (and test_set, if given) are sequences of (SpikeTensor, label)
    pairs sharing one tensor shape.  Accuracy is tracked every epoch and the
    weights of the first best test-accuracy epoch are restored at the end.
    Without a test_set the training set doubles as the tracking set, and
    one pass per epoch fills both accuracies.  With track_train_accuracy
    off, no training-split pass runs and every EpochStats.train_accuracy is
    None; the accuracy passes draw no random numbers, so weights, losses
    and test accuracies are the same either way.  Tracking off also stops
    training after the first epoch at test accuracy 1.0: no later epoch can
    beat it, so the restored weights, best_epoch and best_test_accuracy are
    already those of the full run, and history ends at that epoch.  One
    workspace serves every batch and accuracy pass of the call and is
    released when it returns.
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
    adam = _Adam([w.shape for w in net.weights], cfg.learning_rate)
    history = []
    best_acc = -1.0
    best_epoch = -1
    best_weights = [w.copy() for w in net.weights]
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
            loss, grads = _loss_and_grads(net, xb, yb, dropout_masks=masks,
                                          work=work)
            if not np.isfinite(loss):
                raise DivergenceError(f"loss became non-finite at epoch {epoch}")
            adam.step(net.weights, grads)
            if not _weights_in_range(net.weights):
                raise DivergenceError(f"a weight left the finite float32 range "
                                      f"at epoch {epoch}")
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
            best_weights = [w.copy() for w in net.weights]
        if best_acc == 1.0 and not track_train_accuracy:
            break
    net.weights = best_weights
    return TrainResult(net=net, history=history, best_epoch=best_epoch,
                       best_test_accuracy=best_acc)


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    n_checked: int


def gradient_check(net: CubaNetwork, sample, seed: int = 0,
                   n_weights: int = 120) -> GradCheckResult:
    """Compare analytic gradients against central finite differences of
    step 1e-5 at n_weights weights picked from a seed's stream.

    Runs in soft mode, where the simulation is differentiable.  Dropout is
    disabled for the comparison.
    """
    tensor, label = sample
    x = _stack_batch([tensor])
    labels = np.asarray([label], dtype=np.int64)

    def loss_only():
        rates = _simulate(net, x, soft=True)[0].mean(axis=0)
        return float(np.mean(np.square(rates - _targets(labels, net.n_classes))))

    _, grads = _loss_and_grads(net, x, labels, soft=True)
    rng = Rng(seed)
    sizes = np.array([w.size for w in net.weights])
    total = int(sizes.sum())
    picks = np.sort(rng.integers(0, total, size=min(n_weights, total)))
    bounds = np.cumsum(sizes)
    max_rel = 0.0
    step = 1e-5
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
    return GradCheckResult(max_rel_error=max_rel, n_checked=len(picks))


def dataset_fingerprint(dataset) -> str:
    """Stable hash of a (SpikeTensor, label) sequence, for checkpoint
    sidecars."""
    h = hashlib.sha256()
    for tensor, label in dataset:
        h.update(np.int64(label).tobytes())
        h.update(np.asarray(tensor.data.shape, dtype=np.int64).tobytes())
        h.update(tensor.data.tobytes())
    return h.hexdigest()[:16]


def _header_layout(n_layers: int) -> str:
    """struct format of the CUB1 header after the magic, version and layer
    count: the layer sizes, the dropout probability and three neuron
    constants per layer."""
    return f"{n_layers + 1}Id{3 * n_layers}d"


def _neuron_constants() -> dict:
    """The neuron constants by their CUB1 field names, in file order."""
    return {"threshold": THRESHOLD, "current_decay": CURRENT_DECAY,
            "voltage_decay": VOLTAGE_DECAY}


def save_checkpoint(net: CubaNetwork, path, train_config: TrainConfig = None,
                    sidecar_extra: dict = None):
    """Write a versioned binary checkpoint and its JSON sidecar as one group.

    Layout: magic, version u16, layer count u8, layer sizes u32, dropout f64,
    per layer the neuron constants THRESHOLD, CURRENT_DECAY and VOLTAGE_DECAY
    as 3 x f64, then per-layer weights as little-endian f32 row-major.  A NaN
    weight, or one beyond WEIGHT_LIMIT, raises DivergenceError before
    anything is written.
    """
    path = os.fspath(path)
    if not _weights_in_range(net.weights):
        raise DivergenceError(f"{path}: a weight is NaN or outside the float32 "
                              "range; nothing written")
    n = net.n_layers
    header = struct.pack(
        "<4sHB" + _header_layout(n), CHECKPOINT_MAGIC, CHECKPOINT_VERSION, n,
        *net.layer_sizes, net.dropout_p,
        *(list(_neuron_constants().values()) * n))
    sidecar = {
        "format": "cuba-checkpoint",
        "version": CHECKPOINT_VERSION,
        "layer_sizes": list(net.layer_sizes),
    }
    if train_config is not None:
        # with the constants, so the sidecar records every value training used
        sidecar["train_config"] = {
            **asdict(train_config), "soft_mode": False, "beta1": ADAM_BETA1,
            "beta2": ADAM_BETA2, "eps": ADAM_EPS, "surrogate_slope": SURROGATE_SLOPE}
    if sidecar_extra:
        sidecar.update(sidecar_extra)
    weights = b"".join(np.ascontiguousarray(w, dtype="<f4").tobytes()
                       for w in net.weights)
    atomic_write([(path, header + weights),
                  (sidecar_path(path, checkpoint=True), json_bytes(sidecar))])


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint.

    Returns (net, sidecar dict); the sidecar is empty if its file is absent.
    Fields that parse but hold invalid values (a zero width, a neuron
    constant other than this module's, a weight that is not finite) raise
    ParseError, like bytes after the last weight and a sidecar that is not
    a JSON object.
    """
    path = os.fspath(path)
    blob, n_layers, offset = read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    if n_layers == 0:
        raise ShapeError(f"{path}: checkpoint has no layers")
    fields, offset = unpack_header("<" + _header_layout(n_layers), blob, offset, path)
    sizes, dropout_p = fields[:n_layers + 1], fields[n_layers + 1]
    stored = fields[n_layers + 2:]
    for i in range(n_layers):
        for (name, fixed), value in zip(_neuron_constants().items(), stored[3 * i:]):
            if value != fixed:
                raise ParseError(f"{path}: layer {i} {name} is {value}, but the "
                                 f"network's is fixed at {fixed}")
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
        net = CubaNetwork(sizes, dropout_p=dropout_p, weights=weights)
    except ConfigError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    expect_end(blob, offset, path)
    if not _weights_in_range(net.weights):
        raise ParseError(f"{path}: a stored weight is not finite")
    return net, read_sidecar(sidecar_path(path, checkpoint=True))
