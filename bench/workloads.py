"""The three workloads: the evaluation matrix, spike-file inference and the
codec pipeline.

Every workload has the same shape: ``setup()`` builds its inputs from the
seed and warms the code up (the runner repeats it and reports the median),
``run_round(latencies)`` is one timed round that appends one latency per
window, and ``check_round()`` checks that round's outputs against the
references in ``refs`` and returns (attempted, failed, problems).  Package
functions are always looked up through their module at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from time import perf_counter as _now

import numpy as np

import refs
from spikecodec import cli, core, dataio, encoders, evaluation, metrics, snn

VARIANTS = evaluation.VARIANT_NAMES


def variant_name(config):
    """Variant a config encodes, e.g. "binary10" or "rate-beta"."""
    if config.scheme is core.Scheme.BINARY:
        return f"binary{config.n_bits}"
    return config.scheme.value


def family(variant):
    """Encoding family of a variant: rate, ttfs, binary or delta."""
    return variant.split("-")[0].rstrip("0123456789")


def _split(dataset):
    """(train, test), holding out the first user as ``spikecodec`` does."""
    return dataset.split_leave_one_user_out(sorted(set(dataset.users))[0])


class Matrix:
    """``spikecodec evaluate`` in-process: all eight variants through
    encode, SNR, training and a noise sweep over several seeds, on the
    synthetic 3 x 60 set of 1 s windows at 20 steps per sample."""

    name = "matrix"
    CLASSES, PER_CLASS, SECONDS, STEPS = 3, 60, 1.0, 20
    EPOCHS, NOISE_SEEDS = 5, 2
    RATE_HZ, CHANNELS, DELTA_LEVELS, INTERP = 20.0, 7, 5, 5

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.out = os.path.join(work, "report")
        self.windows_per_round = len(VARIANTS) * self.CLASSES * self.PER_CLASS
        self.variant_seconds = []
        self._schema = None
        self._snr_bounds = None
        self._n_test = None
        self._first_report = None
        original = cli.evaluate_scheme

        def timed(*args, **kwargs):
            start = _now()
            try:
                return original(*args, **kwargs)
            finally:
                self.variant_seconds.append(_now() - start)
        cli.evaluate_scheme = timed

    def _argv(self, per_class, epochs, noise_seeds, out):
        s = str(self.seed)
        return ["evaluate", "synth", "--classes", str(self.CLASSES),
                "--samples-per-class", str(per_class),
                "--duration", str(self.SECONDS), "--steps", str(self.STEPS),
                "--epochs", str(epochs), "--lr", "2e-3", "--batch", "16",
                "--noise-seeds", str(noise_seeds), "--synth-seed", s,
                "--seed", s, "--train-seed", s, "--out", out]

    def _evaluate(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"spikecodec evaluate exited with {code}")

    def setup(self):
        # A miniature matrix (one window per class held out, one epoch)
        # touches every variant's code path before timing starts.
        self._evaluate(self._argv(4, 1, 1, os.path.join(self.work, "warmup")))
        self.variant_seconds.clear()

    def run_round(self, latencies):
        start = len(self.variant_seconds)
        self._evaluate(self._argv(self.PER_CLASS, self.EPOCHS, self.NOISE_SEEDS,
                                  self.out))
        per_window = self.CLASSES * self.PER_CLASS
        latencies.extend(s / per_window for s in self.variant_seconds[start:])

    def _expected_shape(self, variant):
        samples = int(round(self.RATE_HZ * self.SECONDS))
        if variant.startswith("binary"):
            return [int(variant[len("binary"):]), self.CHANNELS, samples]
        if variant == "delta-mod":
            return [self.DELTA_LEVELS, self.CHANNELS, (samples - 1) * self.INTERP]
        return [1, self.CHANNELS, samples * self.STEPS]

    def _references(self):
        import jsonschema  # a test dependency of the package

        root = os.path.dirname(os.path.abspath(evaluation.__file__))
        with open(os.path.join(root, "schemas", "report.schema.json")) as fh:
            self._schema = json.load(fh)
        self._jsonschema = jsonschema
        _, test = _split(dataio.synth_dataset(
            self.CLASSES, self.PER_CLASS, seed=self.seed, seconds=self.SECONDS))
        self._n_test = len(test)
        # |error| <= 2^-N per sample bounds each window's SNR from below.
        self._snr_bounds = {
            bits: float(np.mean([
                10.0 * math.log10(float(np.mean(sig.data ** 2)) / 4.0 ** -bits)
                for sig, _ in test]))
            for bits in (6, 10)
        }

    def check_round(self):
        if self._schema is None:
            self._references()
        problems = []
        failed = 0
        with open(os.path.join(self.out, "report.json")) as fh:
            text = fh.read()
        report = json.loads(text)
        try:
            self._jsonschema.validate(report, self._schema)
        except self._jsonschema.ValidationError as exc:
            problems.append(f"report.json fails its schema: {exc}")
            return len(VARIANTS), 0, problems
        if self._first_report is None:
            self._first_report = text
        elif text != self._first_report:
            problems.append("report.json differs between identical passes")
        rows = {r["scheme"]: r for r in report["rows"]}
        if sorted(rows) != sorted(VARIANTS):
            problems.append(f"report rows {sorted(rows)}")
            return len(VARIANTS), 0, problems
        # Accuracy is k / n_test.  A variant may still predict one class for
        # every window after a few epochs (rate-uniform did for 6 epochs on
        # seed 210), which is exactly chance; below chance, or a matrix whose
        # mean is not above chance, means the pipeline is broken.
        hits = 0
        for variant, row in rows.items():
            if row["tensor_shape"] != self._expected_shape(variant):
                problems.append(f"{variant}: shape {row['tensor_shape']}")
            acc = row["accuracy"]
            k = acc * self._n_test
            if abs(k - round(k)) > 1e-9:
                problems.append(f"{variant}: accuracy {acc!r} is not k/{self._n_test}")
            if round(k) * self.CLASSES < self._n_test:
                problems.append(f"{variant}: accuracy {acc} below chance")
            hits += round(k)
            for p, drop in row["drops"].items():
                if not 0.0 <= acc - drop <= 1.0:
                    problems.append(f"{variant}: accuracy - drop@{p} = {acc - drop}")
            if variant.startswith("binary"):
                bound = self._snr_bounds[int(variant[len("binary"):])]
                if row["snr_db"] is None or not row["snr_db"] >= bound:
                    problems.append(f"{variant}: SNR {row['snr_db']} below the "
                                    f"quantization bound {bound:.3f} dB")
        if hits * self.CLASSES <= self._n_test * len(rows):
            problems.append(f"mean accuracy {hits / (self._n_test * len(rows))} "
                            "not above chance")
        # A fault of the package, not of this check: the report averages
        # per-window AFRs in floating point, so 45 windows of exactly 1/20
        # read 4.999999999999998 %.  The row counts as a failed operation.
        if rows["ttfs-linear"]["afr_pct"] != 100.0 / self.STEPS:
            failed += 1
        return len(VARIANTS), failed, problems


class Infer:
    """What ``spikecodec infer`` does, one caller in a closed loop: read one
    SPK1 window, classify it with a network reloaded from a CUB1
    checkpoint, repeat.  Every window is ttfs-linear at T = 400 steps."""

    name = "infer"
    CLASSES, PER_CLASS, SECONDS, STEPS, VARIANT = 3, 20, 1.0, 20, "ttfs-linear"

    def __init__(self, seed, work):
        self.seed = seed
        self.ckpt = os.path.join(work, "model.cuba")
        self.windows_per_round = self.CLASSES * self.PER_CLASS
        self.paths = [os.path.join(work, f"w{i:05d}.spk")
                      for i in range(self.windows_per_round)]
        self._outputs = []
        self._expected = None

    def setup(self):
        ds = dataio.synth_dataset(self.CLASSES, self.PER_CLASS, seed=self.seed,
                                  seconds=self.SECONDS)
        config = evaluation.variant_config(self.VARIANT, steps_per_sample=self.STEPS,
                                           seed=self.seed)
        train_ds, _ = _split(ds)
        net = snn.CubaNetwork((7, 256, 64, self.CLASSES), dropout_p=0.1,
                              seed=self.seed)
        train_cfg = snn.TrainConfig(epochs=1, learning_rate=2e-3, batch_size=16,
                                    seed=self.seed)
        result = snn.train(net, evaluation.encode_dataset(train_ds, config), train_cfg)
        snn.save_checkpoint(result.net, self.ckpt, train_config=train_cfg)
        self.net, _ = snn.load_checkpoint(self.ckpt)
        self.tensors = []
        for path, (tensor, label) in zip(self.paths,
                                         evaluation.encode_dataset(ds, config)):
            dataio.write_spikes(tensor, {"encoding": config, "label": label}, path)
            self.tensors.append(tensor)
        for path in self.paths[:4]:
            snn.classify_detailed(self.net, dataio.read_spikes(path)[0])

    def run_round(self, latencies):
        outputs = self._outputs = []
        for path in self.paths:
            start = _now()
            tensor, _ = dataio.read_spikes(path)
            result = snn.classify_detailed(self.net, tensor)
            latencies.append(_now() - start)
            outputs.append((tensor, result))

    def check_round(self):
        if self._expected is None:
            _, params, weights = refs.parse_cub1(self.ckpt)
            self._expected = [
                refs.cuba_rates(params, weights,
                                t.data.reshape(-1, t.n_timesteps))
                for t in self.tensors]
        problems = []
        for i, ((tensor, result), written, rates) in enumerate(
                zip(self._outputs, self.tensors, self._expected)):
            if not (np.array_equal(tensor.data, written.data)
                    and tensor.time_step_ms == written.time_step_ms
                    and tensor.window_steps == written.window_steps):
                problems.append(f"window {i}: read back differs from the written tensor")
            if not np.array_equal(result.rates, rates):
                problems.append(f"window {i}: rates {result.rates} != reference {rates}")
            if result.label != int(np.argmax(rates)) or \
                    result.no_spikes != bool(rates.sum() == 0.0):
                problems.append(f"window {i}: class {result.label} != reference "
                                f"{int(np.argmax(rates))}")
        return len(self._outputs), 0, problems


class Codec:
    """Every window of the synthetic 3 x 20 set of 2 s windows, at 50 steps
    per sample, through all eight variants: encode, decode, snr_db, afr and
    inject_noise at p = 0.1.  No network.  After each round's windows, one
    window's eight tensors go through write_spikes."""

    name = "codec"
    CLASSES, PER_CLASS, STEPS, NOISE_P = 3, 20, 50, 0.1

    def __init__(self, seed, work):
        self.seed = seed
        self.windows_per_round = self.CLASSES * self.PER_CLASS
        self.paths = [os.path.join(work, f"{v}.spk") for v in VARIANTS]
        self._outputs = []
        self._refs = None
        self._round = 0

    def setup(self):
        ds = dataio.synth_dataset(self.CLASSES, self.PER_CLASS, seed=self.seed)
        self.windows = list(ds)
        self.configs = [evaluation.variant_config(v, steps_per_sample=self.STEPS,
                                                  seed=self.seed) for v in VARIANTS]
        self.modes = [metrics.noise_mode_for(c.scheme) for c in self.configs]
        n = len(self.windows)
        self.encode_seeds = [core.derive_seed(self.seed, w) for w in range(n)]
        self.noise_seeds = [[core.derive_seed(self.seed, w, v + 1)
                             for v in range(len(VARIANTS))] for w in range(n)]
        self._write(0, self._window(0))
        self._window(1)
        self._remove_files()

    def _window(self, w):
        sig, _ = self.windows[w]
        out = []
        for v, config in enumerate(self.configs):
            tensor = encoders.encode(sig, config, core.Rng(self.encode_seeds[w]))
            recon = evaluation.reconstruct(tensor, config, sig)
            snr = metrics.snr_db(sig, recon)
            rate = metrics.afr(tensor)
            noisy = metrics.inject_noise(tensor, metrics.NoiseSpec(
                self.NOISE_P, seed=self.noise_seeds[w][v], mode=self.modes[v]))
            out.append((tensor, recon, snr, rate, noisy))
        return out

    def _write(self, w, outputs):
        label = int(self.windows[w][1])
        for path, config, (tensor, *_) in zip(self.paths, self.configs, outputs):
            dataio.write_spikes(tensor, {"encoding": config, "label": label}, path)

    def _remove_files(self):
        for path in self.paths:
            os.remove(path)
            os.remove(os.path.splitext(path)[0] + ".json")

    def run_round(self, latencies):
        outputs = self._outputs = []
        for w in range(len(self.windows)):
            start = _now()
            result = self._window(w)
            latencies.append(_now() - start)
            outputs.append(result)
        # File creation costs 15 us to 600 us on one disk depending on where
        # the directory sits, so writes stay off the per-window clock.
        self._write(self._round % len(self.windows),
                    outputs[self._round % len(self.windows)])

    def _references(self):
        self._refs = {"ttfs-linear": [], "binary6": [], "binary10": []}
        self._rate_moments = {v: [0.0, 0.0] for v in VARIANTS if v.startswith("rate")}
        for sig, _ in self.windows:
            self._refs["ttfs-linear"].append(refs.ttfs_linear(sig.data, self.STEPS))
            for bits in (6, 10):
                self._refs[f"binary{bits}"].append(refs.binary_fraction(sig.data, bits))
            for v, moments in self._rate_moments.items():
                config = self.configs[VARIANTS.index(v)]
                for p in (refs.rate_probability(float(x), v, config.normal_mu,
                                                config.normal_var, config.beta_shape)
                          for x in sig.data.ravel()):
                    moments[0] += self.STEPS * p
                    moments[1] += self.STEPS * p * (1.0 - p)

    def check_round(self):
        if self._refs is None:
            self._references()
        problems = []
        sample = self._round % len(self.windows)
        self._round += 1
        p = self.NOISE_P
        for v, variant in enumerate(VARIANTS):
            spikes = changed = positions = 0
            for w, (sig, _) in enumerate(self.windows):
                tensor, recon, snr, rate, noisy = self._outputs[w][v]
                data = tensor.data
                if variant in self._refs and not np.array_equal(
                        data, self._refs[variant][w]):
                    problems.append(f"{variant} window {w}: tensor != reference encoder")
                if variant.startswith("binary"):
                    bits = int(variant[len("binary"):])
                    err = float(np.max(np.abs(sig.data - recon.data)))
                    if err > 2.0 ** -bits:
                        problems.append(f"{variant} window {w}: decode error {err}")
                if variant == "delta-mod" and refs.mixed_sign_steps(data):
                    problems.append(f"delta-mod window {w}: mixed signs within a step")
                count = int(np.count_nonzero(data))
                if rate != count / data.size:
                    problems.append(f"{variant} window {w}: afr {rate} != {count}/{data.size}")
                if variant == "ttfs-linear" and rate != 1.0 / self.STEPS:
                    problems.append(f"ttfs-linear window {w}: afr {rate} != 1/{self.STEPS}")
                spikes += count
                diff = noisy.data != data
                changed += int(np.count_nonzero(diff))
                positions += data.size
                if self.modes[v] is metrics.NoiseMode.FLIP_BINARY:
                    bad = noisy.data[diff] != (data[diff] == 0)
                else:
                    bad = np.where(data[diff] == 0, np.abs(noisy.data[diff]) != 1,
                                   noisy.data[diff] != 0)
                if bad.any():
                    problems.append(f"{variant} window {w}: noise wrote a wrong value")
            if variant in self._rate_moments:
                mean, var = self._rate_moments[variant]
                if not refs.binomial_ok(spikes, mean, var):
                    problems.append(f"{variant}: {spikes} spikes, expected {mean:.1f}")
            if not refs.binomial_ok(changed, positions * p, positions * p * (1 - p)):
                problems.append(f"{variant}: {changed} of {positions} positions "
                                f"changed at p={p}")
            # Per round, one window's files and a p = 0 draw are checked too.
            tensor = self._outputs[sample][v][0]
            quiet = metrics.inject_noise(tensor, metrics.NoiseSpec(
                0.0, seed=self.noise_seeds[sample][v], mode=self.modes[v]))
            if not np.array_equal(quiet.data, tensor.data):
                problems.append(f"{variant}: p = 0 noise changed the tensor")
            dims, step_ms, payload = refs.parse_spk1(self.paths[v])
            if (tuple(dims) != tensor.shape or step_ms != tensor.time_step_ms
                    or payload != tensor.data.tobytes()):
                problems.append(f"{variant}: window {sample} does not read back")
        self._remove_files()
        return len(self.windows) * len(VARIANTS), 0, problems


WORKLOADS = {w.name: w for w in (Matrix, Infer, Codec)}
