"""Command line interface: encode, evaluate, train, infer, perturb.

Exit codes: 0 success, 2 usage or configuration error, 3 data error (a bad
signal value, shape or file, or a path that cannot be read or written), 4
numeric divergence during training.  Every command that takes --seed is
bitwise reproducible, and report files always carry the resolved
configuration plus the package version (git describe when available).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace

from . import __version__
from .core import EncodingConfig, derive_seed
from .dataio import (
    NormStats,
    WindowedDataset,
    atomic_write,
    json_bytes,
    load_csv,
    normalize,
    read_spikes,
    sidecar_path,
    spike_files,
    synth_dataset,
    window,
    write_spikes,
)
from .encoders import encode
from .errors import (
    ConfigError,
    DivergenceError,
    EmptyDatasetError,
    ParseError,
    SpikeCodecError,
)
from .evaluation import (
    DEFAULT_P_LIST,
    VARIANT_NAMES,
    VARIANTS,
    check_training_size,
    encode_dataset,
    evaluate_scheme,
    fit_variant,
    mean_afr,
    variant_config,
)
from .metrics import NoiseMode, NoiseSpec, inject_noise, noise_mode_for
from .snn import (
    TrainConfig,
    classify_detailed,
    dataset_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
# train is no longer called here but stays bound: bench/run.py times it at
# this binding too
from .snn import train  # noqa: F401

SCHEME_CHOICES = tuple(VARIANTS)


def version_string() -> str:
    """git describe of the working tree when available, package version
    otherwise."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return f"spikecodec-{__version__}"


class _VersionAction(argparse.Action):
    """--version: print version_string() and exit; git runs only when the
    flag is given, not each time a parser is built."""

    def __init__(self, option_strings, dest,
                 help="show program's version number and exit"):
        super().__init__(option_strings, dest, nargs=0, help=help,
                         default=argparse.SUPPRESS)

    def __call__(self, parser, namespace, values, option_string=None):
        print(version_string())
        parser.exit()


def _parse_thresholds(text):
    if not text:
        return None
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --thresholds value {text!r}") from exc


def _out_dir(text: str) -> str:
    """--out: refuse the empty path, which would mean the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("needs a directory path")
    return text


def _load_dataset(args, split: bool = False) -> WindowedDataset:
    """Windows from a CSV path, or a synthetic set when INPUT is "synth".

    A CSV's min-max statistics are fitted on every user (encode) or, with
    split, on every user but the held-out one, whose values are clamped.  A
    CSV without a single window is an EmptyDatasetError.
    """
    if args.input == "synth":
        if args.stride is not None:
            raise ConfigError("--stride applies to CSV input")
        return synth_dataset(  # never empty: it rejects zero classes or samples
            n_classes=args.classes,
            samples_per_class=args.samples_per_class,
            seed=args.synth_seed,
            sample_rate_hz=args.sample_rate,
            seconds=args.duration,
            n_users=args.users,
        )
    records = load_csv(args.input)

    def cut(recs):
        return window(recs, args.sample_rate, seconds=args.duration,
                      stride_seconds=args.stride)

    stats = None
    if split and records:  # raw windows: only their users are read
        held = _holdout_user(cut(records), args.holdout_user)
        stats = NormStats.fit([r for r in records if r.user != held] or records)
    records, _ = normalize(records, stats)
    dataset = cut(records)
    if len(dataset) == 0:
        raise EmptyDatasetError(f"no {args.duration:g}s window in {args.input}")
    return dataset


def _training_inputs(args):
    """(train split, test split, TrainConfig) of train and evaluate: the
    dataset split at --holdout-user, and the training options."""
    dataset = _load_dataset(args, split=True)
    train_ds, test_ds = dataset.split_leave_one_user_out(
        _holdout_user(dataset, args.holdout_user))
    train_cfg = TrainConfig(epochs=args.epochs, learning_rate=args.lr,
                            batch_size=args.batch, seed=args.train_seed)
    return train_ds, test_ds, train_cfg


def _dataset_args(sub):
    sub.add_argument("input", help='CSV path, or "synth" for a synthetic dataset')
    sub.add_argument("--duration", type=float, default=2.0,
                     help="window length in seconds (default 2)")
    sub.add_argument("--stride", type=float, default=None,
                     help="window stride in seconds (default: no overlap)")
    sub.add_argument("--sample-rate", type=float, default=20.0,
                     help="sample rate in Hz (default 20)")
    sub.add_argument("--classes", type=int, default=3,
                     help="synthetic: number of classes (default 3)")
    sub.add_argument("--samples-per-class", type=int, default=20,
                     help="synthetic: windows per class (default 20)")
    sub.add_argument("--users", type=int, default=4,
                     help="synthetic: user cohorts (default 4)")
    sub.add_argument("--synth-seed", type=int, default=42,
                     help="synthetic: generator seed (default 42)")


def _scheme_args(sub, single=True):
    if single:
        sub.add_argument("--scheme", required=True, choices=SCHEME_CHOICES,
                         help="encoding variant")
    sub.add_argument("--steps", type=int, default=50,
                     help="spike positions per sample for rate/TTFS (default 50)")
    sub.add_argument("--bits", type=int, default=6,
                     help='bit depth for the plain "binary" scheme (default 6)')
    sub.add_argument("--interp", type=int, default=5,
                     help="delta modulation up-sampling factor (default 5)")
    sub.add_argument("--thresholds", type=str, default=None,
                     help="comma-separated delta thresholds, one bank for all channels")
    sub.add_argument("--seed", type=int, default=0, help="encoding seed (default 0)")


def _train_args(sub):
    sub.add_argument("--epochs", type=int, default=100)
    sub.add_argument("--lr", type=float, default=1e-3)
    sub.add_argument("--batch", type=int, default=32)
    sub.add_argument("--train-seed", type=int, default=0)
    sub.add_argument("--holdout-user", type=str, default=None,
                     help="user held out as the test split (default: first user)")


def _config_from_args(args, name: str) -> EncodingConfig:
    return variant_config(name, steps_per_sample=args.steps,
                          n_bits=args.bits, interp_factor=args.interp,
                          thresholds=_parse_thresholds(args.thresholds),
                          seed=args.seed)


def _holdout_user(dataset: WindowedDataset, holdout_user):
    """holdout_user, or the dataset's first user when it is None."""
    return min(dataset.users, default=None) if holdout_user is None else holdout_user


def cmd_encode(args) -> int:
    dataset = _load_dataset(args)
    config = _config_from_args(args, args.scheme)
    encoded = encode_dataset(dataset, config)
    for i, ((tensor, label), user) in enumerate(zip(encoded, dataset.users)):
        metadata = {
            "encoding": config,
            "label": int(label),
            "label_name": dataset.label_names[label],
            "user": user,
            "window_index": i,
        }
        write_spikes(tensor, metadata, os.path.join(args.out, f"w{i:05d}.spk"))
    print(f"scheme={args.scheme} windows={len(encoded)} "
          f"AFR={100.0 * mean_afr(encoded):.3f}%")
    return 0


def cmd_evaluate(args) -> int:
    names = [n.strip() for n in args.schemes.split(",") if n.strip()]
    if not names:
        raise ConfigError(f"--schemes {args.schemes!r} names no scheme")
    repeated = sorted(name for name, count in Counter(names).items() if count > 1)
    if repeated:
        raise ConfigError(f"--schemes names {', '.join(repeated)} more than once")
    train_ds, test_ds, train_cfg = _training_inputs(args)
    configs = [_config_from_args(args, name) for name in names]
    for config in configs:  # before the first row trains
        check_training_size(config, train_ds, test_ds, train_cfg.batch_size)
        if len(train_ds):  # the encoder's own window rules
            encode(train_ds.signals[0], config)
    rows = []
    for name, config in zip(names, configs):
        row = evaluate_scheme(name, config, train_ds, test_ds, train_cfg,
                              noise_seeds=args.noise_seeds,
                              noise_seed_base=args.seed)
        rows.append(row)
        drops = " ".join(f"{p}:{d:+.3f}" for p, d in row.drops.items())
        print(f"{name:13s} shape={row.tensor_shape} step={row.time_step_ms:g}ms "
              f"AFR={row.afr_pct:.3f}% SNR={row.snr_db:.2f}dB "
              f"acc={row.accuracy:.3f} drops[{drops}]")

    version = version_string()
    reports = []  # written as one group: both files or neither
    if args.report in ("json", "both"):
        report = {
            "version": version,
            "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
            "rows": [r.to_dict() for r in rows],
        }
        reports.append((os.path.join(args.out, "report.json"), json_bytes(report)))
    if args.report in ("csv", "both"):
        header = ["scheme", "tensor_shape", "time_step_ms", "afr_pct", "snr_db",
                  "accuracy"]
        header += [f"drop_{p:g}" for p in DEFAULT_P_LIST]
        header += ["dynamic_energy", "execution_time", "version"]
        lines = [",".join(header)]
        for r in rows:
            cells = [
                r.scheme,
                "x".join(str(d) for d in r.tensor_shape),
                f"{r.time_step_ms:g}",
                f"{r.afr_pct:.6f}",
                f"{r.snr_db:.6f}",
                f"{r.accuracy:.6f}",
            ]
            cells += [f"{r.drops[p]:.6f}" for p in DEFAULT_P_LIST]
            cells += [r.dynamic_energy, r.execution_time, version]
            lines.append(",".join(cells))
        reports.append((os.path.join(args.out, "report.csv"),
                        ("\n".join(lines) + "\n").encode()))
    atomic_write(reports)
    return 0


def cmd_train(args) -> int:
    train_ds, test_ds, train_cfg = _training_inputs(args)
    config = _config_from_args(args, args.scheme)
    encoded_train, _, result = fit_variant(config, train_ds, test_ds, train_cfg,
                                           args.train_seed, track_train_accuracy=True)

    ckpt = os.path.join(args.out, "checkpoint.cuba")
    save_checkpoint(result.net, ckpt, train_config=train_cfg, sidecar_extra={
        "encoding": config.to_dict(),
        "label_names": list(train_ds.label_names),
        "dataset_fingerprint": dataset_fingerprint(encoded_train),
        "best_epoch": result.best_epoch,
        "best_test_accuracy": result.best_test_accuracy,
        "provenance_version": version_string(),
    })
    lines = ["epoch,loss,train_accuracy,test_accuracy"]
    lines += [
        f"{h.epoch},{h.loss:.8f},{h.train_accuracy:.6f},{h.test_accuracy:.6f}"
        for h in result.history
    ]
    atomic_write([(os.path.join(args.out, "history.csv"),
                   ("\n".join(lines) + "\n").encode())])
    print(f"best epoch {result.best_epoch}: "
          f"test accuracy {result.best_test_accuracy:.3f} -> {ckpt}")
    return 0


def _label_names(sidecar: dict, path: str):
    """A checkpoint sidecar's label_names, or None without them; anything
    but a list of strings is a data error."""
    names = sidecar.get("label_names")
    if names is not None and not (isinstance(names, list)
                                  and all(isinstance(n, str) for n in names)):
        raise ParseError(f"{sidecar_path(path, checkpoint=True)}: label_names must "
                         f"be a list of strings, got {type(names).__name__}")
    return names


def _sidecar_encoding(metadata: dict, path: str):
    """The EncodingConfig a spike file's sidecar records, or None without
    one; an entry EncodingConfig.from_dict rejects is a data error."""
    if metadata.get("encoding") is None:
        return None
    try:
        return EncodingConfig.from_dict(metadata["encoding"])
    except ConfigError as exc:
        raise ParseError(f"{path}: sidecar encoding: {exc}") from exc


def _check_same_encoding(trained, metadata: dict, path: str, checkpoint: str):
    """A data error when a spike file's sidecar records another encoding
    than the checkpoint was trained on.  The seed may differ; either side
    without a recorded encoding passes."""
    encoding = _sidecar_encoding(metadata, path)
    if trained is None or encoding is None:
        return
    ours, theirs = encoding.to_dict(), trained.to_dict()
    for name, value in ours.items():
        if name != "seed" and value != theirs[name]:
            raise ParseError(f"{path}: spikes encoded with {name} {value!r}, but "
                             f"{checkpoint} was trained on {name} {theirs[name]!r}")


def cmd_infer(args) -> int:
    net, sidecar = load_checkpoint(args.checkpoint)
    label_names = _label_names(sidecar, args.checkpoint)
    trained = _sidecar_encoding(sidecar, args.checkpoint)
    for path in args.spikes:
        tensor, metadata = read_spikes(path)
        _check_same_encoding(trained, metadata, path, args.checkpoint)
        result = classify_detailed(net, tensor)
        record = {
            "file": path,
            "class": result.label,
            "rates": [round(float(r), 6) for r in result.rates],
            "no_spikes": result.no_spikes,
        }
        if label_names and result.label < len(label_names):
            record["label_name"] = label_names[result.label]
        print(json.dumps(record, sort_keys=True))
    return 0


def cmd_perturb(args) -> int:
    # every input is read and perturbed before atomic_write checks the
    # output names and makes --out: a bad input or name leaves nothing
    spec = NoiseSpec(args.noise_p, seed=derive_seed(args.seed, 0))
    files = []
    for i, path in enumerate(args.spikes):
        tensor, metadata = read_spikes(path)
        if args.mode == "auto":
            encoding = _sidecar_encoding(metadata, path)
            mode = (noise_mode_for(encoding.scheme) if encoding
                    else NoiseMode.FLIP_BINARY)
        else:
            mode = NoiseMode(args.mode)
        noisy = inject_noise(tensor, replace(spec, seed=derive_seed(args.seed, i),
                                             mode=mode))
        metadata = dict(metadata)
        metadata["noise"] = {"error_probability": args.noise_p,
                             "seed": args.seed, "mode": mode.value}
        files += spike_files(noisy, metadata, os.path.join(args.out, os.path.basename(path)))
    atomic_write(files)  # a failed write leaves none of the outputs behind
    print(f"perturbed {len(args.spikes)} file(s) at p={args.noise_p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikecodec",
        description="Encode sensor signals into spike trains, evaluate the "
                    "schemes, and train a spiking classifier.",
    )
    parser.add_argument("--version", action=_VersionAction)
    subs = parser.add_subparsers(dest="command", required=True)

    enc = subs.add_parser("encode", help="encode windows into SPK1 spike files")
    _dataset_args(enc)
    _scheme_args(enc)
    enc.add_argument("--out", required=True, type=_out_dir, help="output directory")
    enc.set_defaults(func=cmd_encode)

    ev = subs.add_parser("evaluate", help="full per-scheme evaluation report")
    _dataset_args(ev)
    ev.add_argument("--schemes", default=",".join(VARIANT_NAMES),
                    help="comma-separated variant list (default: all eight)")
    _scheme_args(ev, single=False)
    _train_args(ev)
    ev.add_argument("--noise-seeds", type=int, default=1,
                    help="error draws averaged per robustness cell (default 1)")
    ev.add_argument("--report", choices=("csv", "json", "both"), default="both")
    ev.add_argument("--out", required=True, type=_out_dir, help="report directory")
    ev.set_defaults(func=cmd_evaluate)

    tr = subs.add_parser("train", help="train the classifier on one scheme")
    _dataset_args(tr)
    _scheme_args(tr)
    _train_args(tr)
    tr.add_argument("--out", required=True, type=_out_dir, help="checkpoint directory")
    tr.set_defaults(func=cmd_train)

    inf = subs.add_parser("infer", help="classify spike files with a checkpoint")
    inf.add_argument("checkpoint")
    inf.add_argument("spikes", nargs="+", help="SPK1 files")
    inf.set_defaults(func=cmd_infer)

    pert = subs.add_parser("perturb", help="inject spike errors into spike files")
    pert.add_argument("spikes", nargs="+", help="SPK1 files")
    pert.add_argument("--noise-p", type=float, required=True)
    pert.add_argument("--seed", type=int, default=0)
    pert.add_argument("--mode", choices=("auto", "flip-binary", "signed-perturb"),
                      default="auto")
    pert.add_argument("--out", required=True, type=_out_dir, help="output directory")
    pert.set_defaults(func=cmd_perturb)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (SpikeCodecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
