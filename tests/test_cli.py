"""Command-line surface: reproducibility, exit codes, and report formats."""

import argparse
import json
import struct
import subprocess
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecodec import cli, core
from spikecodec.cli import main
from spikecodec.dataio import read_spikes
from spikecodec.errors import DegenerateChannelWarning, ParseError
from spikecodec.evaluation import DEFAULT_P_LIST, SchemeEvaluation
from spikecodec.snn import (
    CubaNetwork,
    EpochStats,
    TrainResult,
    load_checkpoint,
    save_checkpoint,
)

SYNTH_SMALL = ["synth", "--classes", "3", "--samples-per-class", "4",
               "--duration", "1.0"]


def run(args):
    return main([str(a) for a in args])


def assert_one_error_line(capsys, text=""):
    """Nothing on stdout; on stderr exactly one `error:` line, holding text."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert text in captured.err


class TestEncodeCommand:
    def test_ttfs_reports_exact_afr(self, tmp_path, capsys):
        out = tmp_path / "enc"
        assert run(["encode", *SYNTH_SMALL, "--scheme", "ttfs-linear",
                    "--steps", "50", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "AFR=2.000%" in printed
        assert len(list(out.glob("*.spk"))) == 12

    def test_seeded_encode_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run(["encode", *SYNTH_SMALL, "--scheme", "rate-beta",
                        "--steps", "10", "--seed", "7", "--out", out]) == 0
        for name in ("w00000.spk", "w00005.spk"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unknown_scheme_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["encode", *SYNTH_SMALL, "--scheme", "morse", "--out", tmp_path])
        assert exc.value.code == 2

    def test_sidecar_carries_encoding_and_label(self, tmp_path):
        out = tmp_path / "enc"
        run(["encode", *SYNTH_SMALL, "--scheme", "binary6", "--out", out])
        tensor, metadata = read_spikes(out / "w00000.spk")
        assert tensor.n_trains == 6
        assert metadata["encoding"]["scheme"] == "binary"
        assert metadata["encoding"]["n_bits"] == 6
        assert metadata["label_name"] == "class0"

    def test_non_finite_csv_value_is_data_error(self, tmp_path, capsys):
        csv_path = tmp_path / "nan.csv"
        header = "acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,hbc,label,user"
        # 60 rows at 20 Hz fill one 2 s window; acc_y is nan throughout
        rows = [[f"{i * (ch + 2) % 11 / 11:.3f}" for ch in range(7)] + ["Squat", "alice"]
                for i in range(60)]
        for row in rows:
            row[1] = "nan"
        csv_path.write_text(header + "\n" + "\n".join(",".join(r) for r in rows) + "\n")
        code = run(["encode", csv_path, "--scheme", "ttfs-linear",
                    "--out", tmp_path / "enc"])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    def test_stride_cuts_overlapping_csv_windows(self, tmp_path, capsys):
        csv_path = TestCsvNormalization().write_csv(tmp_path / "two.csv", None)
        counts = []
        for stride in ([], ["--stride", "0.5"]):
            assert run(["encode", csv_path, "--duration", "1.0", *stride,
                        "--scheme", "binary6", "--out", tmp_path / "out"]) == 0
            counts.append(capsys.readouterr().out.split()[1])
        # four 2 s recordings: two 1 s windows each, or three at a 0.5 s stride
        assert counts == ["windows=8", "windows=12"]


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("rep")
    code = run(["evaluate", *SYNTH_SMALL, "--steps", "10",
                "--epochs", "3", "--lr", "2e-3", "--batch", "8",
                "--noise-seeds", "2", "--out", out])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    code = run(["train", *SYNTH_SMALL, "--scheme", "binary6",
                "--epochs", "8", "--lr", "2e-3", "--batch", "4",
                "--out", out])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def spikes_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("spk")
    run(["encode", *SYNTH_SMALL, "--scheme", "binary6", "--out", out])
    return out


class TestEvaluateCommand:
    def test_all_eight_rows_populated(self, report_dir):
        report = json.loads((report_dir / "report.json").read_text())
        assert len(report["rows"]) == 8
        for row in report["rows"]:
            assert row["snr_db"] is not None
            assert 0 <= row["accuracy"] <= 1
            assert set(row["drops"]) == {"0.001", "0.01", "0.1"}
            assert row["dynamic_energy"] == "not measured"
            assert row["execution_time"] == "not measured"

    def test_json_report_validates_against_shipped_schema(self, report_dir):
        report = json.loads((report_dir / "report.json").read_text())
        schema = json.loads(
            resources.files("spikecodec").joinpath("schemas/report.schema.json")
            .read_text())
        jsonschema.validate(report, schema)

    def test_report_carries_version_and_config(self, report_dir):
        report = json.loads((report_dir / "report.json").read_text())
        assert report["version"]
        assert report["config"]["epochs"] == 3
        assert report["config"]["input"] == "synth"

    def test_csv_report_has_matching_rows(self, report_dir):
        lines = (report_dir / "report.csv").read_text().splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("scheme,tensor_shape,time_step_ms")

    def test_binary_resolution_snr_ordering(self, report_dir):
        report = json.loads((report_dir / "report.json").read_text())
        snr = {row["scheme"]: row["snr_db"] for row in report["rows"]}
        assert snr["binary10"] > snr["binary6"]

    def test_version_is_looked_up_once_per_report(self, tmp_path, monkeypatch):
        calls = []

        def version():
            calls.append(1)
            return "v-test"

        monkeypatch.setattr(cli, "version_string", version)
        code = run(["evaluate", *SYNTH_SMALL, "--schemes", "binary6,ttfs-linear",
                    "--steps", "5", "--epochs", "1", "--out", tmp_path])
        assert code == 0
        # one for the whole report; building the parser runs none
        assert len(calls) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["version"] == "v-test"
        assert "version" not in report["config"]
        rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["v-test", "v-test"]

    def test_empty_dataset_is_data_error(self, tmp_path):
        # 30 rows at 20 Hz cannot fill a single 2 s window; the constant
        # columns also trip the degenerate-channel warning on the way
        csv_path = tmp_path / "short.csv"
        header = "acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,hbc,label,user"
        rows = [",".join(["0.5"] * 7 + ["Squat", "alice"])] * 30
        csv_path.write_text(header + "\n" + "\n".join(rows) + "\n")
        with pytest.warns(DegenerateChannelWarning):
            code = run(["evaluate", csv_path, "--duration", "2.0",
                        "--out", tmp_path / "rep"])
        assert code == 3


class TestArgumentErrors:
    """Arguments that leave nothing to compute are configuration errors
    (exit 2), caught before any window is encoded or network trained."""

    EVALUATE = ["evaluate", *SYNTH_SMALL, "--epochs", "1"]
    ENCODE = ["encode", *SYNTH_SMALL, "--scheme", "binary6"]
    TRAIN = ["train", *SYNTH_SMALL, "--scheme", "binary6", "--steps", "5",
             "--epochs", "2", "--batch", "4"]
    # checked before any input file is read, so it need not exist
    PERTURB = ["perturb", "missing.spk"]
    # one 20 Hz sample per window: nothing for delta modulation to encode
    ONE_SAMPLE = ["--duration", "0.05"]
    OVERSIZED = ["encode", "synth", "--scheme", "rate-uniform"]

    @pytest.mark.parametrize("args", [
        [*EVALUATE, "--users", "0"],
        [*ENCODE, "--sample-rate", "-5"],
        [*ENCODE, "--duration", "0"],
        [*ENCODE, "--duration", "nan"],
        [*EVALUATE, "--duration", "0.01"],
        [*EVALUATE, "--noise-seeds", "0"],
        [*EVALUATE, "--noise-seeds", "-1"],
        [*EVALUATE, "--schemes", ","],
        [*ENCODE, "--stride", "0.5"],
        [*TRAIN, "--lr", "nan"],
        [*TRAIN, "--lr", "inf"],
        [*EVALUATE, "--lr", "nan"],
        [*EVALUATE, "--lr", "inf"],
        [*PERTURB, "--noise-p", "nan"],
        [*PERTURB, "--noise-p", "2"],
        [*PERTURB, "--noise-p", "0.1", "--seed", "-1"],
        ["encode", *SYNTH_SMALL, *ONE_SAMPLE, "--scheme", "delta-mod"],
        ["train", *SYNTH_SMALL, *ONE_SAMPLE, "--scheme", "delta-mod", "--epochs", "1"],
        [*EVALUATE, *ONE_SAMPLE, "--schemes", "delta-mod"],
        ["encode", *SYNTH_SMALL, "--scheme", "delta-mod", "--thresholds", "0.3,0.1"],
        ["encode", *SYNTH_SMALL, "--scheme", "delta-mod", "--thresholds", "inf"],
        ["encode", *SYNTH_SMALL, "--scheme", "delta-mod", "--thresholds", "0.1,1e400"],
        # each variant's own window rules, checked before the first row
        # trains: TTFS needs two steps, delta modulation two samples
        [*EVALUATE, "--steps", "1"],
        [*EVALUATE, *ONE_SAMPLE, "--schemes", "rate-uniform,delta-mod"],
        # synthetic sets over core.MAX_BLOCK_BYTES, refused before numpy
        # allocates them
        [*OVERSIZED, "--classes", "99999999999999999999", "--samples-per-class", "2"],
        [*OVERSIZED, "--duration", "1e300", "--sample-rate", "1"],
        [*OVERSIZED, "--duration", "1e6"],
        # encoded sets over core.MAX_BLOCK_BYTES, refused before the first
        # window is encoded (evaluate: before the first row trains)
        ["encode", "synth", "--scheme", "delta-mod", "--interp", "100000"],
        [*EVALUATE, "--schemes", "rate-uniform,delta-mod", "--interp", "10000000"],
    ], ids=["no-users", "negative-rate", "zero-duration", "nan-duration",
            "sub-sample-duration", "no-noise-seeds", "negative-noise-seeds",
            "no-schemes", "stride-with-synth", "train-nan-lr", "train-inf-lr",
            "evaluate-nan-lr", "evaluate-inf-lr", "perturb-nan-p",
            "perturb-p-above-one", "perturb-negative-seed",
            "encode-delta-one-sample", "train-delta-one-sample",
            "evaluate-delta-one-sample", "delta-unordered-thresholds",
            "delta-infinite-threshold", "delta-overflowing-threshold",
            "evaluate-ttfs-one-step", "evaluate-delta-one-sample-second",
            "oversized-classes", "oversized-duration-at-1hz", "oversized-duration",
            "oversized-interp", "evaluate-oversized-interp"])
    def test_is_config_error(self, args, tmp_path, capsys):
        out = tmp_path / "out"
        assert run([*args, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("args", [EVALUATE, ENCODE, TRAIN, PERTURB],
                             ids=lambda args: args[0])
    def test_empty_out_is_a_usage_error(self, args, tmp_path, capsys, monkeypatch):
        # an empty path would name the working directory
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run([*args, "--out", ""])
        assert exc.value.code == 2
        assert "argument --out: needs a directory path" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_training_blocks_over_the_cap_are_refused_before_the_first_row(
            self, tmp_path, capsys, monkeypatch):
        # 819 MB of spikes, under the cap, but 6.5 GB of float64 inputs and
        # 140 GB of workspace for one step
        def evaluate_nothing(*args, **kwargs):
            raise AssertionError("a refused plan reached evaluate_scheme")

        monkeypatch.setattr(cli, "evaluate_scheme", evaluate_nothing)
        out = tmp_path / "out"
        code = run(["evaluate", "synth", "--classes", "3", "--samples-per-class", "4",
                    "--epochs", "1", "--schemes", "delta-mod", "--interp", "50000",
                    "--out", out])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: training on 12 windows encoded as "
                                       "delta-mod holds ")
        assert captured.err.endswith(" bytes of float64 blocks, over the "
                                     "1,073,741,824-byte cap\n")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

    def test_evaluate_naming_a_variant_twice_is_refused_before_loading(self, tmp_path,
                                                                      capsys):
        # the input does not exist: reading it first would exit 3
        out = tmp_path / "out"
        code = run(["evaluate", tmp_path / "missing.csv", "--schemes",
                    "binary6,rate-uniform,binary6", "--out", out])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --schemes names binary6 more than once\n"
        assert not out.exists()


class TestEmptyInput:
    """A CSV whose every session is shorter than --duration: each command
    exits 3 with the loader's one message and writes nothing."""

    @pytest.mark.parametrize("command", (["encode", "--scheme", "binary6"],
                                         ["train", "--scheme", "binary6"],
                                         ["evaluate"]), ids=lambda c: c[0])
    def test_is_data_error(self, command, tmp_path, capsys):
        # every (user, label) session of this file is 2 s long
        csv_path = TestCsvNormalization().write_csv(tmp_path / "two.csv", None)
        out = tmp_path / "out"
        assert run([command[0], csv_path, "--duration", "3", *command[1:],
                    "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: no 3s window in {csv_path}\n"
        assert captured.out == ""
        assert not out.exists()


class TestSingleUser:
    """A synthetic set of one user leaves the training split empty, since
    that user is held out: a data error (exit 3) before anything is
    written."""

    @pytest.mark.parametrize("command, message", (
        (["evaluate", "--schemes", "binary6"],
         "evaluation needs non-empty train and test splits"),
        (["train", "--scheme", "binary6"], "no training windows to fit on"),
    ), ids=("evaluate", "train"))
    def test_is_data_error(self, command, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert run([command[0], *SYNTH_SMALL, "--users", "1", *command[1:],
                    "--epochs", "1", "--out", out]) == 3
        assert_one_error_line(capsys, message)
        assert not out.exists()


class TestUnusablePaths:
    """A path that cannot be read or written is a data error (exit 3) with
    one error line, not a traceback."""

    def test_directory_given_as_a_spike_file(self, model_dir, tmp_path, capsys):
        assert run(["infer", model_dir / "checkpoint.cuba", tmp_path]) == 3
        assert_one_error_line(capsys)

    def test_output_directory_that_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run(["encode", *SYNTH_SMALL, "--scheme", "binary6",
                    "--out", out]) == 3
        assert_one_error_line(capsys)
        assert out.read_text() == ""

    def test_unwritable_checkpoint_sidecar_leaves_no_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "checkpoint.cuba.json").mkdir(parents=True)  # its rename fails
        assert run(["train", *SYNTH_SMALL, "--scheme", "ttfs-linear", "--steps", "5",
                    "--epochs", "1", "--out", out]) == 3
        assert_one_error_line(capsys, "checkpoint.cuba.json")
        assert [p.name for p in out.iterdir()] == ["checkpoint.cuba.json"]

    def test_unwritable_report_csv_leaves_no_report_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "report.csv").mkdir(parents=True)  # its rename fails
        assert run(["evaluate", *SYNTH_SMALL, "--schemes", "binary6", "--epochs", "1",
                    "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "report.csv" in err
        assert [p.name for p in out.iterdir()] == ["report.csv"]


class TestVersion:
    def test_building_the_parser_starts_no_subprocess(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("subprocess started")

        monkeypatch.setattr(subprocess, "run", refuse)
        monkeypatch.setattr(subprocess, "Popen", refuse)
        for _ in range(3):
            cli.build_parser().parse_args(["infer", "model.cuba", "a.spk"])

    def test_version_flag_prints_the_version(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "version_string", lambda: "v-test")
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == "v-test\n"


class TestTrainInferPerturb:
    def test_train_writes_checkpoint_and_history(self, model_dir):
        assert (model_dir / "checkpoint.cuba").exists()
        sidecar = json.loads((model_dir / "checkpoint.cuba.json").read_text())
        assert sidecar["encoding"]["scheme"] == "binary"
        assert "dataset_fingerprint" in sidecar
        history = (model_dir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss,train_accuracy,test_accuracy"
        assert len(history) == 9

    def test_infer_on_training_scheme(self, model_dir, spikes_dir, capsys):
        code = run(["infer", model_dir / "checkpoint.cuba",
                    spikes_dir / "w00000.spk"])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["class"] in (0, 1, 2)
        assert len(record["rates"]) == 3

    def test_infer_shape_mismatch_is_data_error(self, model_dir, tmp_path):
        other = tmp_path / "other"
        run(["encode", *SYNTH_SMALL, "--scheme", "ttfs-linear", "--steps", "10",
             "--out", other])
        code = run(["infer", model_dir / "checkpoint.cuba",
                    other / "w00000.spk"])
        assert code == 3

    def test_spike_file_cut_in_its_header_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "t.spk"
        path.write_bytes(b"SPK1\x01\x00\x03\x01\x00")
        code = run(["perturb", path, "--noise-p", "0.1", "--out", tmp_path / "o"])
        assert code == 3
        assert "truncated" in capsys.readouterr().err

    def test_checkpoint_cut_in_its_header_is_data_error(self, spikes_dir, tmp_path,
                                                        capsys):
        path = tmp_path / "t.cuba"
        path.write_bytes(b"CUB1\x01\x00\x03\x07")
        code = run(["infer", path, spikes_dir / "w00000.spk"])
        assert code == 3
        assert "truncated" in capsys.readouterr().err

    def test_checkpoint_with_no_layers_is_data_error(self, spikes_dir, tmp_path,
                                                     capsys):
        path = tmp_path / "t.cuba"
        path.write_bytes(b"CUB1" + struct.pack("<HBId", 1, 0, 7, 0.1))
        code = run(["infer", path, spikes_dir / "w00000.spk"])
        assert code == 3
        assert "no layers" in capsys.readouterr().err

    def test_perturb_zero_probability_is_byte_identical(self, spikes_dir, tmp_path):
        out = tmp_path / "p0"
        code = run(["perturb", spikes_dir / "w00000.spk", "--noise-p", "0",
                    "--out", out])
        assert code == 0
        original, _ = read_spikes(spikes_dir / "w00000.spk")
        perturbed, _ = read_spikes(out / "w00000.spk")
        assert original.data.tobytes() == perturbed.data.tobytes()

    def test_perturb_changes_spikes_at_high_probability(self, spikes_dir, tmp_path):
        out = tmp_path / "p1"
        code = run(["perturb", spikes_dir / "w00000.spk", "--noise-p", "0.5",
                    "--seed", "3", "--out", out])
        assert code == 0
        original, _ = read_spikes(spikes_dir / "w00000.spk")
        perturbed, meta = read_spikes(out / "w00000.spk")
        assert not np.array_equal(original.data, perturbed.data)
        assert meta["noise"]["mode"] == "flip-binary"

    def test_train_divergence_writes_no_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "model"
        code = run(["train", *SYNTH_SMALL, "--scheme", "binary6", "--steps", "5",
                    "--epochs", "2", "--batch", "4", "--lr", "1e300", "--out", out])
        assert code == 4
        assert "float32 range" in capsys.readouterr().err
        assert not out.exists()

    def test_perturb_inputs_sharing_a_basename_is_config_error(self, spikes_dir,
                                                              tmp_path, capsys):
        copies = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            for suffix in (".spk", ".json"):
                src = spikes_dir / f"w00000{suffix}"
                (tmp_path / name / src.name).write_bytes(src.read_bytes())
            copies.append(tmp_path / name / "w00000.spk")
        out = tmp_path / "o"
        code = run(["perturb", *copies, "--noise-p", "0.1", "--out", out])
        assert code == 2
        captured = capsys.readouterr()
        assert "w00000.spk" in captured.err and captured.out == ""
        assert not out.exists()

    def test_perturb_inputs_sharing_a_sidecar_is_config_error(self, spikes_dir,
                                                              tmp_path, capsys):
        # a/w.spk and b/w.spk2 have distinct names but both sidecars are w.json
        copies = []
        for name, suffix in (("a", ".spk"), ("b", ".spk2")):
            (tmp_path / name).mkdir()
            for src, dst in (("w00000.spk", f"w{suffix}"), ("w00000.json", "w.json")):
                (tmp_path / name / dst).write_bytes((spikes_dir / src).read_bytes())
            copies.append(tmp_path / name / f"w{suffix}")
        out = tmp_path / "o"
        code = run(["perturb", *copies, "--noise-p", "0.1", "--out", out])
        assert code == 2
        captured = capsys.readouterr()
        assert "w.json" in captured.err and captured.out == ""
        assert not out.exists()

    def test_perturb_output_named_as_another_outputs_tmp_file_is_refused(
            self, spikes_dir, tmp_path, capsys):
        # o/w.spk is written through o/w.spk.tmp, the other output's name
        copies = []
        for name, dst in (("a", "w.spk.tmp"), ("b", "w.spk")):
            (tmp_path / name).mkdir()
            (tmp_path / name / dst).write_bytes((spikes_dir / "w00000.spk").read_bytes())
            copies.append(tmp_path / name / dst)
        out = tmp_path / "o"
        assert run(["perturb", *copies, "--noise-p", "0.1", "--out", out]) == 2
        assert_one_error_line(capsys, "w.spk.tmp twice")
        assert not out.exists()

    def test_perturb_is_seed_reproducible(self, spikes_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run(["perturb", spikes_dir / "w00001.spk", "--noise-p", "0.3",
                 "--seed", "11", "--out", out])
            outs.append((out / "w00001.spk").read_bytes())
        assert outs[0] == outs[1]


class TestInferEncodingMismatch:
    """infer refuses spike files whose sidecar records another encoding
    than the checkpoint's: another value of any field the variant takes,
    but the seed.  Flags of other families leave the encoding as it is."""

    TRAINED = ["--scheme", "rate-uniform", "--steps", "20"]

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("rate-model")
        assert run(["train", *SYNTH_SMALL, *self.TRAINED, "--epochs", "1",
                    "--batch", "4", "--out", out]) == 0
        return out / "checkpoint.cuba"

    def encode(self, tmp_path, *scheme_args):
        out = tmp_path / "spikes"
        assert run(["encode", *SYNTH_SMALL, *scheme_args, "--out", out]) == 0
        return out / "w00000.spk"

    @pytest.mark.parametrize("scheme_args, field, ours, theirs", (
        (["--scheme", "ttfs-linear", "--steps", "20"], "scheme",
         "'ttfs-linear'", "'rate-uniform'"),
        (["--scheme", "rate-uniform", "--steps", "10"], "steps_per_sample", "10", "20"),
        (["--scheme", "rate-beta", "--steps", "20"], "scheme",
         "'rate-beta'", "'rate-uniform'")))
    def test_other_encoding_is_a_data_error(self, scheme_args, field, ours, theirs,
                                            checkpoint, tmp_path, capsys):
        path = self.encode(tmp_path, *scheme_args)
        capsys.readouterr()
        assert run(["infer", checkpoint, path]) == 3
        assert_one_error_line(
            capsys, f"spikes encoded with {field} {ours}, but {checkpoint} "
                    f"was trained on {field} {theirs}")

    def test_flags_the_scheme_never_reads_are_classified(self, checkpoint, tmp_path,
                                                          capsys):
        path = self.encode(tmp_path, *self.TRAINED, "--interp", "3",
                           "--thresholds", "0.3,0.1", "--bits", "17")
        capsys.readouterr()
        assert run(["infer", checkpoint, path]) == 0
        assert json.loads(capsys.readouterr().out)["file"] == str(path)

    def test_another_seed_is_classified(self, checkpoint, tmp_path, capsys):
        path = self.encode(tmp_path, *self.TRAINED, "--seed", "9")
        capsys.readouterr()
        assert run(["infer", checkpoint, path]) == 0
        assert json.loads(capsys.readouterr().out)["file"] == str(path)

    def test_spike_file_without_a_sidecar_is_classified(self, checkpoint, tmp_path,
                                                         capsys):
        path = self.encode(tmp_path, "--scheme", "ttfs-linear", "--steps", "20")
        path.with_suffix(".json").unlink()
        capsys.readouterr()
        assert run(["infer", checkpoint, path]) == 0
        assert json.loads(capsys.readouterr().out)["file"] == str(path)


class TestMalformedDataFiles:
    """Well-formed fields holding invalid values, and sidecars that are not
    JSON objects, are data errors (exit 3), not configuration errors."""

    # SPK1: magic, version u16, ndim u8, three u32 dims, then the f64 step
    SPK_STEP = 4 + 2 + 1 + 3 * 4
    # CUB1 of a (2, 3) net: magic, version, layer count, two u32 sizes,
    # dropout f64, then the first layer's threshold f64
    CUB_WIDTH, CUB_THRESHOLD = 4 + 2 + 1, 4 + 2 + 1 + 2 * 4 + 8
    # a two-layer net's first weight: three u32 sizes, dropout, 2 x 3 f64
    CUB_WEIGHTS_OF_TWO_LAYERS = 4 + 2 + 1 + 3 * 4 + 8 + 2 * 24

    @staticmethod
    def spike_copy(spikes_dir, tmp_path):
        path = tmp_path / "w.spk"
        path.write_bytes((spikes_dir / "w00000.spk").read_bytes())
        (tmp_path / "w.json").write_bytes((spikes_dir / "w00000.json").read_bytes())
        return path

    @staticmethod
    def checkpoint(tmp_path):
        path = tmp_path / "m.cuba"
        save_checkpoint(CubaNetwork((2, 3), dropout_p=0.0, seed=1), path)
        return path

    def perturb(self, path, tmp_path):
        return run(["perturb", path, "--noise-p", "0.1", "--out", tmp_path / "o"])

    @pytest.mark.parametrize("step", (0.0, float("nan")))
    def test_spike_file_time_step_outside_positive_reals(self, step, spikes_dir,
                                                         tmp_path, capsys):
        path = self.spike_copy(spikes_dir, tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, self.SPK_STEP, step)
        path.write_bytes(bytes(blob))
        assert self.perturb(path, tmp_path) == 3
        assert "time_step_ms" in capsys.readouterr().err

    def test_spike_file_with_bytes_after_the_payload(self, tmp_path, capsys):
        path = tmp_path / "w.spk"
        path.write_bytes(b"SPK1" + struct.pack("<HB3Id", 1, 3, 1, 2, 2, 1.0)
                         + bytes([1, 0, 0, 1]) + b"\x00")
        assert run(["infer", self.checkpoint(tmp_path), path]) == 3
        assert_one_error_line(capsys, "1 extra byte")
        assert self.perturb(path, tmp_path) == 3
        assert_one_error_line(capsys, "1 extra byte")
        assert not (tmp_path / "o" / "w.spk").exists()

    def test_checkpoint_with_bytes_after_the_last_weight(self, spikes_dir, tmp_path,
                                                         capsys):
        path = tmp_path / "m.cuba"
        save_checkpoint(CubaNetwork((42, 3), dropout_p=0.0, seed=1), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        assert run(["infer", path, spikes_dir / "w00000.spk"]) == 3
        assert_one_error_line(capsys, "1 extra byte")

    def test_spike_file_of_no_timesteps(self, tmp_path, capsys):
        path = tmp_path / "w.spk"
        path.write_bytes(b"SPK1" + struct.pack("<HB3Id", 1, 3, 1, 2, 0, 1.0))
        assert run(["infer", self.checkpoint(tmp_path), path]) == 3
        assert_one_error_line(capsys, "no timesteps")

    def test_sidecar_window_steps_of_zero(self, spikes_dir, tmp_path, capsys):
        path = self.spike_copy(spikes_dir, tmp_path)
        sidecar = json.loads((tmp_path / "w.json").read_text())
        sidecar["window_steps"] = 0
        (tmp_path / "w.json").write_text(json.dumps(sidecar))
        assert self.perturb(path, tmp_path) == 3
        assert "window_steps" in capsys.readouterr().err

    @pytest.mark.parametrize("value", (2.7, "5", True))
    def test_sidecar_window_steps_not_an_integer(self, value, spikes_dir, tmp_path,
                                                 capsys):
        path = self.spike_copy(spikes_dir, tmp_path)
        sidecar = json.loads((tmp_path / "w.json").read_text())
        sidecar["window_steps"] = value
        (tmp_path / "w.json").write_text(json.dumps(sidecar))
        assert run(["infer", self.checkpoint(tmp_path), path]) == 3
        assert_one_error_line(capsys, "window_steps must be an integer")

    def test_perturb_of_a_malformed_file_creates_no_output(self, tmp_path, capsys):
        path = tmp_path / "trail.spk"
        path.write_bytes(b"SPK1" + struct.pack("<HB3Id", 1, 3, 1, 2, 2, 1.0)
                         + bytes([1, 0, 0, 1]) + b"\x00")
        assert run(["perturb", path, "--noise-p", "0.1", "--out", tmp_path / "pp"]) == 3
        assert_one_error_line(capsys, "1 extra byte")
        assert not (tmp_path / "pp").exists()

    def test_perturb_writes_nothing_when_a_later_input_is_bad(self, spikes_dir,
                                                              tmp_path, capsys):
        good = tmp_path / "good.spk"
        good.write_bytes((spikes_dir / "w00000.spk").read_bytes())
        bad = tmp_path / "bad.spk"
        bad.write_bytes(good.read_bytes())
        (tmp_path / "bad.json").write_text(json.dumps({"encoding": {"scheme": "morse"}}))
        assert run(["perturb", good, bad, "--noise-p", "0.1",
                    "--out", tmp_path / "pq"]) == 3
        assert_one_error_line(capsys, "unknown scheme")
        assert not (tmp_path / "pq").exists()

    def test_perturb_removes_its_outputs_when_a_later_write_fails(self, spikes_dir,
                                                                 tmp_path, capsys):
        out = tmp_path / "o"
        (out / "w00001.spk").mkdir(parents=True)  # the rename onto it fails
        assert run(["perturb", spikes_dir / "w00000.spk", spikes_dir / "w00001.spk",
                    "--noise-p", "0.1", "--out", out]) == 3
        assert_one_error_line(capsys, "w00001.spk")
        assert sorted(p.name for p in out.iterdir()) == ["w00001.spk"]

    def test_corrupt_spike_sidecar(self, spikes_dir, tmp_path, capsys):
        path = self.spike_copy(spikes_dir, tmp_path)
        (tmp_path / "w.json").write_text("{")
        with pytest.raises(ParseError):
            read_spikes(path)
        assert self.perturb(path, tmp_path) == 3
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt, offset, value, message", (
        ("<I", CUB_WIDTH, 0, "layer sizes"),
        ("<d", CUB_THRESHOLD, 0.0, "threshold"),
        ("<d", CUB_THRESHOLD, float("nan"), "threshold"),
        # after the threshold and the current decay
        ("<d", CUB_THRESHOLD + 16, 0.25, "layer 0 voltage_decay")))
    def test_checkpoint_value_outside_its_range(self, fmt, offset, value, message,
                                                spikes_dir, tmp_path, capsys):
        path = self.checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into(fmt, blob, offset, value)
        path.write_bytes(bytes(blob))
        assert run(["infer", path, spikes_dir / "w00000.spk"]) == 3
        assert message in capsys.readouterr().err

    def test_checkpoint_weight_that_is_nan(self, spikes_dir, tmp_path, capsys):
        # widths that fit the binary6 spike files (6 trains x 7 channels)
        path = tmp_path / "m.cuba"
        save_checkpoint(CubaNetwork((42, 8, 3), dropout_p=0.0, seed=1), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, self.CUB_WEIGHTS_OF_TWO_LAYERS, float("nan"))
        path.write_bytes(bytes(blob))
        assert run(["infer", path, spikes_dir / "w00000.spk"]) == 3
        captured = capsys.readouterr()
        assert "not finite" in captured.err and captured.out == ""

    def test_corrupt_checkpoint_sidecar(self, spikes_dir, tmp_path, capsys):
        path = self.checkpoint(tmp_path)
        (tmp_path / "m.cuba.json").write_text("{")
        with pytest.raises(ParseError):
            load_checkpoint(path)
        assert run(["infer", path, spikes_dir / "w00000.spk"]) == 3
        assert "not valid JSON" in capsys.readouterr().err

    def test_checkpoint_label_names_not_a_list(self, spikes_dir, tmp_path, capsys):
        path = self.checkpoint(tmp_path)
        (tmp_path / "m.cuba.json").write_text(json.dumps({"label_names": 5}))
        assert run(["infer", path, spikes_dir / "w00000.spk"]) == 3
        assert "label_names" in capsys.readouterr().err

    def test_spike_sidecar_encoding_not_an_object(self, spikes_dir, tmp_path, capsys):
        path = self.spike_copy(spikes_dir, tmp_path)
        (tmp_path / "w.json").write_text(json.dumps({"encoding": [1]}))
        assert self.perturb(path, tmp_path) == 3
        assert "encoding" in capsys.readouterr().err

    def test_spike_sidecar_unknown_scheme_is_data_error(self, spikes_dir, tmp_path,
                                                        capsys):
        path = self.spike_copy(spikes_dir, tmp_path)
        (tmp_path / "w.json").write_text(
            json.dumps({"encoding": {"scheme": "ttfs-linear "}}))
        assert self.perturb(path, tmp_path) == 3
        assert "unknown scheme" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme, field, value", (
        ("ttfs-linear", "steps_per_sample", float("nan")),
        ("binary", "n_bits", 6.5),
        ("delta-mod", "interp_factor", float("inf")),
        ("rate-uniform", "seed", 1.5),
        ("rate-normal", "normal_var", float("nan")),
        ("rate-normal", "normal_mu", float("nan")),
        # json.dumps writes Infinity, which json.load reads back
        ("delta-mod", "thresholds", [[0.1, float("inf")]]),
    ))
    def test_spike_sidecar_encoding_field_of_wrong_type(self, scheme, field, value,
                                                        spikes_dir, tmp_path, capsys):
        path = self.spike_copy(spikes_dir, tmp_path)
        (tmp_path / "w.json").write_text(
            json.dumps({"encoding": {"scheme": scheme, field: value}}))
        assert self.perturb(path, tmp_path) == 3
        assert field in capsys.readouterr().err


class TestMalformedCsv:
    """A malformed CSV row is a data error (exit 3) naming its line, raised
    before any command creates its output directory."""

    # line 5 belongs to alice, the user train and evaluate hold out by default
    CORRUPT = {
        "not-utf8": lambda line: line.replace(b"alice", b"al\xffice"),
        "overlong-quoted-cell": lambda line: line.replace(
            b"alice", b'"' + b"a" * 131_073 + b'"'),
        "missing-user-cell": lambda line: line.rsplit(b",", 1)[0],
        "inf-sensor-cell": lambda line: b"inf" + line[line.index(b","):],
        "nan-sensor-cell": lambda line: b"nan" + line[line.index(b","):],
    }

    @pytest.mark.parametrize("command", (
        ["encode", "--scheme", "binary6"],
        ["train", "--scheme", "binary6", "--epochs", "1"],
        ["evaluate", "--schemes", "binary6", "--epochs", "1"],
    ), ids=("encode", "train", "evaluate"))
    @pytest.mark.parametrize("fault", CORRUPT)
    def test_exits_3_naming_the_line(self, fault, command, tmp_path, capsys):
        path = TestCsvNormalization().write_csv(tmp_path / "in.csv", None)
        lines = path.read_bytes().splitlines()
        assert lines[4].endswith(b",alice")
        lines[4] = self.CORRUPT[fault](lines[4])
        path.write_bytes(b"\n".join(lines) + b"\n")
        out = tmp_path / "out"
        assert run([command[0], path, "--duration", "1.0", *command[1:],
                    "--out", out]) == 3
        assert_one_error_line(capsys, f"{path}: line 5: ")
        assert not out.exists()


class _Captured(Exception):
    pass


class TestCsvNormalization:
    """train and evaluate fit the min-max statistics on the training users
    only, so the held-out user's values cannot move the training windows."""

    HEADER = "acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,hbc,label,user"

    def write_csv(self, path, scaled_user):
        rows = []
        for user in ("alice", "bob"):
            scale = 5.0 if user == scaled_user else 1.0
            for shift, label in enumerate(("Squat", "Walking")):
                for i in range(40):  # two 1 s windows at 20 Hz
                    cells = [f"{scale * ((i * (ch + 2) + 3 * shift) % 11) / 10:.3f}"
                             for ch in range(7)]
                    rows.append(",".join(cells + [label, user]))
        path.write_text(self.HEADER + "\n" + "\n".join(rows) + "\n")
        return path

    @pytest.mark.parametrize("held_out, holdout_args", (
        ("bob", ["--holdout-user", "bob"]),
        ("alice", []),  # the default holds out the first user
    ))
    def test_train_windows_ignore_the_held_out_user(self, held_out, holdout_args,
                                                    tmp_path):
        fingerprints = []
        for scaled in (None, held_out):
            csv_path = self.write_csv(tmp_path / f"{scaled}.csv", scaled)
            out = tmp_path / f"model-{scaled}"
            assert run(["train", csv_path, "--duration", "1.0", *holdout_args,
                        "--scheme", "ttfs-linear", "--steps", "5", "--epochs", "1",
                        "--batch", "4", "--out", out]) == 0
            sidecar = json.loads((out / "checkpoint.cuba.json").read_text())
            fingerprints.append(sidecar["dataset_fingerprint"])
        assert fingerprints[0] == fingerprints[1]

    def test_evaluate_windows_ignore_the_held_out_user(self, tmp_path, monkeypatch):
        seen = []

        def capture(name, config, train_ds, test_ds, *args, **kwargs):
            seen.append((np.stack([s.data for s in train_ds.signals]),
                         np.stack([s.data for s in test_ds.signals])))
            raise _Captured

        monkeypatch.setattr(cli, "evaluate_scheme", capture)
        for scaled in (None, "bob"):
            csv_path = self.write_csv(tmp_path / f"{scaled}.csv", scaled)
            with pytest.raises(_Captured):
                run(["evaluate", csv_path, "--duration", "1.0", "--holdout-user", "bob",
                     "--schemes", "ttfs-linear", "--out", tmp_path / "rep"])
        (train_a, test_a), (train_b, test_b) = seen
        assert np.array_equal(train_a, train_b)
        # the scaled held-out rows are clamped into [0, 1], not refitted
        assert test_b.min() >= 0.0 and test_b.max() == 1.0
        assert not np.array_equal(test_a, test_b)


# CLI fuzzing: every option of build_parser() takes values a valid run
# accepts, so that deep paths are reached too, or as often the extremes
# argparse lets through to the command: NaN, +-inf, 0, negatives, 1e300 and
# 2**64 where the option's type converts them.  Values go in --option=value
# form, so that "-inf" reaches the option's type instead of parsing as a
# flag.
EXTREME_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", str(2 ** 64), str(-2 ** 64))
# a run small enough for the capped blocks, before the drawn options
SMALL_RUN = {"--samples-per-class": "4", "--duration": "1", "--steps": "5",
             "--batch": "4"}
VALID_VALUES = {
    int: ("1", "2", "3", "5"),
    float: ("0.05", "0.1", "0.5", "1", "2", "20"),
    str: ("", "user0", "0.1,0.3", "binary6,delta-mod", "ttfs-log", "x"),
}


def _subcommands():
    """{name: subparser} of build_parser()."""
    (subs,) = (a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return subs.choices


def _accepts(action, text) -> bool:
    """Whether argparse passes text on as the value of action."""
    try:
        value = (action.type or str)(text)
    except ValueError:
        return False
    return action.choices is None or value in action.choices


@st.composite
def cli_argv(draw, checkpoint, spikes, out):
    """argv for one subcommand: synth input, or the given files for infer
    and perturb; the SMALL_RUN values, then every required option and up
    to three others (a repeated option's last value counts)."""
    command, sub = draw(st.sampled_from(sorted(_subcommands().items())))
    argv = [command, *{"infer": [checkpoint, spikes], "perturb": [spikes]}.get(
        command, ["synth"])]
    options = [a for a in sub._actions if a.option_strings and a.dest != "help"]
    for flag in (a.option_strings[0] for a in options):
        if flag == "--out":
            argv += [flag, out]
        elif flag in SMALL_RUN:
            argv.append(f"{flag}={SMALL_RUN[flag]}")
    optional = [a for a in options if not a.required]
    chosen = draw(st.lists(st.sampled_from(optional), max_size=3,
                           unique=True)) if optional else []
    for action in [a for a in options if a.required and a.dest != "out"] + chosen:
        valid = action.choices or VALID_VALUES[action.type or str]
        extremes = [v for v in EXTREME_VALUES if _accepts(action, v)]
        value = draw(st.sampled_from(valid) | st.sampled_from(extremes or valid))
        argv.append(f"{action.option_strings[0]}={value}")
    return [str(a) for a in argv]


class TestFuzzArguments:
    """Whatever values the options hold, main returns 0, 2, 3 or 4, or
    argparse exits with 2; no other exception escapes.  Blocks are capped
    at 4 MiB, and training and the per-variant evaluation are stubbed, so
    that a valid --epochs 2**64 or --noise-seeds 2**64 ends at once."""

    @pytest.fixture(scope="class")
    def files(self, model_dir, spikes_dir, tmp_path_factory):
        def fit(config, train_ds, *args, **kwargs):
            history = [EpochStats(1, 0.5, 1.0, 1.0)]
            return [], [], TrainResult(CubaNetwork((2, 3), seed=1), history, 1, 1.0)

        def evaluate_scheme(name, *args, **kwargs):
            return SchemeEvaluation(name, (1, 7, 20), 1.0, 2.0, 3.0, 0.5,
                                    dict.fromkeys(DEFAULT_P_LIST, 0.0))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "MAX_BLOCK_BYTES", 4 << 20)
            patch.setattr(cli, "fit_variant", fit)
            patch.setattr(cli, "evaluate_scheme", evaluate_scheme)
            yield (model_dir / "checkpoint.cuba", spikes_dir / "w00000.spk",
                   tmp_path_factory.mktemp("fuzz") / "out")

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_exit_code_is_documented(self, files, data):
        argv = data.draw(cli_argv(*files))
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
        else:
            assert code in (0, 2, 3, 4), argv
