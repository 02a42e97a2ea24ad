"""Command-line surface: reproducibility, exit codes, and report formats."""

import json
import struct
from importlib import resources

import jsonschema
import numpy as np
import pytest

from spikecodec import cli
from spikecodec.cli import main
from spikecodec.dataio import read_spikes
from spikecodec.errors import DegenerateChannelWarning

SYNTH_SMALL = ["synth", "--classes", "3", "--samples-per-class", "4",
               "--duration", "1.0"]


def run(args):
    return main([str(a) for a in args])


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
        # one for the parser's --version, one for the whole report
        assert len(calls) == 2
        assert json.loads((tmp_path / "report.json").read_text())["version"] == "v-test"
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

    def test_perturb_is_seed_reproducible(self, spikes_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run(["perturb", spikes_dir / "w00001.spk", "--noise-p", "0.3",
                 "--seed", "11", "--out", out])
            outs.append((out / "w00001.spk").read_bytes())
        assert outs[0] == outs[1]
