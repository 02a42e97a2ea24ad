"""CSV ingestion, normalization, windowing, interpolation, synthetic data,
and the SPK1 spike-file format."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest

from spikecodec import (
    EncodingConfig,
    Scheme,
    Signal,
    SpikeTensor,
    encode,
    interpolate_linear,
    downsample,
    load_csv,
    normalize,
    read_spikes,
    synth_dataset,
    window,
    write_spikes,
)
from spikecodec.dataio import DEFAULT_LABELS, SessionRecord, atomic_write
from spikecodec.snn import CubaNetwork, TrainConfig, load_checkpoint, save_checkpoint
from spikecodec.errors import (
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

HEADER = "acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,hbc,label,user"


def write_csv(path, rows):
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    return path


def sensor_row(value, label="Squat", user="alice"):
    return ",".join([f"{value}"] * 7 + [label, user])


class TestLoadCsv:
    def test_well_formed_rows(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [sensor_row(0.1), sensor_row(0.2),
                                              sensor_row(0.3)])
        records = load_csv(path)
        assert len(records) == 1
        assert records[0].n_rows == 3
        assert records[0].label == "Squat"
        assert records[0].user == "alice"

    def test_splits_on_label_change(self, tmp_path):
        rows = [sensor_row(0.1), sensor_row(0.2, label="Walking"), sensor_row(0.3)]
        records = load_csv(write_csv(tmp_path / "a.csv", rows))
        assert [r.label for r in records] == ["Squat", "Walking", "Squat"]

    def test_non_numeric_cell_reports_line(self, tmp_path):
        rows = [sensor_row(0.1), "x,0,0,0,0,0,0,Squat,alice"]
        with pytest.raises(ParseError, match="line 3"):
            load_csv(write_csv(tmp_path / "a.csv", rows))

    def test_unknown_label_lists_vocabulary(self, tmp_path):
        rows = [sensor_row(0.1, label="Flying")]
        with pytest.raises(LabelError, match="Adductor"):
            load_csv(write_csv(tmp_path / "a.csv", rows))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("acc_x,label,user\n0.1,Squat,alice\n")
        with pytest.raises(MissingColumnError, match="acc_y"):
            load_csv(path)


    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [sensor_row(0.1), sensor_row(0.2)])
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        records = load_csv(path)
        assert [(r.n_rows, r.label, r.user) for r in records] == [(2, "Squat", "alice")]

    def test_bytes_that_are_not_utf8_report_their_line(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(f"{HEADER}\n{sensor_row(0.1)}\n".encode()
                         + sensor_row(0.2).encode().replace(b"alice", b"al\xffice"))
        with pytest.raises(ParseError, match="line 3: not UTF-8"):
            load_csv(path)

    def test_overlong_quoted_cell_reports_its_line(self, tmp_path):
        long_user = '"' + "a" * 131_073 + '"'
        rows = [sensor_row(0.1), sensor_row(0.2, user=long_user)]
        with pytest.raises(ParseError, match="line 3: field larger"):
            load_csv(write_csv(tmp_path / "a.csv", rows))

    @pytest.mark.parametrize("row, cells", (
        (",".join(["0.2"] * 7 + ["Squat"]), 8),  # no user cell
        (sensor_row(0.2) + ",extra", 10),
    ), ids=("missing-user", "surplus-cell"))
    def test_row_of_another_width_than_the_header_reports_its_line(self, row, cells,
                                                                  tmp_path):
        with pytest.raises(ParseError, match=f"line 3: {cells} cells where the header has 9"):
            load_csv(write_csv(tmp_path / "a.csv", [sensor_row(0.1), row]))

    @pytest.mark.parametrize("cell", ("inf", "-inf", "nan", "1e999"))
    def test_non_finite_sensor_cell_reports_its_line(self, cell, tmp_path):
        rows = [sensor_row(0.1), sensor_row(0.2), sensor_row(cell)]
        with pytest.raises(ParseError, match="line 4: non-finite sensor cell"):
            load_csv(write_csv(tmp_path / "a.csv", rows))

    def test_line_numbers_count_blank_lines(self, tmp_path):
        rows = [sensor_row(0.1), "", "x,0,0,0,0,0,0,Squat,alice"]
        with pytest.raises(ParseError, match="line 4: non-numeric"):
            load_csv(write_csv(tmp_path / "a.csv", rows))


def test_session_record_leaves_the_callers_array_writeable():
    r = np.zeros((4, 7))
    rec = SessionRecord(r, "Squat", "u")
    r[0, 0] = 1.0
    assert rec.values[0, 0] == 0.0 and not rec.values.flags.writeable


class TestNormalize:
    def test_midpoint_of_symmetric_range(self):
        rec = SessionRecord(np.array([[-2.0], [0.0], [2.0]]), "Squat", "u")
        out, stats = normalize([rec])
        assert out[0].values[1, 0] == 0.5
        assert stats.minimum[0] == -2.0

    def test_constant_channel_maps_to_half_with_warning(self):
        rec = SessionRecord(np.full((5, 2), 3.0), "Squat", "u")
        with pytest.warns(DegenerateChannelWarning):
            out, _ = normalize([rec])
        assert (out[0].values == 0.5).all()

    def test_test_split_clamped_to_training_range(self):
        train = SessionRecord(np.array([[0.0], [10.0]]), "Squat", "u")
        _, stats = normalize([train])
        test = SessionRecord(np.array([[-5.0], [15.0]]), "Squat", "u")
        out, _ = normalize([test], stats)
        assert out[0].values[0, 0] == 0.0
        assert out[0].values[1, 0] == 1.0

    def test_idempotent_on_training_split(self):
        rng = np.random.default_rng(4)
        rec = SessionRecord(rng.normal(size=(50, 3)), "Squat", "u")
        once, _ = normalize([rec])
        twice, _ = normalize(once)
        np.testing.assert_allclose(twice[0].values, once[0].values, atol=1e-15)


class TestWindow:
    def test_window_arithmetic(self):
        # 10 s at 20 Hz with 2 s windows and 2 s stride -> 5 windows of 40
        rec = SessionRecord(np.zeros((200, 7)), "Squat", "u")
        ds = window([rec], 20.0, seconds=2.0)
        assert len(ds) == 5
        assert all(sig.n_samples == 40 for sig in ds.signals)

    def test_short_session_yields_nothing(self):
        rec = SessionRecord(np.zeros((30, 7)), "Squat", "u")
        assert len(window([rec], 20.0, seconds=2.0)) == 0

    def test_windows_never_straddle_label_changes(self, tmp_path):
        # 30 rows of one label then 30 of another: no 40-sample window fits
        # inside either run, so none are produced
        rows = [sensor_row(0.1)] * 30 + [sensor_row(0.2, label="Walking")] * 30
        records = load_csv(write_csv(tmp_path / "a.csv", rows))
        ds = window(records, 20.0, seconds=2.0)
        assert len(ds) == 0

    def test_stride_overlap(self):
        rec = SessionRecord(np.zeros((80, 7)), "Squat", "u")
        ds = window([rec], 20.0, seconds=2.0, stride_seconds=1.0)
        assert len(ds) == 3

    def test_leave_one_user_out_split(self):
        recs = [SessionRecord(np.zeros((40, 7)), "Squat", u) for u in "abc"]
        ds = window(recs, 20.0, seconds=2.0)
        train, test = ds.split_leave_one_user_out("b")
        assert set(test.users) == {"b"}
        assert "b" not in set(train.users)


class TestInterpolateLinear:
    def test_two_point_example(self):
        sig = Signal([[0.0, 1.0]], 20.0)
        out = interpolate_linear(sig, 5)
        np.testing.assert_allclose(out.data[0], [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        assert out.sample_rate_hz == 100.0

    def test_factor_one_is_identity(self):
        sig = Signal([[0.1, 0.4, 0.2]], 20.0)
        assert interpolate_linear(sig, 1) is sig

    def test_constant_stays_constant(self):
        sig = Signal(np.full((3, 10), 0.7), 20.0)
        out = interpolate_linear(sig, 4)
        assert (out.data == 0.7).all()

    def test_originals_preserved_at_stride_positions(self):
        rng = np.random.default_rng(2)
        sig = Signal(rng.uniform(0, 1, size=(2, 15)), 20.0)
        out = interpolate_linear(sig, 5)
        np.testing.assert_array_equal(out.data[:, ::5], sig.data)
        assert downsample(out, 5).data.shape == sig.data.shape

    def test_monotone_segments_preserved(self):
        sig = Signal(np.sort(np.random.default_rng(3).uniform(0, 1, size=(1, 20))),
                     20.0)
        out = interpolate_linear(sig, 7)
        assert (np.diff(out.data[0]) >= 0).all()


class TestSynthDataset:
    def test_counts_and_determinism(self):
        a = synth_dataset(3, 100, seed=5)
        b = synth_dataset(3, 100, seed=5)
        assert len(a) == 300
        assert np.array_equal(a.labels, b.labels)
        for sa, sb in zip(a.signals, b.signals):
            np.testing.assert_array_equal(sa.data, sb.data)

    def test_values_concentrate_near_midpoint(self):
        ds = synth_dataset(3, 20, seed=1)
        stacked = np.concatenate([s.data.ravel() for s in ds.signals])
        assert stacked.min() >= 0.0 and stacked.max() <= 1.0
        assert abs(stacked.mean() - 0.5) < 0.05
        assert np.percentile(np.abs(stacked - 0.5), 95) < 0.3

    def test_class_means_separated(self):
        ds = synth_dataset(4, 30, seed=2)
        means = []
        for c in range(4):
            idx = np.flatnonzero(ds.labels == c)
            means.append(np.mean([ds.signals[i].data for i in idx], axis=0))
        for i in range(4):
            for j in range(i + 1, 4):
                gap = np.linalg.norm(means[i] - means[j])
                assert gap > 1.0

    def test_users_cover_all_classes(self):
        ds = synth_dataset(3, 8, seed=0, n_users=4)
        for user in set(ds.users):
            _, test = ds.split_leave_one_user_out(user)
            assert set(test.labels.tolist()) == {0, 1, 2}

    def test_size_cap_counts_float64_samples(self, monkeypatch):
        from spikecodec import core

        # 2 x 3 windows of 7 channels x 40 samples: 13,440 bytes
        monkeypatch.setattr(core, "MAX_BLOCK_BYTES", 2 * 3 * 7 * 40 * 8)
        assert len(synth_dataset(2, 3, seed=0)) == 6
        for args in ((2, 4), (3, 3)):
            with pytest.raises(ConfigError, match="GiB cap"):
                synth_dataset(*args, seed=0)
        with pytest.raises(ConfigError):
            synth_dataset(2, 3, seed=0, seconds=2.05)


class TestSpikeFiles:
    def test_round_trip_random_tensors(self, tmp_path):
        rng = np.random.default_rng(31)
        path = tmp_path / "t.spk"
        for _ in range(1000):
            shape = tuple(int(s) for s in rng.integers(1, 5, size=3))
            data = rng.integers(-1, 2, size=shape).astype(np.int8)
            tensor = SpikeTensor(data, time_step_ms=float(rng.uniform(0.1, 60)),
                                 window_steps=int(rng.integers(1, 9)))
            write_spikes(tensor, {"label": 3}, path)
            back, metadata = read_spikes(path)
            assert np.array_equal(back.data, tensor.data)
            assert back.time_step_ms == tensor.time_step_ms
            assert back.window_steps == tensor.window_steps
            assert metadata["label"] == 3

    def test_encoding_config_serialized_in_sidecar(self, tmp_path):
        cfg = EncodingConfig(Scheme.DELTA_MOD, thresholds=(0.01, 0.02), seed=4)
        tensor = SpikeTensor(np.zeros((2, 1, 3), dtype=np.int8), 10.0, 5)
        path = tmp_path / "t.spk"
        write_spikes(tensor, {"encoding": cfg, "label": 1}, path)
        _, metadata = read_spikes(path)
        assert EncodingConfig.from_dict(metadata["encoding"]) == cfg
        sidecar = json.loads((tmp_path / "t.json").read_text())
        assert sidecar["window_steps"] == 5

    @pytest.mark.parametrize("steps", (2.7, "5", True))
    def test_sidecar_window_steps_not_an_integer(self, steps, tmp_path):
        path = tmp_path / "t.spk"
        write_spikes(SpikeTensor(np.zeros((1, 1, 3), dtype=np.int8), 1.0, 5), {}, path)
        (tmp_path / "t.json").write_text(json.dumps({"window_steps": steps}))
        with pytest.raises(ParseError, match="window_steps must be an integer"):
            read_spikes(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.spk"
        path.write_bytes(b"JUNK" + b"\x00" * 32)
        with pytest.raises(BadMagicError):
            read_spikes(path)

    def test_version_mismatch(self, tmp_path):
        tensor = SpikeTensor(np.zeros((1, 1, 2), dtype=np.int8), 1.0)
        path = tmp_path / "t.spk"
        write_spikes(tensor, {}, path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (7).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            read_spikes(path)

    def test_truncated_payload(self, tmp_path):
        tensor = SpikeTensor(np.ones((2, 3, 10), dtype=np.int8), 1.0)
        path = tmp_path / "t.spk"
        write_spikes(tensor, {}, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(TruncatedPayloadError):
            read_spikes(path)

    def test_every_cut_inside_the_header_is_a_truncation(self, tmp_path):
        tensor = SpikeTensor(np.ones((2, 3, 10), dtype=np.int8), 1.0)
        path = tmp_path / "t.spk"
        write_spikes(tensor, {}, path)
        header = path.read_bytes()[:4 + 2 + 1 + 3 * 4 + 8]
        for cut in range(4, len(header) + 1):
            path.write_bytes(header[:cut])
            with pytest.raises(TruncatedPayloadError):
                read_spikes(path)

    def test_bytes_after_the_payload_are_a_parse_error(self, tmp_path):
        tensor = SpikeTensor(np.ones((1, 7, 2), dtype=np.int8), 1.0)
        path = tmp_path / "t.spk"
        write_spikes(tensor, {}, path)
        path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(ParseError, match="3 extra byte"):
            read_spikes(path)

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path):
        (tmp_path / "t.spk").mkdir()
        with pytest.raises(OSError):
            atomic_write([(tmp_path / "t.spk", b"SPK1")])
        assert [p.name for p in tmp_path.iterdir()] == ["t.spk"]

    def test_failed_sidecar_write_removes_the_spike_file(self, tmp_path):
        (tmp_path / "t.json").mkdir()
        tensor = SpikeTensor(np.ones((1, 7, 2), dtype=np.int8), 1.0)
        with pytest.raises(OSError):
            write_spikes(tensor, {}, tmp_path / "t.spk")
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_failed_kth_rename_removes_the_files_before_it(self, k, tmp_path):
        names = ["a.spk", "a.json", "b.spk", "b.json"]
        (tmp_path / "old.csv").write_text("kept")
        (tmp_path / names[k - 1]).mkdir()  # the k-th rename fails
        with pytest.raises(OSError):
            atomic_write([(tmp_path / name, name.encode()) for name in names])
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [names[k - 1], "old.csv"])

    def test_group_naming_a_path_twice_is_refused_before_writing(self, tmp_path):
        tensor = SpikeTensor(np.ones((1, 7, 2), dtype=np.int8), 1.0)
        # the spike file and its sidecar would both be w.json
        with pytest.raises(ConfigError, match="w.json twice"):
            write_spikes(tensor, {"label": 1}, tmp_path / "w.json")
        with pytest.raises(ConfigError, match="twice"):
            atomic_write([(tmp_path / "a", b"1"), (tmp_path / "b", b"2"),
                          (tmp_path / "a", b"3")])
        # b.tmp would be both a file of the group and b's temporary file
        with pytest.raises(ConfigError, match="b.tmp twice"):
            atomic_write([(tmp_path / "b.tmp", b"1"), (tmp_path / "b", b"2")])
        assert list(tmp_path.iterdir()) == []

    def test_group_makes_its_missing_directories(self, tmp_path):
        atomic_write([(tmp_path / "a" / "b" / "x", b"1"), (tmp_path / "c" / "y", b"2")])
        assert (tmp_path / "a" / "b" / "x").read_bytes() == b"1"
        assert (tmp_path / "c" / "y").read_bytes() == b"2"

    def test_refused_group_makes_no_directory(self, tmp_path):
        out = tmp_path / "a" / "b"
        # every repeated path is named
        with pytest.raises(ConfigError, match=re.escape(f"names {out / 'x'}, {out / 'y'} twice")):
            atomic_write([(out / name, b"1") for name in ("x", "y", "x", "z", "y")])
        assert list(tmp_path.iterdir()) == []

    def test_dimension_count_other_than_three_is_a_shape_error(self, tmp_path):
        # 65 empty dimensions: past numpy's dimension limit, zero bytes long
        path = tmp_path / "t.spk"
        path.write_bytes(b"SPK1" + struct.pack("<HB65Id", 1, 65, *[0] * 65, 1.0))
        with pytest.raises(ShapeError):
            read_spikes(path)

    def test_dimensions_whose_product_overflows_int64_are_a_truncation(self,
                                                                      tmp_path):
        path = tmp_path / "t.spk"
        path.write_bytes(b"SPK1" + struct.pack("<HB3Id", 1, 3, 2**32 - 1,
                                               2**32 - 1, 2, 1.0))
        with pytest.raises(TruncatedPayloadError):
            read_spikes(path)

    def test_default_vocabulary_is_twelve_classes(self):
        assert len(DEFAULT_LABELS) == 12
        assert len(set(DEFAULT_LABELS)) == 12


class TestFileBytes:
    """The bytes of both containers and both sidecars, pinned by sha256."""

    PINNED = {
        "w.spk": "44eecd531f69e199e11fbd1378b6fc3f0819812ac75b8d46b5f2f748969d613f",
        "w.json": "9eb2c6c6fec51fbdfc6e7d75b28a6f83a6955a9e2ffe058936d6708de10ac895",
        "m.cuba": "69e272daf90c78a54f92577a0e90f00fe4219ad11ce9d573b261d46f60eef041",
        "m.cuba.json": "7c6a56318b176935d45a7e29919ba0151e4820d04d722d0eff4f8d087a0c2264",
    }

    def test_spike_file_checkpoint_and_sidecars_are_pinned(self, tmp_path):
        data = (np.arange(2 * 3 * 8).reshape(2, 3, 8) % 3 - 1).astype(np.int8)
        config = EncodingConfig(Scheme.DELTA_MOD, thresholds=(0.1, 0.2),
                                interp_factor=4, seed=9)
        write_spikes(SpikeTensor(data, time_step_ms=2.5, window_steps=4),
                     {"encoding": config, "label": 1, "user": "alice"},
                     tmp_path / "w.spk")
        net = CubaNetwork(
            (3, 4, 2), dropout_p=0.1,
            weights=[np.linspace(-1.0, 1.0, 12).reshape(4, 3),
                     np.linspace(0.5, -0.5, 8).reshape(2, 4)])
        save_checkpoint(net, tmp_path / "m.cuba",
                        train_config=TrainConfig(epochs=3, learning_rate=2e-3,
                                                 batch_size=8, seed=4),
                        sidecar_extra={"label_names": ["a", "b"], "best_epoch": 2})
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.iterdir()}
        assert not list(tmp_path.glob("*.tmp"))
        assert digests == self.PINNED

        # the same network with layer 1's neuron constants at (0.75, 0.25,
        # 0.125), after the 27-byte prefix and layer 0's 24 bytes, is the
        # file pinned when each layer could hold its own; it no longer loads
        path = tmp_path / "m.cuba"
        blob = bytearray(path.read_bytes())
        struct.pack_into("<3d", blob, 51, 0.75, 0.25, 0.125)
        path.write_bytes(bytes(blob))
        assert (hashlib.sha256(blob).hexdigest()
                == "69fb7c2c0c8391237a4363e85848fccddef907108dd8f9b0464b5dc53c9c9449")
        with pytest.raises(ParseError, match="layer 1 threshold"):
            load_checkpoint(path)

    def test_rate_normal_spike_file_and_sidecar_are_pinned(self, tmp_path):
        # the spikes follow the fixed Gaussian curve, and the sidecar
        # records it as normal_mu, normal_var and beta_shape
        signal = Signal(np.linspace(0.0, 1.0, 12).reshape(3, 4), sample_rate_hz=20.0)
        config = EncodingConfig(Scheme.RATE_NORMAL, steps_per_sample=5, seed=7)
        write_spikes(encode(signal, config), {"encoding": config, "label": 0},
                     tmp_path / "r.spk")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.iterdir()}
        assert digests == {
            "r.spk": "04b540e1f3b34cff188b2e0fd4e35c4e0d0ad2569adf98d859437ba1ef4890c5",
            "r.json": "865ebad150ecfc2adf56dd03bfefb7cdd7f6b4c3daa45e5144967d904742946d",
        }
