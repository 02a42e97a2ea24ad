"""Fuzzing the binary readers: whatever bytes an SPK1 file, a CUB1
checkpoint or a JSON sidecar holds, reading it gives a value or a
SpikeCodecError, never any other exception; and whatever JSON types the
sidecar fields the CLI reads hold, `infer` and `perturb` exit 0 or 3."""

import json
import struct
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecodec import EncodingConfig, SpikeTensor
from spikecodec.cli import main
from spikecodec.dataio import read_spikes, write_spikes
from spikecodec.errors import SpikeCodecError
from spikecodec.snn import CubaNetwork, load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=250, deadline=None, database=None)

f64 = st.floats(allow_nan=True, allow_infinity=True)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | f64 | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
sidecars = st.one_of(
    st.none(),
    st.binary(max_size=40),
    json_values.map(lambda v: json.dumps(v).encode()),
    st.dictionaries(st.sampled_from(["window_steps", "encoding", "label_names"]),
                    json_values, max_size=3).map(lambda d: json.dumps(d).encode()),
)


def prefixed(magic):
    """Bytes behind a valid magic and version, so the fields after them are
    reached."""
    return st.binary(max_size=80).map(lambda rest: magic + b"\x01\x00" + rest)


@st.composite
def spike_files(draw):
    dims = draw(st.lists(st.integers(0, 4), min_size=3, max_size=3))
    header = b"SPK1" + struct.pack("<HB3Id", 1, 3, *dims, draw(f64))
    payload = draw(st.binary(max_size=70))
    return header + payload


@st.composite
def checkpoints(draw):
    # valid widths and constants half of the time, so the sidecar is reached
    width = draw(st.sampled_from((st.integers(1, 3), st.integers(0, 3))))
    unit = draw(st.sampled_from((st.floats(0.05, 0.95), f64)))
    n_layers = draw(st.integers(0, 3))
    sizes = draw(st.lists(width, min_size=n_layers + 1, max_size=n_layers + 1))
    blob = b"CUB1" + struct.pack(f"<HB{n_layers + 1}I", 1, n_layers, *sizes)
    blob += struct.pack("<d", draw(unit))
    for _ in range(n_layers):
        blob += struct.pack("<3d", *(draw(unit) for _ in range(3)))
    need = 4 * sum(a * b for a, b in zip(sizes, sizes[1:]))
    return blob + draw(st.binary(min_size=need, max_size=need + 8)
                       | st.binary(max_size=need))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def read_or_fail_cleanly(reader, path, sidecar_path, blob, sidecar):
    path.write_bytes(blob)
    if sidecar is None:
        sidecar_path.unlink(missing_ok=True)
    else:
        sidecar_path.write_bytes(sidecar)
    try:
        reader(path)
    except SpikeCodecError:
        pass


@FUZZ
@given(blob=st.one_of(st.binary(max_size=80), prefixed(b"SPK1"), spike_files()),
       sidecar=sidecars)
def test_spike_reader_gives_a_value_or_a_spikecodec_error(fuzz_dir, blob, sidecar):
    read_or_fail_cleanly(read_spikes, fuzz_dir / "f.spk", fuzz_dir / "f.json",
                         blob, sidecar)


# random weight bytes include signalling NaNs, whose float32 -> float64
# cast sets numpy's invalid-value flag; such a checkpoint still loads
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@FUZZ
@given(blob=st.one_of(st.binary(max_size=80), prefixed(b"CUB1"), checkpoints()),
       sidecar=sidecars)
def test_checkpoint_reader_gives_a_value_or_a_spikecodec_error(fuzz_dir, blob,
                                                               sidecar):
    read_or_fail_cleanly(load_checkpoint, fuzz_dir / "m.cuba",
                         fuzz_dir / "m.cuba.json", blob, sidecar)


# Sidecar fields of random JSON types, beside values of the right type:
# encoding objects with known, misspelt and unknown keys, and label lists.
encodings = st.dictionaries(
    st.sampled_from([f.name for f in fields(EncodingConfig)] + ["bogus"]),
    json_values | st.sampled_from(["ttfs-log", "delta-mod", "binary", 2, [[0.1]]]),
    max_size=4)
typed_sidecars = st.fixed_dictionaries({}, optional={
    "encoding": json_values | encodings,
    "label_names": json_values | st.lists(st.text(max_size=3), max_size=4),
})


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A (2, 3) checkpoint and a spike file it can classify."""
    root = tmp_path_factory.mktemp("cli")
    ckpt = root / "m.cuba"
    save_checkpoint(CubaNetwork((2, 3), dropout_p=0.0, seed=1), ckpt)
    spk = root / "w.spk"
    write_spikes(SpikeTensor([[[1, 0, -1, 0, 1], [0, 1, 0, 1, 0]]], 1.0), {}, spk)
    return root, ckpt, spk


@FUZZ
@given(sidecar=typed_sidecars)
def test_infer_exits_cleanly_whatever_the_checkpoint_sidecar_holds(cli_files,
                                                                   sidecar):
    _, ckpt, spk = cli_files
    ckpt.with_name("m.cuba.json").write_text(json.dumps(sidecar))
    assert main(["infer", str(ckpt), str(spk)]) in (0, 3)


@FUZZ
@given(sidecar=typed_sidecars)
def test_perturb_exits_cleanly_whatever_the_spike_sidecar_holds(cli_files,
                                                                sidecar):
    root, _, spk = cli_files
    spk.with_suffix(".json").write_text(json.dumps(sidecar))
    assert main(["perturb", str(spk), "--noise-p", "0.2", "--mode", "auto",
                 "--out", str(root / "out")]) in (0, 3)
