"""The variant table: every variant's codec, noise mode and configuration
pinned on one fixed window, and the lookups that read the table."""

import hashlib

import numpy as np
import pytest

from spikecodec import (
    Rng,
    Scheme,
    Signal,
    SpikeTensor,
    TrainConfig,
    decode_rate,
    decode_ttfs,
    encode,
    encode_rate,
    encode_ttfs,
    map_value_to_rate,
    noise_mode_for,
    rate_ppf,
    snr_db,
    synth_dataset,
)
from spikecodec.cli import SCHEME_CHOICES
from spikecodec.errors import ConfigError
from spikecodec.evaluation import (
    VARIANT_NAMES,
    VARIANTS,
    codec,
    encode_dataset,
    fit_variant,
    reconstruct,
    reconstruction_snr_db,
    variant_config,
)

# (variant, sha256 of the encoded tensor bytes, tensor shape, noise mode,
# reconstruction SNR in dB), recorded before the variant table replaced the
# per-module scheme switches.
PINS = [
    ("rate-uniform", "92fef015d8d290dd9a2f46c1fcb0abc0f29cb1337e758479d2f2cc073ef2913c",
     (1, 7, 400), "flip-binary", 14.297891170105919),
    ("rate-normal", "aee6e503d2e0c216d384e10c164c4fd8fb49d812b668f4f13590ccfe131a46f1",
     (1, 7, 400), "flip-binary", 12.767390894404858),
    ("rate-beta", "f6ace032115a8de6209d75a17373a791f86934333fe3fc75daf8321ae56d8e15",
     (1, 7, 400), "flip-binary", 16.48684722201458),
    ("ttfs-linear", "4e646cecc44c9960d0715eccbfd018d920b5ca351ad8983c2e97e3a35a2243cd",
     (1, 7, 400), "flip-binary", 25.376164758987215),
    ("ttfs-log", "78e87b296ae254b1ade979ca1ef05f6118aa97c2e24b43d9c870615507eaaaeb",
     (1, 7, 400), "signed-perturb", 27.057994498772047),
    ("binary6", "5fd2afbcdfc8b8f945274a88ee56148c633db0ad2b8e782eb8b3ad233edcae08",
     (6, 7, 20), "flip-binary", 34.83735619308764),
    ("binary10", "4a0e85d85034e360987c72715415604508d1da90ec95bf6f57f7da4369c57a6a",
     (10, 7, 20), "flip-binary", 58.52716402217808),
    ("delta-mod", "45ee67530c851eb783d9c20dad8b5d9cc262019cc8e48bdcfd9faac8776346f5",
     (5, 7, 95), "signed-perturb", 21.312063705740126),
    ("binary", "5fd2afbcdfc8b8f945274a88ee56148c633db0ad2b8e782eb8b3ad233edcae08",
     (6, 7, 20), "flip-binary", 34.83735619308764),
]


@pytest.fixture(scope="module")
def window():
    return synth_dataset(3, 1, seed=11, seconds=1.0).signals[1]


def test_pins_cover_every_cli_scheme():
    assert [pin[0] for pin in PINS] == list(SCHEME_CHOICES)


@pytest.mark.parametrize("name", SCHEME_CHOICES)
def test_variant_output_is_pinned(name, window):
    _, digest, shape, mode, snr = PINS[SCHEME_CHOICES.index(name)]
    config = variant_config(name, steps_per_sample=20, seed=5)
    tensor = encode(window, config, Rng(9))
    assert tensor.shape == shape
    assert VARIANTS[name].shape(config, *window.data.shape) == (shape[0], shape[2])
    assert hashlib.sha256(tensor.data.tobytes()).hexdigest() == digest
    assert noise_mode_for(config.scheme).value == mode
    assert snr_db(window, reconstruct(tensor, config, window)) == pytest.approx(
        snr, rel=1e-12)


def test_table_names_the_cli_choices_and_every_scheme():
    assert tuple(VARIANTS) == SCHEME_CHOICES
    assert VARIANT_NAMES == SCHEME_CHOICES[:-1] and len(VARIANT_NAMES) == 8
    assert {v.scheme for v in VARIANTS.values()} == set(Scheme)
    for scheme in Scheme:
        assert codec(scheme).scheme is scheme


def test_each_variant_takes_only_its_family_fields_and_seed():
    def taken(name, **given):
        c = variant_config(name, steps_per_sample=7, n_bits=3, interp_factor=2,
                           seed=4, **given)
        return c.n_bits, c.steps_per_sample, c.interp_factor, c.thresholds, c.seed

    # thresholds out of order would fail delta modulation; the others never read them
    assert taken("binary10", thresholds=(0.3, 0.1)) == (10, 50, 5, None, 4)
    assert taken("binary") == (3, 50, 5, None, 4)
    assert taken("rate-beta", thresholds=(0.3, 0.1)) == (6, 7, 5, None, 4)
    assert taken("ttfs-log", thresholds=(0.3, 0.1)) == (6, 7, 5, None, 4)
    assert taken("delta-mod", thresholds=(0.1, 0.3)) == (6, 50, 2, ((0.1, 0.3),), 4)


def test_unknown_variant_lists_the_table():
    with pytest.raises(ConfigError, match="binary10, delta-mod, binary$"):
        variant_config("morse")


def test_family_functions_reject_other_schemes():
    signal = Signal([[0.5]], 20.0)
    tensor = SpikeTensor(np.zeros((1, 1, 10), dtype=np.int8), 1.0, 10)
    for other in (Scheme.TTFS_LOG, Scheme.BINARY):
        for call in (lambda: map_value_to_rate(0.5, other),
                     lambda: rate_ppf(0.5, other),
                     lambda: encode_rate(signal, other, 10, Rng(0)),
                     lambda: decode_rate(tensor, other, 10)):
            with pytest.raises(ConfigError, match="is not a rate scheme"):
                call()
    with pytest.raises(ConfigError):
        encode_ttfs(signal, Scheme.RATE_BETA, 10)
    with pytest.raises(ConfigError):
        decode_ttfs(tensor, Scheme.BINARY, 10)


def test_snr_of_an_encoded_set_equals_encoding_it_afresh():
    ds = synth_dataset(2, 2, seed=3, seconds=1.0)
    config = variant_config("delta-mod", seed=2)
    encoded = encode_dataset(ds, config)
    assert (reconstruction_snr_db(ds, config, encoded=encoded)
            == reconstruction_snr_db(ds, config))


def test_encoded_size_cap_counts_spike_bytes(monkeypatch):
    from spikecodec import core

    ds = synth_dataset(2, 2, seed=3, seconds=1.0)  # 4 windows of 20 samples
    # 4 windows x 5 trains x 7 channels x 19 * 3 steps
    monkeypatch.setattr(core, "MAX_BLOCK_BYTES", 4 * 5 * 7 * 57)
    assert len(encode_dataset(ds, variant_config("delta-mod", interp_factor=3))) == 4
    # one window more, or one more step per sample interval
    for more, interp in ((ds.subset([0, 1, 2, 3, 0]), 3), (ds, 4)):
        with pytest.raises(ConfigError, match="spike bytes, over the 7,980-byte cap"):
            encode_dataset(more, variant_config("delta-mod", interp_factor=interp))


def test_training_size_cap_counts_float64_blocks(monkeypatch):
    from spikecodec import core, evaluation

    ds = synth_dataset(2, 2, seed=3, seconds=1.0)  # 4 windows of 20 samples
    train_ds, test_ds = ds.split_leave_one_user_out(ds.users[0])  # 2 and 2
    config = variant_config("delta-mod", interp_factor=3)  # 5 x 7 features, 57 steps
    # float64s: the inputs of both splits, 4 x 35 x 57, and one step of one
    # sample through 35-256-64-2, 57 x step_width 999
    inputs, step = 4 * 35 * 57, 57 * 999

    def fit(train, batch):
        return fit_variant(config, train, test_ds, TrainConfig(epochs=1, batch_size=batch),
                           net_seed=0, track_train_accuracy=False)

    cap = 8 * (inputs + 2 * step)
    monkeypatch.setattr(core, "MAX_BLOCK_BYTES", cap)
    # a batch holds at most the 2 windows of a split
    for batch in (2, 64):
        assert len(fit(train_ds, batch)[0]) == 2

    def encode_nothing(*args):
        raise AssertionError("a refused plan encoded a window")

    monkeypatch.setattr(evaluation, "encode_dataset", encode_nothing)
    with pytest.raises(ConfigError, match=f"float64 blocks, over the {cap:,}-byte cap"):
        fit(train_ds.subset([0, 1, 0]), 2)  # one window more
    monkeypatch.setattr(core, "MAX_BLOCK_BYTES", cap - 1)
    with pytest.raises(ConfigError, match=f"holds {cap:,} bytes of float64 blocks"):
        fit(train_ds, 2)
