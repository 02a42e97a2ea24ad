"""What a fresh process loads: scipy only once a rate-normal window is
encoded or decoded.  Each check runs in a new interpreter, since other
tests load scipy into this one."""

import os
import subprocess
import sys

import spikecodec

SCRIPT = """
import sys

import numpy as np

import spikecodec, spikecodec.cli, spikecodec.evaluation
from spikecodec import (CubaNetwork, Scheme, classify_detailed,
                        decode, encode, map_value_to_rate, synth_dataset)
from spikecodec.core import NORMAL_MU, NORMAL_VAR
from spikecodec.decoders import rate_ppf
from spikecodec.evaluation import VARIANT_NAMES, variant_config

signal = synth_dataset(2, 1, seed=3, seconds=1.0).signals[0]
for name in VARIANT_NAMES:
    if name == "rate-normal":
        continue
    config = variant_config(name, steps_per_sample=10)
    tensor = encode(signal, config)
    decode(tensor, config)
    net = CubaNetwork((tensor.n_trains * tensor.n_channels, 3), dropout_p=0.0, seed=1)
    classify_detailed(net, tensor)
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy loaded"

config = variant_config("rate-normal", steps_per_sample=10)
decode(encode(signal, config), config)
assert "scipy.special" in sys.modules
from scipy.special import ndtr, ndtri

p = map_value_to_rate(signal.data, Scheme.RATE_NORMAL)
assert np.array_equal(p, ndtr((signal.data - NORMAL_MU) / np.sqrt(NORMAL_VAR)))
ppf = np.clip(NORMAL_MU + np.sqrt(NORMAL_VAR) * ndtri(np.clip(p, 1e-6, 1 - 1e-6)),
              0.0, 1.0)
assert np.array_equal(rate_ppf(p, Scheme.RATE_NORMAL), ppf)
print("ok")
"""


def test_scipy_loads_only_for_rate_normal():
    src = os.path.dirname(os.path.dirname(os.path.abspath(spikecodec.__file__)))
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
