"""Golden outputs: every file and stdout of the README `evaluate`, the CI
`train`, and `encode` -> `perturb` -> `infer` under all eight variants,
pinned by sha256.

The pins record the intended outputs.  A change that means to move one
says so in CHANGES.md, with the old and the new digest.  Only what names
the build is masked: the `git describe` version and the --out path.  The
same pins hold under every OpenBLAS core type and thread count probed, and
on the kernel's numpy fallback.
"""

import contextlib
import hashlib
import io
import json

import pytest

from spikecodec import cli
from spikecodec.evaluation import VARIANT_NAMES

README_EVALUATE = ["evaluate", "synth", "--samples-per-class", "20", "--steps", "20",
                   "--epochs", "2", "--lr", "2e-3", "--batch", "16",
                   "--noise-seeds", "4", "--out", "report"]
CI_TRAIN = ["train", "synth", "--scheme", "ttfs-linear", "--steps", "50",
            "--epochs", "2", "--lr", "2e-3", "--out", "model"]
# one window per class and user 0 only; --steps 50 for every variant, so
# that the ttfs-linear files match the CI checkpoint's encoding
SMALL_SET = ["synth", "--samples-per-class", "1", "--users", "1",
             "--duration", "1", "--steps", "50"]

PINS = {
    "evaluate": {
        "report.json":
            "cd57dbfb1193034df999a6da5be40d6cb07ba78ddc1810f7e41c1509288c0fe2",
        "report.csv":
            "9d249caec1f33925a7add061d8c285ab04542d321901ac320eb481c76cfae667",
        "stdout":
            "e8d87027a4c485040c5530c4d38aa5b8050d4018e48d8abe371bcd1f4488d694",
    },
    "train": {
        "checkpoint.cuba":
            "ef94fc0a8c7ff3af8b8fd89d04afd29864a28cd25c8cef82d3493df44c2dca19",
        "checkpoint.cuba.json":
            "fef00358c5f3723777bad3ac73a5d14e2f77f23c4ac5cd110f051a50f675ff6c",
        "history.csv":
            "9258e1a7c7cb7f3c0584586a271c1af34a32866c2206244d62b33ee1722dca81",
        "stdout":
            "eb2bdf50d89e7370bf8d85d88b1f6e5aa7a090365606cc037c805130e674907f",
    },
    "spike files": {
        "rate-uniform stdout":
            "e7828006d8e4d9b3ab50e0a354c6b2d582b2ce2462042c1b3ea1dc6930d7aa2d",
        "rate-normal stdout":
            "1e92b7076e553123534889e0090d660e7443941815823330c635f24136d548f2",
        "rate-beta stdout":
            "5db3887f81e475d6507144840f3c5a2ce19a291f1f6d185856ab0f425169cb83",
        "ttfs-linear stdout":
            "4e401361706fad2e1d6fd45c7d553ff8b1874d9803276e2303d20dbfe1dbcb84",
        "ttfs-log stdout":
            "fdb31136f6ed9022ad4e53d127ff70f2b5a61f40b0a2c7c9b78082871f010aea",
        "binary6 stdout":
            "098dbd926738ea80414cfaf7a79313152fefb0cf1d158adcf2341a20e0c14431",
        "binary10 stdout":
            "9ecf37c574ff011e1da48a7103d440f31c59091b38d20bce57619d647122ebc3",
        "delta-mod stdout":
            "5d7451503479a267c24808797b48181fb32d441be50d9956d6b40abe2ed7f0f1",
        "spikes":
            "b9a6ddcca8fc03475c89bc8cb646d18b0151bd33e68291d1eb0ab4667ef40305",
        "noisy":
            "7148152c38a127889cdeee8a343f1683601742409d961a8513469201c5046305",
        "infer stdout":
            "287852e92c87bbac30d30001ec952a036c3d6b54b6413b6003d0e5765831118f",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_masked(raw: bytes, mask) -> str:
    """The digest of a JSON file in the package's layout (two-space indent,
    sorted keys, a final newline), after mask(doc) blanks its build
    fields."""
    doc = json.loads(raw)
    layout = lambda d: (json.dumps(d, indent=2, sort_keys=True) + "\n").encode()
    assert raw == layout(doc)
    mask(doc)
    return sha256(layout(doc))


def run(argv) -> str:
    """cli.main's stdout; the command must exit 0."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0, argv
    return out.getvalue()


def mask_report(doc):
    doc["version"] = doc["config"]["out"] = "<masked>"


def mask_provenance(doc):
    doc["provenance_version"] = "<masked>"


def csv_without_version(raw: bytes) -> str:
    lines = raw.decode().splitlines()
    assert lines[0].endswith(",version")
    return sha256("".join(line.rsplit(",", 1)[0] + "\n" for line in lines).encode())


def manifest(directory) -> str:
    """The digest of every file under directory: its names and bytes."""
    return sha256("".join(f"{sha256(p.read_bytes())}  {p.relative_to(directory)}\n"
                          for p in sorted(directory.rglob("*")) if p.is_file()).encode())


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """{command: {output: sha256}} of every pinned command, run in one
    fresh directory with relative paths."""
    work = tmp_path_factory.mktemp("golden")
    found = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(work)
        stdout = run(README_EVALUATE)
        found["evaluate"] = {
            "report.json": json_masked((work / "report/report.json").read_bytes(),
                                       mask_report),
            "report.csv": csv_without_version((work / "report/report.csv").read_bytes()),
            "stdout": sha256(stdout.encode()),
        }
        stdout = run(CI_TRAIN)
        found["train"] = {
            "checkpoint.cuba": sha256((work / "model/checkpoint.cuba").read_bytes()),
            "checkpoint.cuba.json": json_masked(
                (work / "model/checkpoint.cuba.json").read_bytes(), mask_provenance),
            "history.csv": sha256((work / "model/history.csv").read_bytes()),
            "stdout": sha256(stdout.encode()),
        }
        outputs = {}
        for name in VARIANT_NAMES:
            stdout = run(["encode", *SMALL_SET, "--scheme", name, "--out", f"spikes/{name}"])
            stdout += run(["perturb", *sorted(f"spikes/{name}/{p.name}" for p in
                                              (work / "spikes" / name).glob("*.spk")),
                           "--noise-p", "0.1", "--seed", "3", "--out", f"noisy/{name}"])
            outputs[f"{name} stdout"] = sha256(stdout.encode())
        outputs["spikes"] = manifest(work / "spikes")
        outputs["noisy"] = manifest(work / "noisy")
        outputs["infer stdout"] = sha256(run(
            ["infer", "model/checkpoint.cuba",
             *sorted(str(p.relative_to(work)) for p in work.glob("*/ttfs-linear/*.spk"))]
        ).encode())
        found["spike files"] = outputs
    return found


@pytest.mark.parametrize("command", sorted(PINS))
def test_outputs_match_their_pins(digests, command):
    assert digests[command] == PINS[command]
