"""Walk one synthetic sensor window through every encoding variant.

For each scheme this prints the tensor layout, the average firing rate, and
the reconstruction SNR after decoding the spikes back into a signal.  Runs
in a second or two:

    python demos/encoding_gallery.py
"""

from spikecodec import Rng, afr, encode, snr_db, synth_dataset
from spikecodec.evaluation import VARIANT_NAMES, reconstruct, variant_config


def main():
    ds = synth_dataset(n_classes=3, samples_per_class=1, seed=42, seconds=2.0)
    signal = ds.signals[0]
    print(f"input window: {signal.n_channels} channels x {signal.n_samples} "
          f"samples at {signal.sample_rate_hz:g} Hz")
    print(f"value range [{signal.data.min():.3f}, {signal.data.max():.3f}], "
          f"mean {signal.data.mean():.3f}\n")

    header = f"{'scheme':14s} {'tensor':>14s} {'step':>7s} {'AFR':>8s} {'SNR':>9s}"
    print(header)
    print("-" * len(header))
    for name in VARIANT_NAMES:
        config = variant_config(name, steps_per_sample=50, seed=7)
        tensor = encode(signal, config, Rng(7))
        recon = reconstruct(tensor, config, signal)
        shape = "x".join(str(d) for d in tensor.shape)
        print(f"{name:14s} {shape:>14s} {tensor.time_step_ms:>5g}ms "
              f"{100 * afr(tensor):>7.2f}% {snr_db(signal, recon):>7.2f}dB")

    print("\nnotes:")
    print("  - the single-spike TTFS codes sit at the 2% firing-rate floor")
    print("  - binary-10 wins SNR through its 2^-10 resolution")
    print("  - rate codes trade SNR for the statistics the classifier likes")


if __name__ == "__main__":
    main()
