"""Train the spiking classifier on two encoding variants and compare how
they survive spike errors.

Trains on a small synthetic activity task (a minute or so on a laptop),
then sweeps error probabilities over the test split: the single-spike TTFS
code collapses under noise while the five-threshold delta code barely
moves.

    python demos/train_and_perturb.py
"""

from spikecodec import TrainConfig, noise_mode_for, robustness_sweep, synth_dataset
from spikecodec.evaluation import fit_variant, variant_config


def main():
    ds = synth_dataset(n_classes=3, samples_per_class=30, seed=42, seconds=1.0)
    train_ds, test_ds = ds.split_leave_one_user_out("user0")
    print(f"{len(train_ds)} training windows, {len(test_ds)} test windows\n")

    for name in ("ttfs-linear", "delta-mod"):
        config = variant_config(name, steps_per_sample=20, seed=0)
        cfg = TrainConfig(epochs=20, learning_rate=2e-3, batch_size=16, seed=3)
        _, encoded_test, result = fit_variant(config, train_ds, test_ds, cfg,
                                              net_seed=5, track_train_accuracy=False)
        print(f"{name}: clean test accuracy {result.best_test_accuracy:.3f}")

        rows = robustness_sweep(result.net, encoded_test, (0.001, 0.01, 0.1),
                                noise_mode_for(config.scheme), seed=1,
                                baseline_accuracy=result.best_test_accuracy)
        for row in rows:
            print(f"  p={row.error_probability:<6g} accuracy {row.accuracy:.3f} "
                  f"(drop {row.accuracy_drop:+.3f})")
        print()


if __name__ == "__main__":
    main()
