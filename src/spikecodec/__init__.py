"""spikecodec: spike-train encoding schemes for 1-D sensor signals.

Encode normalized signals into ternary spike tensors (rate, time-to-first-
spike, binary, delta modulation), decode them back, measure firing rate and
reconstruction SNR, and train a current-based LIF classifier on the encoded
streams.
"""

from .core import (
    EncodingConfig,
    HBC_THRESHOLDS,
    IMU_THRESHOLDS,
    Rng,
    Scheme,
    Signal,
    SpikeTensor,
    default_threshold_banks,
    derive_seed,
    validate_signal,
)
from .encoders import (
    encode,
    encode_binary,
    encode_delta,
    encode_rate,
    encode_ttfs,
    map_value_to_rate,
)
from .decoders import (
    decode,
    decode_binary,
    decode_delta,
    decode_rate,
    decode_ttfs,
    rate_ppf,
)
from .metrics import (
    NoiseMode,
    NoiseSpec,
    RobustnessRow,
    afr,
    inject_noise,
    noise_mode_for,
    robustness_sweep,
    snr_db,
)
from .snn import (
    Classification,
    CubaNetwork,
    GradCheckResult,
    TrainConfig,
    TrainResult,
    classify_batch,
    classify_detailed,
    gradient_check,
    load_checkpoint,
    output_rates,
    save_checkpoint,
    train,
)
from .dataio import (
    NormStats,
    SessionRecord,
    WindowedDataset,
    interpolate_linear,
    downsample,
    load_csv,
    normalize,
    read_spikes,
    synth_dataset,
    window,
    write_spikes,
)

__version__ = "0.1.0"
