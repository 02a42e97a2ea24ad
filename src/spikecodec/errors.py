"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`SpikeCodecError`, so callers
(and the CLI) can distinguish our failures from genuine bugs.
"""


class SpikeCodecError(Exception):
    """Base class for all errors raised by spikecodec."""


class DomainError(SpikeCodecError):
    """A value lies outside the mathematical domain of an operation."""


class OutOfRangeError(DomainError):
    """A signal value falls outside the normalized [0, 1] range."""

    def __init__(self, channel, index, value):
        self.channel = int(channel)
        self.index = int(index)
        self.value = float(value)
        super().__init__(
            f"signal value {self.value!r} outside [0, 1] at "
            f"channel {self.channel}, sample {self.index}"
        )


class NonFiniteValueError(DomainError):
    """A signal contains NaN or infinity."""

    def __init__(self, channel, index, value):
        self.channel = int(channel)
        self.index = int(index)
        self.value = float(value)
        super().__init__(
            f"non-finite signal value {self.value!r} at "
            f"channel {self.channel}, sample {self.index}"
        )


class RaggedChannelsError(SpikeCodecError):
    """Signal channels have differing sample counts."""


class ShapeError(SpikeCodecError):
    """Array shapes are inconsistent with what an operation requires."""


class ConfigError(SpikeCodecError):
    """An encoding or training configuration value is invalid."""


class ThresholdOrderError(ConfigError):
    """A delta-modulation threshold bank is not strictly increasing."""


class MultipleSpikesInWindowError(SpikeCodecError):
    """A time-to-first-spike window contains more than one spike."""


class InconsistentSpikesError(SpikeCodecError):
    """Parallel threshold channels fired with mixed signs at one step."""


class DivergenceError(SpikeCodecError):
    """Training loss became non-finite."""


class EmptyDatasetError(SpikeCodecError):
    """A dataset required for an operation contains no samples."""


class ParseError(SpikeCodecError):
    """A file's contents could not be parsed or hold invalid values: a CSV
    header, cell or label, a JSON sidecar (not an object, or a field of the
    wrong type or value), or an SPK1/CUB1 field such as a zero width."""


class MissingColumnError(ParseError):
    """A required CSV column is absent."""


class LabelError(ParseError):
    """A label string is not part of the configured vocabulary."""


class BadMagicError(SpikeCodecError):
    """A binary file does not start with the expected magic bytes."""


class VersionMismatchError(SpikeCodecError):
    """A binary file uses an unsupported format version."""


class TruncatedPayloadError(SpikeCodecError):
    """A binary file payload is shorter than its header promises."""


class DegenerateChannelWarning(UserWarning):
    """A channel with zero spread was mapped to the constant 0.5."""
