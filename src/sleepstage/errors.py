"""Exception hierarchy shared across the package.

Each class carries the CLI exit code and the stderr prefix (`kind`) it ends
with: 2 configuration, 3 data, 4 runtime or network.
"""

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


class SleepStageError(Exception):
    """Base class for every error this package raises deliberately."""

    kind = "runtime"
    exit_code = EXIT_RUNTIME


class DataError(SleepStageError):
    """An input file or corpus holds something the pipeline cannot use."""

    kind = "data"
    exit_code = EXIT_DATA


class ConfigError(SleepStageError):
    """Run configuration file or overrides failed validation."""

    kind = "configuration"
    exit_code = EXIT_CONFIG


# --- EDF ingestion ---

class TruncatedFile(DataError):
    """Byte stream ends before the declared header or data records do."""


class MalformedHeader(DataError):
    """A fixed-width header field holds something it must not."""


class SignalNotFound(DataError):
    """Requested channel label is absent from the recording."""


class DegenerateCalibration(DataError):
    """digital_min == digital_max, so the affine map is undefined."""


class OverlappingAnnotations(DataError):
    """Hypnogram intervals overlap or run backwards."""


class UnknownStageString(DataError):
    """Annotation text is not one of the scored-stage vocabulary."""


class SampleRateMismatch(DataError):
    """30 s of signal is not a whole number of samples."""


# --- preprocessing ---

class EmptySignal(DataError):
    pass


class DegenerateSignal(DataError):
    """5th and 95th percentiles coincide; normalization undefined."""


# --- tensor engine ---

class ShapeMismatch(SleepStageError):
    pass


class NegativeThreshold(SleepStageError):
    """Soft threshold requires tau >= 0 elementwise."""


class NonScalarLoss(SleepStageError):
    """backward() only starts from a single-element tensor."""


class GraphConsumed(SleepStageError):
    """backward() was already run on this graph."""


# --- training ---

class ZeroProportion(DataError):
    pass


class MissingGradient(SleepStageError):
    """Optimizer stepped over a parameter whose grad was never populated."""


class EmptySplit(DataError):
    pass


class NonFiniteLoss(SleepStageError):
    """A training step's loss or global gradient norm is NaN or infinite."""


# --- evaluation ---

class UndefinedMetric(SleepStageError):
    """Metric denominator is zero (reported as absent, never as 0)."""


class TooFewSamples(DataError):
    pass


class TooFewSubjects(DataError):
    pass


class SingleClassPresent(DataError):
    """ROC/PR curve requested for a class with no positive examples."""


# --- CLI / fetch ---

class ChecksumMismatch(DataError):
    pass


class NetworkFailure(SleepStageError):
    kind = "network"


class ConfigMismatch(ConfigError):
    """Checkpoint and requested run disagree (channel, shapes, ...)."""
