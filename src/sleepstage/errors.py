"""Exception hierarchy shared across the package.

Each class carries the CLI exit code and the stderr prefix (`kind`) it ends
with: 2 configuration, 3 data, 4 runtime or network. A failure raises one of
the three bases; the message says what went wrong. A subclass exists only
where code tells it apart: `NetworkFailure` has its own prefix, `cmd_eval`
catches `SingleClassPresent`, `fetch` retries on `ChecksumMismatch`, and the
benchmark's tests name `TruncatedFile` and `EmptySplit`.
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
    """Run configuration, overrides or a checkpoint disagree with the run."""

    kind = "configuration"
    exit_code = EXIT_CONFIG


class NetworkFailure(SleepStageError):
    kind = "network"


class TruncatedFile(DataError):
    """Byte stream ends before the declared header or data records do."""


class EmptySplit(DataError):
    """A split holds no epochs, or the train and validation splits overlap."""


class SingleClassPresent(DataError):
    """ROC/PR curve requested for a class with no positive examples."""


class ChecksumMismatch(DataError):
    """A downloaded file's size or sha256 differs from its manifest entry."""
