"""Exception hierarchy shared across the library.

Every concrete error derives from exactly one of three bases, and the
base fixes the command-line exit code: UsageError 1, DataError 2,
NumericFailure 3.
"""


class EvoSynthError(Exception):
    """Base class for all library errors."""

    exit_code: int


class UsageError(EvoSynthError):
    """The caller asked for something invalid: a bad option, config or parameter."""

    exit_code = 1


class DataError(EvoSynthError):
    """An input file or dataset is unreadable, malformed or unusable."""

    exit_code = 2


class NumericFailure(EvoSynthError):
    """A NaN or infinity appeared where only finite values are allowed."""

    exit_code = 3


# network construction and training

class InvalidSpec(UsageError):
    """Layer specification is empty, has a zero dimension, or is dimension-incompatible."""


class ShapeMismatch(DataError):
    """Input or gradient shapes do not match the network."""


class InvalidLabel(DataError):
    """A label is not a valid class index, or fewer than two classes are represented."""


class DatasetTooSmall(DataError):
    """Fewer training samples than one batch after the validation split."""


# genetic encoding

class DeadLayer(DataError):
    """A layer has no active synapse with nonzero weight."""


# data loading and persistence

class ParseError(DataError):
    """Malformed input file; the message names the offending location."""


class EmptyDataset(DataError):
    """The source contains no samples."""


class NonFiniteFeature(DataError):
    """A feature value is NaN or infinite; the message names the row."""


class BadMagic(DataError):
    """An IDX file does not start with the expected magic number."""


class CountMismatch(DataError):
    """Image and label counts of an IDX pair disagree."""


class TruncatedFile(DataError):
    """A binary file ends before the declared payload."""


class InvalidParam(UsageError):
    """A generator parameter is out of range."""


class IoError(DataError):
    """A file could not be read or written; the message names the path."""


class FormatVersionUnsupported(DataError):
    """A model file declares a format version this library does not know."""


class IntegrityError(DataError):
    """A model file violates its own structural contract."""


# command line

class ConfigError(UsageError):
    """A run configuration file or command-line option fails validation."""
