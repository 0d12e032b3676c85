"""Exception types shared across the package.

The hierarchy is deliberately shallow: a CLI maps UsageError -> exit 1,
DataError -> exit 2, NumericError -> exit 3.
"""


class VadAsrError(Exception):
    """Base class for all package errors."""


class UsageError(VadAsrError):
    """Caller misuse: bad arguments, loss not on tape, etc."""


class DataError(VadAsrError):
    """Problem with input data or files."""


class FormatError(DataError):
    """Malformed file contents (bad magic, truncation, header garbage)."""


class UnsupportedFormatError(DataError):
    """Well-formed file we deliberately do not handle (stereo, 8-bit...)."""


class InvalidSpecError(DataError):
    """A corpus/config spec violates its invariants."""


class DimensionError(VadAsrError):
    """Shape mismatch between tensors or sequences."""

    def __init__(self, msg, *shapes):
        if shapes:
            msg = f"{msg}: {' vs '.join(str(s) for s in shapes)}"
        super().__init__(msg)


class LayoutError(VadAsrError):
    """Chunk layout violates coverage/bounds invariants."""


class VocabularyError(VadAsrError):
    """Token outside the expected vocabulary."""


class NumericError(VadAsrError):
    """Non-finite values where finite ones are required."""
