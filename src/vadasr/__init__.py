"""Streaming voice-activity detection and CTC speech recognition.

A small multi-task model (shared encoder, VAD branch, cross-task attention,
CTC head) with an online chunk-hopping streamer, prefix beam search, and a
two-stage training recipe — all in plain numpy.
"""

from .errors import (
    DataError,
    DimensionError,
    FormatError,
    InvalidSpecError,
    LayoutError,
    NumericError,
    UnsupportedFormatError,
    UsageError,
    VadAsrError,
    VocabularyError,
)

__version__ = "0.1.0"

# The CTC kernel is plain numpy; the benchmark records this in its results.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "DataError",
    "DimensionError",
    "FormatError",
    "InvalidSpecError",
    "LayoutError",
    "NumericError",
    "UnsupportedFormatError",
    "UsageError",
    "VadAsrError",
    "VocabularyError",
    "__version__",
]
