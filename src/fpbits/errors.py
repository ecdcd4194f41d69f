"""Typed error hierarchy.

Every failure mode the library can report deliberately is a subclass of
FpbitsError, so callers (and the CLI) can catch one base type and map it
to a message plus nonzero exit code instead of crashing on a bare
ValueError from half-parsed input.
"""

import numpy as np


class FpbitsError(Exception):
    """Base class for all errors raised deliberately by this package."""


# --- template / image parsing ---

class MalformedHeader(FpbitsError):
    """A template or image header could not be parsed."""


class _RecordError(FpbitsError):
    """A bad minutia field at ``line`` of a text template or ``row`` of a
    template's array, where known."""

    def __init__(self, message: str, line: int | None = None, row: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.row = row


class FieldOutOfRange(_RecordError):
    """A parsed field violates its declared range (position, quality, ...)."""


class AngleUnparseable(_RecordError):
    """A minutia direction field was not a finite real number."""


class BadMagic(FpbitsError):
    """A binary record does not start with the expected magic bytes."""


class TruncatedRecord(FpbitsError):
    """A binary record ends before its declared content does."""


class UnsupportedVersion(FpbitsError):
    """A record declares a format version this package does not read."""


class DimensionMismatch(FpbitsError):
    """Image payload size disagrees with its declared dimensions."""


# --- numerics ---

class TooFewSamples(FpbitsError):
    """A statistical fit was asked for with fewer than two samples."""


class RankDeficient(FpbitsError):
    """More principal directions were requested than the data can supply."""


class PoolTooSmall(FpbitsError):
    """Clustering was asked for more clusters than pool vectors."""


class DegeneratePool(FpbitsError):
    """A cluster has no external points, so its boundary is undefined."""


class EmptyImage(FpbitsError):
    """An impression has no minutiae, so it yields no descriptor vectors."""


class EmptyTrainingSet(FpbitsError):
    """A training statistic was requested over zero groups."""


class EmptyEnrollment(FpbitsError):
    """Finger enrollment was attempted with zero samples."""


class EmptyScores(FpbitsError):
    """A protocol metric was requested with an empty score list."""


class LengthMismatch(FpbitsError):
    """Two bit-strings (or vectors) of different lengths were compared."""


class BadLength(FpbitsError):
    """A fold length outside [1, K] was requested, a fold-length
    list held a token that is not an integer or no length at all, or a fold was
    asked of a matcher that does not fold."""


class ModelMissing(FpbitsError):
    """A named file, directory or dataset entry cannot be read, written or found."""


def check_arrays(record, error: type, *, freeze: bool = True, **fields) -> None:
    """Check array fields of ``record``, then make them read-only in place, or raise ``error``.
    A spec is ``(kind, *sizes)``: ``bool``, ``int`` (a dtype that casts to int64 safely),
    ``float`` (any number) or ``np.void``, then per axis an int, None for any size, or a name
    whose axes in the call agree. A record with value checks of its own checks its arrays
    with ``freeze=False`` first, so a refused record leaves the caller's arrays writeable."""
    kinds, named = {bool: "b", int: "iu", float: "biuf", np.void: "V"}, {}
    for name, (kind, *sizes) in fields.items():
        array = getattr(record, name)
        ok = (isinstance(array, np.ndarray) and array.dtype.kind in kinds[kind]
              and (kind is not int or np.can_cast(array.dtype, np.int64)))
        if ok and array.ndim == len(sizes):  # the shape it needs, any size taken as it is
            sizes = tuple(named.setdefault(s, n) if isinstance(s, str) else n if s is None else s
                          for s, n in zip(sizes, array.shape))
        if not (ok and sizes == array.shape):
            got = f"{array.dtype} {array.shape}" if isinstance(array, np.ndarray) else type(array)
            raise error(f"{type(record).__name__}.{name} must be a {kind.__name__} array of "
                        f"shape {tuple(sizes)}, got {got}")
    for name in fields if freeze else ():  # only once every field passed
        getattr(record, name).flags.writeable = False
