"""Typed error hierarchy.

Every failure mode the library can report deliberately is a subclass of
FpbitsError, so callers (and the CLI) can catch one base type and map it
to a message plus nonzero exit code instead of crashing on a bare
ValueError from half-parsed input.
"""

import dataclasses

import numpy as np


class FpbitsError(Exception):
    """Base class for all errors raised deliberately by this package."""


# --- template / image parsing ---

class MalformedHeader(FpbitsError):
    """A template, image or container could not be parsed, a config text or setting
    was refused, or a record's parts break its rules."""


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
    """An array argument has the wrong dtype kind, rank or shape, holds NaN or an infinity, or
    disagrees with another in a size they share (two bit-strings of different lengths, say);
    or a record argument is not of its type (an image not a ``GrayImage``, say)."""


class BadLength(FpbitsError):
    """A fold length outside [1, K] was requested, a fold-length
    list held a token that is not an integer or no length at all, or a fold was
    asked of a matcher that does not fold."""


class ModelMissing(FpbitsError):
    """A named file, directory or dataset entry cannot be read, written or found."""


def check_arrays(record, error: type, *, freeze: bool = True, **fields) -> list:
    """Check array fields of ``record``, then make them read-only in place, or raise ``error``.
    A spec is ``(kind, *sizes)``: ``bool``, ``int`` (a dtype that casts to int64 safely),
    ``float`` (any number, NaN and infinities aside) or a structured dtype (its fields in any
    byte order or padding, each cast safely), then per axis an int,
    None for any size, or a name whose axes in the call agree. A record with value checks of
    its own checks its arrays with ``freeze=False`` first, so a refused record leaves the
    caller's arrays writeable.

    ``record`` may instead be a function's arguments by name, its ``locals()``: each goes
    through ``np.asarray`` once (refused when ragged; an empty list takes the spec's kind),
    comes back as bool, int64 or float64 by its spec and is not frozen. Returns the checked
    arrays in spec order. A rule of at least one row goes before this call, on ``len``, so
    ``[]`` meets that rule first."""
    kinds, named, arrays = {bool: "b", int: "iu", float: "biuf"}, {}, []
    dtypes = {bool: np.bool_, int: np.int64, float: np.float64}  # of the arguments
    arguments = isinstance(record, dict)
    owner = "" if arguments else f"{type(record).__name__}."
    for name, (kind, *sizes) in fields.items():
        array = record[name] if arguments else getattr(record, name)
        what = getattr(kind, "names", None) or kind.__name__  # a structured dtype: its fields
        if arguments:
            try:
                array = np.asarray(array)
            except ValueError as exc:  # numpy refuses a ragged sequence
                raise error(f"{name} must be a {what} array: {exc}") from None
            if array.size == 0 and array is not record[name] and kind in dtypes:
                array = array.astype(dtypes[kind])  # numpy makes [] float64
        ok = isinstance(array, np.ndarray) and (
            np.can_cast(array.dtype, kind, "equiv") if isinstance(kind, np.dtype) else
            array.dtype.kind in kinds[kind]
            and (kind is not int or np.can_cast(array.dtype, np.int64)))
        if ok and array.ndim == len(sizes):  # the shape it needs, any size taken as it is
            sizes = tuple(named.setdefault(s, n) if isinstance(s, str) else n if s is None else s
                          for s, n in zip(sizes, array.shape))
        if not (ok and sizes == array.shape):
            got = f"{array.dtype} {array.shape}" if isinstance(array, np.ndarray) else type(array)
            raise error(f"{owner}{name} must be a {what} array of "
                        f"shape {tuple(sizes)}, got {got}")
        if arguments and kind in dtypes:
            array = array.astype(dtypes[kind], copy=False)
        if array.dtype.kind == "f" and not np.isfinite(array).all():
            raise error(f"{owner}{name} must hold finite numbers, got "
                        f"{array[~np.isfinite(array)][0]}")
        arrays.append(array)
    for array in arrays if freeze and not arguments else ():  # only once every field passed
        array.flags.writeable = False
    return arrays


def check_squares(error: type, scale: float, **arrays) -> None:
    """``error`` naming the first of ``arrays`` whose sum of squares times ``scale`` overflows."""
    for name, array in arrays.items():
        with np.errstate(over="ignore"):
            bound = scale * np.vdot(array, array)
        if not np.isfinite(bound):
            raise error(f"{name}'s squares overflow float64")


def check_instance(value, cls: type, name: str):
    """``value``, or ``LengthMismatch`` unless it is a ``cls``: the argument rule of a function
    that takes a record (a ``GrayImage``, ``BitString`` or ``FingerModel``) in place of arrays."""
    if not isinstance(value, cls):
        raise LengthMismatch(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


class ArrayRecord:
    """The equality of every dataclass that holds arrays, taken with ``eq=False``: the same
    type and every field equal, arrays by ``np.array_equal`` and the rest by ``==``, so nested
    records recurse. Defining ``__eq__`` alone leaves such a record unhashable."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        names = [f.name for f in dataclasses.fields(self)]
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                   else a == b for a, b in ((getattr(self, n), getattr(other, n)) for n in names))
