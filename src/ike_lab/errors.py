"""Exception types shared across the library, the degenerate-norm threshold,
and the one type rule for configuration fields."""

import dataclasses
import numbers
import sys

# Norms below this cannot be normalized meaningfully.
DEGENERATE_NORM = 1e-9


class LabError(Exception):
    """Base class for every error raised by this package."""


class EmptyMemory(LabError):
    """An operation required a memory with at least one identity row."""


class DegenerateMean(LabError):
    """A per-identity mean (or blend) collapsed below the normalizable threshold."""


class MissingLabel(LabError):
    """A label in the contiguous range [0, n) has no samples."""


class IndexOutOfRange(LabError, IndexError):
    """An identity index fell outside the memory."""


class ShapeMismatch(LabError):
    """Array shapes or embedding dimensions disagree."""


class LabelOutOfRange(LabError, IndexError):
    """A dataset label does not index the structure it must index."""


class MissingProvenance(LabError):
    """Ground-truth identity tags were required but absent."""


class EmptyBatch(LabError):
    """A loss was evaluated on zero samples."""


class DegenerateEmbedding(LabError):
    """The pre-normalization encoder output has near-zero norm."""


class ConfigError(LabError):
    """Invalid configuration; rejected before any work starts."""


class ParseError(LabError):
    """A data file could not be parsed; message names the offending line."""


class DimensionMismatch(LabError):
    """Feature dimensionality disagrees between file, manifest, or arrays."""


class NonFiniteLoss(LabError):
    """A training loss term averaged to NaN or infinity over an epoch; the
    message names the camera and the epoch."""


class EmptyGallery(LabError):
    """Retrieval evaluation found no scorable query."""


class NoRelevant(LabError):
    """Average precision is undefined when a query has no relevant items."""


_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool}


def check_kind(key: str, value, kind: str, error: type[LabError] = ConfigError) -> None:
    """Raise error naming key unless value is of kind: "int" takes an
    integer and "float" a finite real number, neither of them a bool; "str"
    and "bool" take their own type only. The float range is compared
    exactly, so NaN, the infinities and integers beyond it fail."""
    kind_ok = isinstance(value, bool) == (kind == "bool") and isinstance(value, _KINDS[kind])
    if not kind_ok or kind == "float" and not -sys.float_info.max <= value <= sys.float_info.max:
        raise error(f"{key} must be {'a finite float' if kind == 'float' else kind}, got {value!r}")


def check_field_types(obj) -> None:
    """check_kind on every field of a dataclass, by its annotation."""
    for f in dataclasses.fields(obj):
        check_kind(f.name, getattr(obj, f.name), getattr(f.type, "__name__", f.type))
