"""Exception types shared across the library, and the one type rule for
configuration fields."""

import dataclasses
import numbers


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


class StaleCache(LabError):
    """Backward was called with intermediates from a different forward pass."""


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
    integer and "float" any real number, neither of them a bool; "str" and
    "bool" take their own type only."""
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _KINDS[kind]):
        raise error(f"{key} must be {kind}, got {value!r}")


def check_field_types(obj) -> None:
    """check_kind on every field of a dataclass, by its annotation."""
    for f in dataclasses.fields(obj):
        check_kind(f.name, getattr(obj, f.name), getattr(f.type, "__name__", f.type))
