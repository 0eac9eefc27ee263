"""Exception types shared across the library, the degenerate-norm threshold,
the one type rule for configuration fields and JSON files, the one write
rule for output files, and the one range rule for identity indices."""

import dataclasses
import json
import numbers
import os
import sys
from pathlib import Path

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
    """Array shapes, dtypes or embedding dimensions disagree."""


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


_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool, "list": list}


def check_kind(key: str, value, kind: str, error: type[LabError] = ConfigError) -> None:
    """Raise error naming key unless value is of kind: "int" takes an
    integer and "float" a finite real number, neither of them a bool; "str",
    "bool" and "list" take their own type only. The float range is compared
    exactly, so NaN, the infinities and integers beyond it fail."""
    kind_ok = isinstance(value, bool) == (kind == "bool") and isinstance(value, _KINDS[kind])
    if not kind_ok or kind == "float" and not -sys.float_info.max <= value <= sys.float_info.max:
        raise error(f"{key} must be {'a finite float' if kind == 'float' else kind}, got {value!r}")


def read_json_object(
    path: Path, what: str, kinds: dict[str, str], required: tuple[str, ...] = ()
) -> dict:
    """The JSON object in path. ParseError naming the file if it cannot be
    read or is not an object, if an entry of kinds is neither null nor of
    its kind, or if an entry of required is missing or null."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path.name}: cannot read {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path.name}: a {what} must be a JSON object")
    for key, kind in kinds.items():
        if doc.get(key) is not None:
            check_kind(f"{path.name}: {key}", doc[key], kind, ParseError)
    for key in required:
        if doc.get(key) is None:
            raise ParseError(f"{path.name}: no {key} entry")
    return doc


def write_atomic(path: Path, text: str) -> None:
    """Make path's directory, then write text to a temporary file beside it
    and rename that, so a killed writer never leaves a truncated file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def check_range(what: str, values, n: int, error: type[LabError]) -> None:
    """Raise error naming the first entry of the integer array values that
    lies outside [0, n)."""
    if values.size and (values.min() < 0 or values.max() >= n):
        bad = values[(values < 0) | (values >= n)][0]
        raise error(f"{what} {bad} outside [0, {n})")


def check_field_types(obj) -> None:
    """check_kind on every field of a dataclass, by its annotation."""
    for f in dataclasses.fields(obj):
        check_kind(f.name, getattr(obj, f.name), getattr(f.type, "__name__", f.type))
