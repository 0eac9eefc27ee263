"""Exception types shared across the library, one type per fault, the
degenerate-norm threshold, the one type rule for configuration fields and
JSON files, the one write rule for output files, the one index rule for
identity indices and tags, and the one order for adding floats."""

import dataclasses
import json
import numbers
import os
import sys
from pathlib import Path

import numpy as np

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
    """An identity index or label fell outside the structure it indexes."""


class ShapeMismatch(LabError):
    """Array shapes, dtypes or embedding dimensions disagree."""


class MissingProvenance(LabError):
    """Ground-truth identity tags were required but absent."""


class EmptyBatch(LabError):
    """A loss was evaluated on zero samples."""


class DegenerateEmbedding(LabError):
    """An encoder output is unusable: near-zero norm before normalization,
    or not finite."""


class ConfigError(LabError):
    """Invalid configuration; rejected before any work starts."""


class ParseError(LabError):
    """A data file is malformed; the message names the file, and the
    offending line where there is one."""


class NonFiniteLoss(LabError):
    """A training loss term averaged to NaN or infinity over an epoch; the
    message names the camera and the epoch."""


class EmptyGallery(LabError):
    """Retrieval evaluation found no scorable query."""


_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool, "list": list}


def check_kind(key: str, value, kind: str, error: type[LabError] = ConfigError) -> None:
    """Raise error naming key unless value is of kind: "int" takes an
    integer and "float" a finite real number, neither of them a bool; "str",
    "bool" and "list" take their own type only. The float range is compared
    exactly, so NaN, the infinities and integers beyond it fail."""
    kind_ok = isinstance(value, bool) == (kind == "bool") and isinstance(value, _KINDS[kind])
    if not kind_ok or kind == "float" and not -sys.float_info.max <= value <= sys.float_info.max:
        raise error(f"{key} must be {'a finite float' if kind == 'float' else kind}, got {value!r}")


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json.loads's object_pairs_hook: the object as a dict, or ValueError
    naming a key it gives twice, which json.loads would resolve silently."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def read_json_object(
    path: Path, what: str, kinds: dict[str, str], required: tuple[str, ...] = ()
) -> dict:
    """The JSON object in path. ParseError naming the file if it cannot be
    read, is not an object or repeats a key in any object, if it has an
    entry outside kinds, if an entry of kinds is neither null nor of its
    kind, or if an entry of required is missing or null."""
    try:
        doc = json.loads(path.read_text(), object_pairs_hook=unique_keys)
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path.name}: cannot read {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path.name}: a {what} must be a JSON object")
    for key, value in doc.items():
        if key not in kinds:
            raise ParseError(f"{path.name}: unknown {what} entry {key!r}; entries are {list(kinds)}")
        if value is not None:
            check_kind(f"{path.name}: {key}", value, kinds[key], ParseError)
    for key in required:
        if doc.get(key) is None:
            raise ParseError(f"{path.name}: no {key} entry")
    return doc


def temporary_path(path: Path) -> Path:
    """The file beside path that write_atomic writes and renames to path."""
    return path.with_name(path.name + ".tmp")


def write_atomic(path: Path, text: str) -> None:
    """Make path's directory, then write text to temporary_path(path) and
    rename that, so a killed writer never leaves a truncated file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = temporary_path(path)
    tmp.write_text(text)
    os.replace(tmp, path)


def index_array(what: str, values, n=None) -> np.ndarray:
    """values as an int64 array, what naming one entry ("label"). Float or
    bool entries, a bool among ints included, and uint64 values beyond int64
    raise ShapeMismatch naming what; with n given, an entry outside [0, n)
    raises IndexOutOfRange naming it. An integer ndarray is not scanned for
    bools."""
    array = np.asarray(values)
    whats = what + ("es" if what.endswith("x") else "s")
    if array.size and array.dtype.kind not in "iu":
        raise ShapeMismatch(f"{whats} must be integers, got dtype {array.dtype}")
    # numpy reads [0, True] as int64, so a sequence's bools are found by entry.
    entries = () if isinstance(values, np.ndarray) else np.asarray(values, dtype=object).flat
    if any(isinstance(v, (bool, np.bool_)) for v in entries):
        raise ShapeMismatch(f"{whats} must be integers, got a bool")
    if array.dtype == np.uint64 and array.size and array.max() > np.iinfo(np.int64).max:
        raise ShapeMismatch(f"{what} {array.max()} does not fit in int64")
    array = array.astype(np.int64, copy=False)
    if n is not None and array.size and (array.min() < 0 or array.max() >= n):
        bad = array[(array < 0) | (array >= n)][0]
        raise IndexOutOfRange(f"{what} {bad} outside [0, {n})")
    return array


def ordered_sum(values) -> float:
    """values added left to right, one add at a time. From Python 3.12,
    sum() of floats is compensated, so its bits depend on the version."""
    total = 0.0
    for value in values:
        total += value
    return total


def check_field_types(obj) -> None:
    """check_kind on every field of a dataclass, by its annotation."""
    for f in dataclasses.fields(obj):
        check_kind(f.name, getattr(obj, f.name), getattr(f.type, "__name__", f.type))
