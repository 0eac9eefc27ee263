"""Identity memory: one unit-norm embedding row per identity, plus the rules
that build and evolve it (momentum blending, rotation into a new model's
space, and merge/expansion).

Building, blending and merging all normalize through one rule, _unit. Each
works on whole arrays and is bitwise the per-identity or per-sample loop
it replaces: sums and blends apply in order of occurrence, and a merge
target matched twice takes its last match."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DEGENERATE_NORM,
    DegenerateEmbedding,
    DegenerateMean,
    EmptyBatch,
    LabError,
    MissingLabel,
    ParseError,
    ShapeMismatch,
    check_kind,
    index_array,
    read_json_object,
    write_atomic,
)

if TYPE_CHECKING:
    from .datasets import CameraDataset

# Sentinel for "no matching historical identity".
NO_MATCH = -1

# Rows are kept on the unit sphere to this tolerance.
UNIT_TOL = 1e-9


@dataclass
class IdentityMemory:
    """A bank of per-identity embeddings.

    rows: (n, dim) float64 array, each row unit L2 norm.
    provenance: optional per-row ground-truth identity tags, stored as an
        (n,) int64 array by errors.index_array's rule. Diagnostics only; no
        algorithm reads them.
    """

    rows: np.ndarray
    provenance: np.ndarray | None = None

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ShapeMismatch(f"memory rows must be 2-D, got shape {rows.shape}")
        self.rows = rows
        if self.provenance is not None:
            self.provenance = tags = index_array("provenance tag", self.provenance)
            if tags.shape != (rows.shape[0],):
                raise ShapeMismatch(f"provenance shape {tags.shape} != row count {rows.shape[0]}")

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def copy(self) -> "IdentityMemory":
        prov = None if self.provenance is None else self.provenance.copy()
        return IdentityMemory(self.rows.copy(), prov)

    def max_unit_error(self) -> float:
        """Largest |norm - 1| over rows; 0 for an empty memory."""
        if len(self) == 0:
            return 0.0
        return float(np.max(np.abs(np.linalg.norm(self.rows, axis=1) - 1.0)))


def empty_memory(dim: int) -> IdentityMemory:
    """Memory with zero identities, e.g. the history before the first camera."""
    return IdentityMemory(np.zeros((0, dim)), [])


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n random unit rows of width dim (normalized Gaussian draws), the
    fixture for memories and features in checks and examples."""
    M = rng.normal(size=(n, dim))
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def init_memory(feats: np.ndarray, dataset: "CameraDataset") -> IdentityMemory:
    """Build a camera's memory from its embeddings feats, one row per image
    of dataset: row y = normalized mean embedding of all images labelled y.
    Row order follows the label index. Each sum starts from the identity's
    first row and adds the others in order of occurrence, as
    feats[labels == y].mean(axis=0) does. feats of another row count, or
    not 2-D, raises ShapeMismatch; an embedding that is not finite (a model
    that diverged on its last step) raises DegenerateEmbedding naming the
    camera."""
    if dataset.X.shape[0] == 0:
        raise EmptyBatch("cannot initialize a memory from an empty dataset")
    labels = dataset.labels
    counts = np.bincount(labels, minlength=int(dataset.n_ids))
    if not counts.all():
        raise MissingLabel(f"label {np.flatnonzero(counts == 0)[0]} has no images")
    if np.ndim(feats) != 2 or len(feats) != labels.size:
        raise ShapeMismatch(f"embeddings shape {np.shape(feats)} vs {labels.size} images")
    if not np.isfinite(feats).all():
        raise DegenerateEmbedding(f"camera {dataset.camera_id}: an embedding is not finite")
    first = np.unique(labels, return_index=True)[1]
    rest = np.delete(np.arange(labels.size), first)
    sums = feats[first]
    np.add.at(sums, labels[rest], feats[rest])
    rows = _unit(sums / counts[:, None], np.arange(counts.size), "mean feature")
    return IdentityMemory(rows, dataset.label_to_global)


def momentum_update(
    memory: IdentityMemory, idx: np.ndarray, f: np.ndarray, omega: float
) -> IdentityMemory:
    """In-place blend of rows toward fresh features, one per index:

        row[idx[s]] <- normalize(omega * row[idx[s]] + (1 - omega) * f[s])

    idx is a 1-D identity index array and f has shape (len(idx), dim).
    omega is the fraction of the old row kept. The updates apply in order
    of occurrence: an identity that occurs several times is blended once
    per occurrence, each time from the row the previous occurrence left.
    Round k updates the k-th occurrence of every identity at once, so the
    result equals the one-row-at-a-time loop bit for bit. All other rows
    are untouched.
    """
    if np.ndim(idx) != 1:
        raise ShapeMismatch(f"identity indices must be 1-D, got shape {np.shape(idx)}")
    idx = index_array("identity index", idx, n=len(memory))
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (idx.shape[0], memory.dim):
        raise ShapeMismatch(f"feature shape {f.shape} vs expected {(idx.shape[0], memory.dim)}")
    # Occurrence rank of each position; round k takes rank k in identity order.
    order = np.argsort(idx, kind="stable")
    rank = np.arange(idx.shape[0]) - np.searchsorted(idx[order], idx[order])
    for k in range(rank.max(initial=-1) + 1):
        take = order[rank == k]
        rows = idx[take]
        blended = omega * memory.rows[rows] + (1.0 - omega) * f[take]
        memory.rows[rows] = _unit(blended, rows, "momentum blend")
    return memory


def iku_merge(
    hist: IdentityMemory, cur: IdentityMemory, assoc, lam: float
) -> IdentityMemory:
    """Evolve the historical memory with the current one.

    Matched current identity j (assoc target t >= 0): the historical row t
    becomes normalize(lam * hist[t] + (1 - lam) * cur[j]). Unmatched rows of
    cur are appended in ascending j. Blends always read the original hist
    row, so a duplicated target (possible with non-mutual association maps)
    resolves to the last j; every blend is checked for degeneracy.

    Provenance follows the heavier input of each blend: a matched row takes
    cur's tag for j when lam < 0.5 and keeps hist's tag for t otherwise, so
    a wrong match at small lam is tagged with the identity the row now
    mostly holds. Appended rows keep cur's tags.
    """
    matches, matched, targets = _association(hist, cur, assoc)
    unmatched = np.flatnonzero(matches == NO_MATCH)
    blended = _unit(lam * hist.rows[targets] + (1.0 - lam) * cur.rows[matched], matched, "merge")
    # The last j of each target wins: its first position in reversed order.
    targets, from_end = np.unique(targets[::-1], return_index=True)
    last = matched.size - 1 - from_end
    rows = np.concatenate([hist.rows, cur.rows[unmatched]], axis=0)
    rows[targets] = blended[last]
    prov = None
    if hist.provenance is not None and cur.provenance is not None:
        prov = np.concatenate([hist.provenance, cur.provenance[unmatched]])
        if lam < 0.5:
            prov[targets] = cur.provenance[matched[last]]
    return IdentityMemory(rows, prov)


def _association(
    hist: IdentityMemory, cur: IdentityMemory, assoc
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check an association of cur's identities with hist's rows (equal
    widths, one entry per current identity, every target a historical row)
    and return (matches, the matched j, their targets)."""
    matches = index_array("match target", assoc)
    if hist.dim != cur.dim:
        raise ShapeMismatch(f"history dim {hist.dim} != current dim {cur.dim}")
    if matches.shape != (len(cur),):
        raise ShapeMismatch(
            f"association length {matches.shape} vs current identity count {len(cur)}"
        )
    matched = np.flatnonzero(matches != NO_MATCH)
    targets = index_array("match target", matches[matched], n=len(hist))
    return matches, matched, targets


def _unit(
    vectors: np.ndarray, ids: np.ndarray, what: str, error: type[LabError] = DegenerateMean
) -> np.ndarray:
    """vectors with each row divided by its norm, the sqrt of the row's BLAS
    dot product with itself (as np.linalg.norm of one row). A norm below
    DEGENERATE_NORM raises error naming the row's entry in ids."""
    norms = np.sqrt((vectors[:, None, :] @ vectors[:, :, None])[:, 0, 0])
    low = norms < DEGENERATE_NORM
    if low.any():
        raise error(f"{what} of identity {ids[low][0]} collapsed to norm {norms[low][0]:g}")
    return vectors / norms[:, None]


def align_memory(hist: IdentityMemory, cur: IdentityMemory, assoc) -> IdentityMemory:
    """Rotate the historical memory into the embedding space of the current one.

    Historical rows were embedded by earlier models. R is the orthogonal map
    that best carries the matched historical rows onto their current rows:
    with the SVD U S V^T of sum over matched j of outer(hist[t], cur[j]),
    R = U V^T (orthogonal Procrustes). On directions the pairs leave open,
    R is as close to the identity as an orthogonal map can be, so nothing
    the pairs do not show is turned. Every row becomes row @ R: norms and the
    angles between historical rows are kept, only the frame changes. With
    no matched pair the history is returned unchanged.
    """
    _, matched, targets = _association(hist, cur, assoc)
    if matched.size == 0:
        return hist.copy()
    M = hist.rows[targets].T @ cur.rows[matched]
    U, s, Vt = np.linalg.svd(M)
    rank = int(np.count_nonzero(s > max(M.shape) * np.finfo(float).eps * s[0]))
    # Undetermined directions: the orthogonal map between the leftover
    # subspaces with the largest trace, i.e. the one closest to the identity.
    U_free, V_free = U[:, rank:], Vt[rank:].T
    P, _, Qt = np.linalg.svd(V_free.T @ U_free)
    R = U[:, :rank] @ Vt[:rank] + U_free @ (Qt.T @ P.T) @ V_free.T
    return IdentityMemory(hist.rows @ R, hist.provenance)


def save_memory(memory: IdentityMemory, path: str | Path) -> None:
    """Write a snapshot as JSON; floats round-trip bit-faithfully."""
    doc = {
        "dim": memory.dim,
        "rows": memory.rows.tolist(),
        "provenance": None if memory.provenance is None else memory.provenance.tolist(),
    }
    write_atomic(Path(path), json.dumps(doc))


# Snapshot entries and their kinds.
MEMORY_KINDS = {"dim": "int", "rows": "list", "provenance": "list"}


def load_memory(path: str | Path) -> IdentityMemory:
    """Read a snapshot that save_memory wrote. A malformed file raises
    ParseError naming it, including one with a row of another width than
    dim or a tag that is not an integer."""
    path = Path(path)
    doc = read_json_object(path, "memory snapshot", MEMORY_KINDS, required=("dim", "rows"))
    dim, rows, prov = doc["dim"], doc["rows"], doc.get("provenance")
    for i, row in enumerate(rows):
        check_kind(f"{path.name}: rows[{i}]", row, "list", ParseError)
        if len(row) != dim:
            raise ParseError(f"{path.name}: row {i} has {len(row)} values, expected {dim}")
    for i, tag in enumerate(prov or ()):
        check_kind(f"{path.name}: provenance[{i}]", tag, "int", ParseError)
    try:
        return IdentityMemory(np.array(rows, dtype=np.float64).reshape(len(rows), dim), prov)
    except (TypeError, ValueError, ShapeMismatch) as exc:
        raise ParseError(f"{path.name}: {exc}") from exc
