"""Matching current identities against the historical memory.

An association is a 1-D int64 array with one entry per current identity:
the historical row it is paired with, or NO_MATCH. The production matcher
is cycle-consistent (mutual argmax): identity i of the current memory is
paired with historical row j only when each is the other's best cosine
match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyMemory, LabelOutOfRange, MissingProvenance, ShapeMismatch, index_array
from .memory import NO_MATCH, IdentityMemory

if TYPE_CHECKING:
    from .datasets import CameraDataset


def all_unmatched(n_current: int) -> np.ndarray:
    return np.full(n_current, NO_MATCH, dtype=np.int64)


def _score_matrix(cur: IdentityMemory, hist: IdentityMemory) -> np.ndarray:
    if cur.dim != hist.dim:
        raise ShapeMismatch(f"current dim {cur.dim} != historical dim {hist.dim}")
    return cur.rows @ hist.rows.T


def cycle_match(cur: IdentityMemory, hist: IdentityMemory) -> np.ndarray:
    """Mutual-argmax matching between the two memories.

    Entry i is j iff row j is the best historical match of cur[i] AND
    row i is the best current match of hist[j]; otherwise NO_MATCH. Ties
    break toward the lowest index on both sides. An empty history yields
    all NO_MATCH.
    """
    if len(cur) == 0:
        raise EmptyMemory("cycle_match requires a nonempty current memory")
    if len(hist) == 0:
        return all_unmatched(len(cur))
    scores = _score_matrix(cur, hist)
    fwd = scores.argmax(axis=1)
    bwd = scores.argmax(axis=0)
    mutual = bwd[fwd] == np.arange(len(cur))
    return np.where(mutual, fwd, NO_MATCH).astype(np.int64)


def one_way_match(cur: IdentityMemory, hist: IdentityMemory) -> np.ndarray:
    """Plain argmax assignment: every current identity takes its best
    historical row, with no mutuality requirement. Used by the ablation
    that disables cycle matching; the result need not be injective."""
    if len(cur) == 0:
        raise EmptyMemory("one_way_match requires a nonempty current memory")
    if len(hist) == 0:
        return all_unmatched(len(cur))
    scores = _score_matrix(cur, hist)
    return scores.argmax(axis=1).astype(np.int64)


def augment_dataset(dataset: "CameraDataset", assoc: np.ndarray) -> np.ndarray:
    """Per-sample historical labels: the match of each image's identity, or
    NO_MATCH, as an int64 array aligned with dataset.labels."""
    assoc = index_array("match target", assoc)
    return assoc[index_array("label", dataset.labels, LabelOutOfRange, len(assoc))]


@dataclass
class AssociationPrecision:
    precision: float | None
    discovered: int
    correct: int


def association_precision(
    assoc: np.ndarray, cur_globals, hist_globals
) -> AssociationPrecision:
    """Fraction of discovered matches whose ground-truth identities agree.

    Undefined (None) when nothing was discovered. Requires provenance tags
    on both sides, so this is a synthetic-mode diagnostic.
    """
    if cur_globals is None or hist_globals is None:
        raise MissingProvenance("association precision needs identity tags on both sides")
    assoc = index_array("match target", assoc)
    cur = index_array("current tag", cur_globals)
    hist = index_array("historical tag", hist_globals)
    if cur.shape != (len(assoc),):
        raise ShapeMismatch(f"{cur.size} current tags vs {len(assoc)} association entries")
    found = np.flatnonzero(assoc != NO_MATCH)
    targets = index_array("match target", assoc[found], LabelOutOfRange, hist.size)
    correct = int(np.sum(cur[found] == hist[targets]))
    return AssociationPrecision(correct / found.size if found.size else None, found.size, correct)
