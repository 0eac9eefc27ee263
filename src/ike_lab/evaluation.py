"""Retrieval metrics and experiment reports.

Evaluation is strict cross-camera retrieval by default: a query's gallery is
every test image from other cameras, relevance is same global identity, and
queries with no relevant item are skipped rather than scored zero. Queries
are ranked one camera block at a time against the block's shared gallery,
with one gemm score block per chunk of query rows. A relevant item's rank
is the number of gallery items that score above it, plus those that tie
with it at a lower gallery index; equal embeddings tie exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import TestSplit
from .errors import ConfigError, EmptyGallery, NoRelevant, ShapeMismatch
from .encoder import EncoderParams, forward_batch

GALLERY_RULES = ("camera", "camera-id", "none")


def average_precision(relevance: np.ndarray, n_relevant: int) -> float:
    """AP of a ranked 0/1 relevance list: mean of precision@k over the ranks
    k holding relevant items, normalized by n_relevant.

    The k-th relevant item at 0-based rank r adds k / (r + 1). The terms are
    written into a zero vector at their ranks and summed with numpy's
    pairwise sum, as evaluate_map sums each of its rows, so the two agree
    bit for bit.
    """
    if n_relevant < 1:
        raise NoRelevant("average precision needs at least one relevant item")
    relevance = np.asarray(relevance)
    ranks = np.flatnonzero(relevance)
    terms = np.zeros(relevance.shape[0])
    terms[ranks] = np.arange(1, ranks.size + 1) / (ranks + 1)
    return float(terms.sum() / n_relevant)


def evaluate_map(
    params: EncoderParams, test: TestSplit, gallery_rule: str = "camera"
) -> float:
    """mAP over all scorable queries of the test split, averaged in query
    order.

    gallery_rule "camera" excludes every same-camera item from a query's
    gallery; "camera-id" excludes only same-camera same-identity items
    (junk-style handling), keeping same-camera distractors; "none" keeps
    everything but the query itself, which is the only meaningful choice
    for single-camera splits.

    Queries are ranked one camera block at a time. Under "camera" all
    queries of camera c share one gallery, the other cameras. Under the
    other rules a block's candidates are all images, and each row drops its
    few excluded items. Each chunk of query rows, as many as fit in
    _BLOCK_ELEMENTS scores (at least one), is scored with one gemm,
    F[rows] @ F[candidates].T, so no N x N matrix is built. A BLAS
    kernel can score equal embeddings an ulp apart, so each copy of an
    embedding takes the score of its first copy among the candidates:
    copies tie exactly.

    No gallery is sorted in full. A relevant item's rank is the number of
    gallery items scoring above it plus those scoring the same at a lower
    gallery index, the order a stable sort on -score gives. Only items
    scoring at or above a row's lowest relevant score can precede a
    relevant item, so one lexsort of those on (row, -score), stable in
    gallery index, gives every relevant rank of the chunk.
    """
    if gallery_rule not in GALLERY_RULES:
        raise ConfigError(f"gallery_rule must be one of {GALLERY_RULES}")
    N = len(test)
    if N == 0:
        raise EmptyGallery("empty test split")
    F = forward_batch(params, test.X).embeddings
    # Adding 0.0 turns -0.0 into 0.0, so equal embeddings have equal bytes.
    row_bytes = (F + 0.0).view(np.dtype((np.void, F.itemsize * F.shape[1])))[:, 0]
    embedding_of = np.unique(row_bytes, return_inverse=True)[1]
    gids, cams = test.global_ids, test.camera_ids
    aps = np.full(N, np.nan)
    for c in np.unique(cams):
        queries = np.flatnonzero(cams == c)
        cols = np.flatnonzero(cams != c) if gallery_rule == "camera" else np.arange(N)
        if cols.size == 0:
            continue
        _, first, copy_of = np.unique(
            embedding_of[cols], return_index=True, return_inverse=True
        )
        source = first[copy_of]
        copies = np.flatnonzero(source != np.arange(cols.size))
        gallery_T = F[cols].T
        step = max(1, _BLOCK_ELEMENTS // cols.size)
        for start in range(0, queries.size, step):
            rows = queries[start : start + step]
            scores = F[rows] @ gallery_T
            scores[:, copies] = scores[:, source[copies]]
            same_id = gids[rows, None] == gids[cols]
            if gallery_rule == "camera":
                excluded = None
            elif gallery_rule == "camera-id":
                excluded = same_id & (cams[cols] == c)
            else:
                excluded = rows[:, None] == cols
            aps[rows] = _block_aps(scores, same_id, excluded)
    scored = aps[~np.isnan(aps)]
    if scored.size == 0:
        raise EmptyGallery("no query had a nonempty gallery with relevant items")
    return float(np.mean(scored))


# Scores per chunk of query rows: 2 MB of float64. The ranking's index
# arrays can reach a few times that when relevant items score low.
_BLOCK_ELEMENTS = 1 << 18


def _block_aps(
    scores: np.ndarray, same_id: np.ndarray, excluded: np.ndarray | None
) -> np.ndarray:
    """AP of each query row against its candidate columns, NaN for a row
    with nothing relevant. excluded marks the candidates that are not in
    that row's gallery (None: all are); their scores are overwritten."""
    R, L = scores.shape
    relevant = same_id
    lengths = np.full(R, L)
    if excluded is not None:
        # -inf lies below every relevant score, so these never rank.
        scores[excluded] = -np.inf
        relevant = same_id & ~excluded
        lengths -= np.count_nonzero(excluded, axis=1)
    n_rel = np.count_nonzero(relevant, axis=1)
    lowest = scores.min(axis=1, where=relevant, initial=np.inf)
    candidates = scores >= lowest[:, None]
    counts = np.count_nonzero(candidates, axis=1)
    at = np.flatnonzero(candidates)
    at = at[np.lexsort((-scores.ravel()[at], at // L))]
    hits = np.flatnonzero(relevant.ravel()[at])
    row = at[hits] // L
    rank = hits - (np.cumsum(counts) - counts)[row]
    k = np.arange(1, row.size + 1) - (np.cumsum(n_rel) - n_rel)[row]
    terms = k / (rank + 1)
    # Each row's terms go into a zero vector as long as its gallery and are
    # summed pairwise, as average_precision does, so AP does not depend on
    # how the ranks were found. Rows are grouped by gallery length for that.
    aps = np.full(R, np.nan)
    for length in np.unique(lengths[n_rel > 0]):
        group = np.flatnonzero((lengths == length) & (n_rel > 0))
        mine = lengths[row] == length
        block = np.zeros((group.size, length))
        block[np.searchsorted(group, row[mine]), rank[mine]] = terms[mine]
        aps[group] = block.sum(axis=1) / n_rel[group]
    return aps


@dataclass
class MetricsReport:
    """Everything one sequential run measured, one entry per camera step.
    fmap and mean_map are read from per_camera_map, so they cannot disagree
    with it. What was run (variant, order, seed) is the caller's record."""

    per_camera_map: list[float]
    nh_trajectory: list[int]
    assoc_precision: list[float | None]

    def __post_init__(self) -> None:
        C = len(self.per_camera_map)
        if C == 0:
            raise ShapeMismatch("report needs at least one camera step")
        if len(self.nh_trajectory) != C or len(self.assoc_precision) != C:
            raise ShapeMismatch("per-camera fields must all have one entry per step")

    @property
    def fmap(self) -> float:
        """mAP after the last camera."""
        return self.per_camera_map[-1]

    @property
    def mean_map(self) -> float:
        """Arithmetic mean of the per-camera mAPs."""
        return sum(self.per_camera_map) / len(self.per_camera_map)

    def to_dict(self) -> dict:
        return {
            "per_camera_map": list(self.per_camera_map),
            "fmap": self.fmap,
            "mean_map": self.mean_map,
            "nh_trajectory": list(self.nh_trajectory),
            "assoc_precision": list(self.assoc_precision),
        }
