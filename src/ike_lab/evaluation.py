"""Retrieval metrics and experiment reports.

Evaluation is strict cross-camera retrieval by default: a query's gallery is
every test image from other cameras, relevance is same global identity, and
queries with no relevant item are skipped rather than scored zero. Each AP
is summed in rank order and the mAP in query order, one add at a time, as
oracles.map_oracle walks them. evaluate_map says how queries are scored and
ranked, on up to two threads.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .datasets import TestSplit
from .errors import ConfigError, DegenerateEmbedding, EmptyGallery, ShapeMismatch, ordered_sum
from .encoder import EncoderParams, forward_batch

GALLERY_RULES = ("camera", "camera-id", "none")


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
    queries of camera c share one gallery, the other cameras, built per
    block. Under the other rules every block's candidates are all images,
    so their gallery is built once per call and scored against F.T. Each
    chunk of query rows, as many as fit in _BLOCK_ELEMENTS scores (at
    least one), is scored with one gemm, F[rows] @ F[candidates].T, so no
    N x N matrix is built. The chunks of all blocks form one queue: this
    thread and one helper thread, which lives for the call, each take the
    next chunk under a lock, score it into their own buffer and rank it. If
    a ranking raises, no more chunks are taken, and the first error reaches
    the caller once the helper is joined. With a single chunk, or in a
    process that may use one CPU only or that multiprocessing started (its
    siblings hold the cores), this thread drains the queue alone, running
    the same gemms, so giving the same bits. A BLAS kernel can score equal
    embeddings an ulp apart, so each copy of an embedding takes the score of
    its first copy among the candidates: copies tie exactly.

    A row's relevant pairs are found without comparing identities across
    the chunk: a gallery's candidate identities are sorted once, and each
    row's run of equal identities is a searchsorted range of them. The
    items a row excludes under "camera-id" and "none" are all among those
    pairs (same-camera same-identity items, or the query itself), so they
    are marked by writing -inf at their cells, where they never rank.

    No gallery is sorted in full. A relevant item's rank is the number of
    gallery items scoring above it plus those scoring the same at a lower
    gallery index, the order a stable sort on -score gives. Only items
    scoring at or above a row's lowest relevant score can precede a
    relevant item, so _block_aps sorts only those, once per chunk. It sums
    each AP in rank order, as oracles.ap_oracle does, and the mAP is the
    scored queries' sum in query order over their count.

    An embedding that is not finite raises DegenerateEmbedding.
    """
    check_gallery_rule(gallery_rule)
    N = len(test)
    if N == 0:
        raise EmptyGallery("empty test split")
    F = forward_batch(params, test.X).embeddings
    if not np.isfinite(F).all():
        raise DegenerateEmbedding("evaluation: an embedding is not finite")
    embedding_of = _embedding_ids(F)
    gids, cams = test.global_ids, test.camera_ids
    plan = _chunks(cams, gallery_rule)
    chunks = _with_galleries(plan, F, embedding_of, gids, cams, gallery_rule)
    # A chunk holds at most max(_BLOCK_ELEMENTS, L) scores for L <= N
    # candidates, and never more than N x N.
    size = min(max(_BLOCK_ELEMENTS, N), N * N)
    aps = np.full(N, np.nan)
    lock = threading.Lock()
    failures: list[BaseException] = []

    def take() -> tuple[int, _Gallery, np.ndarray] | None:
        with lock:
            return None if failures else next(chunks, None)

    def work() -> None:
        buffer = np.empty(size)
        try:
            for c, gallery, rows in iter(take, None):
                R, L = rows.size, gallery.cols.size
                scores = np.matmul(F[rows], gallery.embeddings_T, out=buffer[: R * L].reshape(R, L))
                aps[rows] = _chunk_aps(scores, rows, c, gallery, gids, cams, gallery_rule)
        except BaseException as error:
            with lock:
                failures.append(error)

    if len(plan) > 1 and _usable_cpus() > 1 and not _started_by_multiprocessing():
        helper = threading.Thread(target=work, name="evaluate_map helper")
        helper.start()
        try:
            work()
        finally:
            helper.join()
    else:
        work()
    if failures:
        raise failures[0]
    scored = aps[~np.isnan(aps)]
    if scored.size == 0:
        raise EmptyGallery("no query had a nonempty gallery with relevant items")
    # cumsum adds one AP at a time; np.mean would add them in another order.
    return float(np.cumsum(scored)[-1] / scored.size)


def has_scorable_query(test: TestSplit, gallery_rule: str = "camera") -> bool:
    """Whether evaluate_map would score some query of test rather than raise
    EmptyGallery, read from the tags alone: under "camera" and "camera-id" a
    query's relevant items are its identity's images in other cameras, so
    some identity must appear in two cameras; under "none" they are its
    identity's other images, so some identity must appear twice. An unknown
    gallery_rule raises ConfigError, as in evaluate_map."""
    check_gallery_rule(gallery_rule)
    if gallery_rule == "none":
        return np.unique(test.global_ids).size < len(test)
    pairs = np.unique(np.stack([test.global_ids, test.camera_ids], axis=1), axis=0)
    return np.unique(pairs[:, 0]).size < len(pairs)


def check_gallery_rule(gallery_rule: str) -> None:
    """ConfigError unless gallery_rule is one of GALLERY_RULES."""
    if gallery_rule not in GALLERY_RULES:
        raise ConfigError(f"gallery_rule must be one of {GALLERY_RULES}")


# Scores per chunk buffer: 2 MB of float64, one buffer in each thread that
# drains a call's queue, so 4 MB in flight with the helper. A buffer grows to
# one gallery row when a row is longer. A thread's ranking index arrays can
# reach a few times a chunk's scores when relevant items score low.
_BLOCK_ELEMENTS = 1 << 18
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)  # odd: 2**64 over the golden ratio


class _Gallery(NamedTuple):
    """The candidates that one camera block, or under "camera-id" and
    "none" every block, ranks against: their indices, their embeddings
    transposed for the gemm, the columns holding a copy of an earlier
    column's embedding and the columns they copy, and the column order that
    sorts the candidate identities, with the identities in that order."""

    cols: np.ndarray
    embeddings_T: np.ndarray
    copies: np.ndarray
    sources: np.ndarray
    by_id: np.ndarray
    sorted_ids: np.ndarray


def _embedding_ids(F: np.ndarray) -> np.ndarray:
    """An id per row of F, equal for rows of equal values, -0.0 and 0.0
    alike: a 64-bit hash of the row's bits, the wrapping sum of entry j times
    _HASH_MULTIPLIER ** (j + 1), checked against the first row of its hash;
    on a collision, the rows' bytes grouped by np.unique."""
    # Adding 0.0 turns -0.0 into 0.0, so equal embeddings have equal bits.
    bits = (F + 0.0).view(np.uint64)
    powers = np.cumprod(np.full(F.shape[1], _HASH_MULTIPLIER))
    _, first, ids = np.unique(bits @ powers, return_index=True, return_inverse=True)
    copies = np.flatnonzero(first[ids] != np.arange(ids.size))
    if (bits[copies] == bits[first[ids[copies]]]).all():
        return ids
    row_bytes = bits.view(np.dtype((np.void, bits.itemsize * bits.shape[1])))[:, 0]
    return np.unique(row_bytes, return_inverse=True)[1]


def _gallery(
    cols: np.ndarray, embeddings_T: np.ndarray, embedding_of: np.ndarray, gids: np.ndarray
) -> _Gallery:
    _, first, copy_of = np.unique(embedding_of[cols], return_index=True, return_inverse=True)
    source = first[copy_of]
    copies = np.flatnonzero(source != np.arange(cols.size))
    by_id = np.argsort(gids[cols], kind="stable")
    return _Gallery(cols, embeddings_T, copies, source[copies], by_id, gids[cols][by_id])


def _chunks(cams: np.ndarray, gallery_rule: str) -> list[tuple[int, np.ndarray]]:
    """(camera, query rows) of each chunk, camera block by camera block: as
    many of the block's rows as fit in _BLOCK_ELEMENTS scores against its L
    candidates, at least one. A block with no candidates has no chunk."""
    N = cams.size
    plan = []
    for c in np.unique(cams):
        queries = np.flatnonzero(cams == c)
        L = N - queries.size if gallery_rule == "camera" else N
        if L > 0:
            step = max(1, _BLOCK_ELEMENTS // L)
            plan += [(c, queries[s : s + step]) for s in range(0, queries.size, step)]
    return plan


def _with_galleries(
    plan: list[tuple[int, np.ndarray]],
    F: np.ndarray,
    embedding_of: np.ndarray,
    gids: np.ndarray,
    cams: np.ndarray,
    gallery_rule: str,
) -> Iterator[tuple[int, _Gallery, np.ndarray]]:
    """Each chunk of plan as (camera, gallery, rows). Under "camera" a
    block's gallery, the other cameras, is built when its first chunk is
    reached. Under the other rules one gallery of every image, scored
    against F.T, serves every block."""
    if gallery_rule != "camera":
        gallery = _gallery(np.arange(cams.size), F.T, embedding_of, gids)
    block = None
    for c, rows in plan:
        if gallery_rule == "camera" and c != block:
            cols = np.flatnonzero(cams != c)
            gallery = _gallery(cols, F[cols].T, embedding_of, gids)
            block = c
        yield c, gallery, rows


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _started_by_multiprocessing() -> bool:
    """Whether multiprocessing started this process. Its start-up code runs
    inside the multiprocessing package, so a process that has not imported
    it was not started by it, and need not pay for the import."""
    mp = sys.modules.get("multiprocessing")
    return mp is not None and mp.parent_process() is not None


def _chunk_aps(
    scores: np.ndarray,
    rows: np.ndarray,
    c: int,
    gallery: _Gallery,
    gids: np.ndarray,
    cams: np.ndarray,
    gallery_rule: str,
) -> np.ndarray:
    """AP of each query row of camera c against gallery, NaN for a row with
    nothing relevant, from its freshly computed scores, which it overwrites."""
    R = scores.shape[0]
    cols = gallery.cols
    scores[:, gallery.copies] = scores[:, gallery.sources]
    # Row r's pairs are the columns by_id[lo[r] : lo[r] + n_pairs[r]], in
    # column order.
    ids = gids[rows]
    lo = np.searchsorted(gallery.sorted_ids, ids, side="left")
    n_pairs = np.searchsorted(gallery.sorted_ids, ids, side="right") - lo
    pair_rows = np.repeat(np.arange(R), n_pairs)
    offsets = np.repeat(lo - (np.cumsum(n_pairs) - n_pairs), n_pairs)
    pair_cols = gallery.by_id[np.arange(pair_rows.size) + offsets]
    if gallery_rule != "camera":
        if gallery_rule == "camera-id":
            excluded = cams[cols[pair_cols]] == c
        else:
            excluded = cols[pair_cols] == rows[pair_rows]
        # -inf lies below every relevant score, so these never rank.
        scores[pair_rows[excluded], pair_cols[excluded]] = -np.inf
        pair_rows, pair_cols = pair_rows[~excluded], pair_cols[~excluded]
    return _block_aps(scores, pair_rows, pair_cols)


def _block_aps(scores: np.ndarray, pair_rows: np.ndarray, pair_cols: np.ndarray) -> np.ndarray:
    """AP of each C-contiguous score row against its gallery, NaN for a row
    with nothing relevant. (pair_rows, pair_cols) are the relevant cells, in
    any order. Columns outside a row's gallery hold -inf.

    The cells scoring at or above a row's lowest relevant score are ranked
    in (row, -score) order, ties in gallery order. Each AP sums its terms in
    rank order, which gives the bits oracles.ap_oracle gives."""
    R, L = scores.shape
    flat = scores.reshape(-1)
    cells = pair_rows * L + pair_cols
    n_rel = np.bincount(pair_rows, minlength=R)
    lowest = np.full(R, np.inf)
    np.minimum.at(lowest, pair_rows, flat[cells])
    at = np.flatnonzero(scores >= lowest[:, None])
    at_row = at // L
    counts = np.bincount(at_row, minlength=R)
    # at is sorted, and every relevant cell scores at or above its row's
    # lowest, so each is found in it.
    relevant = np.zeros(at.size, dtype=bool)
    relevant[np.searchsorted(at, cells)] = True
    # A quicksort on -score leaves equal scores in any order. A second one,
    # on the unique keys (rank among the distinct scores) * M + position in
    # at, below M**2 for M cells, puts them in gallery order, as at is. A
    # stable (radix) sort on row then orders the cells by (row, -score).
    neg = -flat[at]
    order = np.argsort(neg)
    value = neg[order]
    distinct = np.concatenate(([0], np.cumsum(value[1:] != value[:-1])))
    order = np.sort(distinct * at.size + order) % at.size
    by_row = at_row[order].astype(np.uint16 if R <= 1 << 16 else int)
    order = order[np.argsort(by_row, kind="stable")]
    hits = np.flatnonzero(relevant[order])
    row = at_row[order[hits]]
    rank = hits - (np.cumsum(counts) - counts)[row]
    k = np.arange(1, row.size + 1) - (np.cumsum(n_rel) - n_rel)[row]
    terms = k / (rank + 1)
    # Row r's k-th term goes to [k - 1, r] of a zero array. Accumulating down
    # the columns adds each row's terms one at a time in rank order; on a
    # single row, sum(axis=0) would add them in another order.
    sums = np.zeros((n_rel.max(initial=1), R))
    sums[k - 1, row] = terms
    return np.divide(np.cumsum(sums, axis=0)[-1], n_rel, out=np.full(R, np.nan), where=n_rel > 0)


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
        """Arithmetic mean of the per-camera mAPs, summed in camera order."""
        return ordered_sum(self.per_camera_map) / len(self.per_camera_map)

    def to_dict(self) -> dict:
        return {
            "per_camera_map": list(self.per_camera_map),
            "fmap": self.fmap,
            "mean_map": self.mean_map,
            "nh_trajectory": list(self.nh_trajectory),
            "assoc_precision": list(self.assoc_precision),
        }
