"""Retrieval metrics and experiment reports.

Evaluation is strict cross-camera retrieval by default: a query's gallery is
every test image from other cameras, relevance is same global identity, and
queries with no relevant item are skipped rather than scored zero. Ranks are
counted, not sorted: a relevant item's rank is the number of gallery items
that score above it, plus those that tie with it at a lower gallery index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, EmptyGallery, MissingProvenance, NoRelevant, ShapeMismatch
from .encoder import EncoderParams, forward_batch

if TYPE_CHECKING:
    from .datasets import DatasetBundle, TestSplit
    from .trainer import Hyperparams

GALLERY_RULES = ("camera", "camera-id", "none")


def _ap_at_ranks(ranks: np.ndarray, length: int, n_relevant: int) -> float:
    """AP of a ranked list of the given length whose relevant items sit at
    the 0-based positions in ranks: the mean over the k-th relevant item of
    k / (rank_k + 1), normalized by n_relevant.

    The terms are written into a zero vector at their ranks and summed with
    numpy's pairwise sum, so the result depends only on the positions, bit
    for bit, however the ranks were found.
    """
    ranks = np.sort(ranks)
    terms = np.zeros(length)
    terms[ranks] = np.arange(1, ranks.shape[0] + 1) / (ranks + 1)
    return float(terms.sum() / n_relevant)


def average_precision(relevance: np.ndarray, n_relevant: int) -> float:
    """AP of a ranked 0/1 relevance list: mean of precision@k over the ranks
    k holding relevant items, normalized by n_relevant."""
    if n_relevant < 1:
        raise NoRelevant("average precision needs at least one relevant item")
    relevance = np.asarray(relevance)
    return _ap_at_ranks(np.flatnonzero(relevance), relevance.shape[0], n_relevant)


def evaluate_map(
    params: EncoderParams, test: "TestSplit", gallery_rule: str = "camera"
) -> float:
    """mAP over all scorable queries of the test split.

    gallery_rule "camera" excludes every same-camera item from a query's
    gallery; "camera-id" excludes only same-camera same-identity items
    (junk-style handling), keeping same-camera distractors; "none" keeps
    everything but the query itself, which is the only meaningful choice
    for single-camera splits.

    No gallery is sorted. The rank of a relevant item i is the number of
    gallery items scoring above it plus the number scoring the same at a
    lower gallery index: the order a stable sort on -score gives, so ties
    break toward the lower index. Each query costs O(n_relevant x gallery)
    comparisons and memory.
    """
    if gallery_rule not in GALLERY_RULES:
        raise ConfigError(f"gallery_rule must be one of {GALLERY_RULES}")
    N = len(test)
    if N == 0:
        raise EmptyGallery("empty test split")
    F = forward_batch(params, test.X).embeddings
    sims = F @ F.T
    aps = []
    for q in range(N):
        if gallery_rule == "camera":
            mask = test.camera_ids != test.camera_ids[q]
        elif gallery_rule == "camera-id":
            mask = ~(
                (test.camera_ids == test.camera_ids[q])
                & (test.global_ids == test.global_ids[q])
            )
            mask[q] = False
        else:
            mask = np.ones(N, dtype=bool)
            mask[q] = False
        gallery = np.flatnonzero(mask)
        relevant = np.flatnonzero(test.global_ids[gallery] == test.global_ids[q])
        if relevant.size == 0:
            continue
        scores = sims[q, gallery]
        s_rel = scores[relevant, None]
        ranks = (scores > s_rel).sum(axis=1) + (
            (scores == s_rel) & (np.arange(gallery.size) < relevant[:, None])
        ).sum(axis=1)
        aps.append(_ap_at_ranks(ranks, gallery.size, relevant.size))
    if not aps:
        raise EmptyGallery("no query had a nonempty gallery with relevant items")
    return float(np.mean(aps))


@dataclass
class MetricsReport:
    """Everything one sequential run produces, with self-consistency checks."""

    per_camera_map: list[float]
    fmap: float
    mean_map: float
    nh_trajectory: list[int]
    assoc_precision: list[float | None]
    seed: int
    variant: str
    order: list[int]
    forgetting: list[float] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        C = len(self.per_camera_map)
        if C == 0:
            raise ShapeMismatch("report needs at least one camera step")
        if len(self.nh_trajectory) != C or len(self.assoc_precision) != C or len(self.order) != C:
            raise ShapeMismatch("per-camera fields must all have one entry per step")
        if self.fmap != self.per_camera_map[-1]:
            raise ShapeMismatch("fmap must equal the final per-camera mAP")
        if abs(self.mean_map - sum(self.per_camera_map) / C) > 1e-12:
            raise ShapeMismatch("mean_map must be the arithmetic mean of per-camera mAP")

    @classmethod
    def build(
        cls,
        per_camera_map: list[float],
        nh_trajectory: list[int],
        assoc_precision: list[float | None],
        seed: int,
        variant: str,
        order: list[int],
        meta: dict | None = None,
    ) -> "MetricsReport":
        return cls(
            per_camera_map=list(per_camera_map),
            fmap=per_camera_map[-1],
            mean_map=sum(per_camera_map) / len(per_camera_map),
            nh_trajectory=list(nh_trajectory),
            assoc_precision=list(assoc_precision),
            seed=seed,
            variant=variant,
            order=list(order),
            meta=dict(meta or {}),
        )

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "seed": self.seed,
            "order": list(self.order),
            "per_camera_map": list(self.per_camera_map),
            "fmap": self.fmap,
            "mean_map": self.mean_map,
            "nh_trajectory": list(self.nh_trajectory),
            "assoc_precision": list(self.assoc_precision),
            "forgetting": self.forgetting,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricsReport":
        return cls(
            per_camera_map=list(doc["per_camera_map"]),
            fmap=doc["fmap"],
            mean_map=doc["mean_map"],
            nh_trajectory=list(doc["nh_trajectory"]),
            assoc_precision=list(doc["assoc_precision"]),
            seed=doc["seed"],
            variant=doc["variant"],
            order=list(doc["order"]),
            forgetting=doc.get("forgetting"),
            meta=dict(doc.get("meta", {})),
        )


def forgetting_curve(report: MetricsReport, upperbound_map: float) -> list[float]:
    """Per-step gap to the jointly trained upper bound."""
    return [upperbound_map - m for m in report.per_camera_map]


def precision_matrix(
    bundle: "DatasetBundle",
    hyper: "Hyperparams",
    hidden: list[int],
    embed_dim: int,
    seed: int = 0,
) -> np.ndarray:
    """Pairwise-camera association accuracy.

    P[i, j]: train a fresh model on camera i alone, then associate camera
    j's identity memory against the resulting history and score the matches
    with the ground-truth tags. The diagonal is undefined (NaN). Training on
    a first camera is variant-independent, so each camera is trained once.
    """
    from .association import association_precision, cycle_match
    from .memory import init_memory
    from .trainer import Variant, init_state, train_camera

    C = bundle.n_cameras
    for cam in bundle.cameras:
        if cam.label_to_global is None:
            raise MissingProvenance(f"camera {cam.camera_id} lacks identity tags")
    P = np.full((C, C), np.nan)
    for i in range(C):
        state = init_state(bundle.input_dim, hidden, embed_dim, hyper, seed)
        train_camera(state, bundle.cameras[i], Variant.IKE)
        for j in range(C):
            if j == i:
                continue
            mem_j = init_memory(state.encoder, bundle.cameras[j])
            assoc = cycle_match(mem_j, state.memory)
            res = association_precision(
                assoc, bundle.cameras[j].label_to_global, state.memory.provenance
            )
            if res.precision is not None:
                P[i, j] = res.precision
    return P
