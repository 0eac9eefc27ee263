"""Independent reference implementations used to cross-check the fast paths.

These deliberately avoid the production code paths: matching is an
exhaustive scan instead of vectorized argmax, ranking metrics walk a
python-sorted list, and memory rules are recomputed entry by entry.
Gradients are checked by encoder.grad_check's central differences. Keep
them dumb.
"""

from __future__ import annotations

import math

import numpy as np


def _first_argmax(values) -> int:
    """Index of the first maximum of a nonempty sequence, by a plain scan."""
    best = 0
    for k in range(1, len(values)):
        if values[k] > values[best]:
            best = k
    return best


def mutual_argmax_oracle(cur_rows: np.ndarray, hist_rows: np.ndarray) -> list[int]:
    """Exhaustive mutual-argmax matching; -1 where no mutual pair exists.
    First maximum wins on ties in both directions."""
    if hist_rows.shape[0] == 0:
        return [-1] * cur_rows.shape[0]
    scores = np.matmul(cur_rows, hist_rows.T).tolist()
    row_best = [_first_argmax(row) for row in scores]
    col_best = [_first_argmax(col) for col in zip(*scores)]
    return [j if col_best[j] == i else -1 for i, j in enumerate(row_best)]


def one_way_argmax_oracle(cur_rows: np.ndarray, hist_rows: np.ndarray) -> list[int]:
    if hist_rows.shape[0] == 0:
        return [-1] * cur_rows.shape[0]
    return [_first_argmax(row) for row in np.matmul(cur_rows, hist_rows.T).tolist()]


def ap_oracle(scores, relevance) -> float | None:
    """Average precision by walking the list sorted on (-score, index)."""
    order = sorted(range(len(scores)), key=lambda k: (-scores[k], k))
    n_rel = sum(1 for r in relevance if r)
    if n_rel == 0:
        return None
    hits = 0
    acc = 0.0
    for rank, k in enumerate(order, start=1):
        if relevance[k]:
            hits += 1
            acc += hits / rank
    return acc / n_rel


def map_oracle(embeddings: np.ndarray, global_ids, camera_ids, gallery_rule: str = "camera") -> float:
    """Retrieval mAP with per-pair dot products and python sorting; queries
    with no relevant gallery item are skipped.

    The gallery of query q is every other item g that the rule admits:
    "camera" drops items from q's camera, "camera-id" drops items from q's
    camera with q's identity, and "none" keeps them all.
    """
    N = embeddings.shape[0]
    aps = []
    for q in range(N):
        scores = []
        relevance = []
        for g in range(N):
            same_camera = camera_ids[g] == camera_ids[q]
            same_id = global_ids[g] == global_ids[q]
            if g == q or (gallery_rule == "camera" and same_camera) or (
                gallery_rule == "camera-id" and same_camera and same_id
            ):
                continue
            scores.append(float(np.dot(embeddings[q], embeddings[g])))
            relevance.append(same_id)
        if not scores:
            continue
        ap = ap_oracle(scores, relevance)
        if ap is not None:
            aps.append(ap)
    if not aps:
        raise ValueError("no scorable query")
    return sum(aps) / len(aps)


def group_mean_rows_oracle(features: np.ndarray, labels) -> np.ndarray:
    """Per-label mean then L2 normalization, accumulated with fsum."""
    n = max(labels) + 1
    dim = features.shape[1]
    rows = np.zeros((n, dim))
    for y in range(n):
        members = [i for i in range(features.shape[0]) if labels[i] == y]
        mean = [math.fsum(float(features[i][d]) for i in members) / len(members) for d in range(dim)]
        norm = math.sqrt(math.fsum(v * v for v in mean))
        rows[y] = [v / norm for v in mean]
    return rows


def momentum_oracle(row, f, omega: float) -> np.ndarray:
    blended = [omega * float(a) + (1.0 - omega) * float(b) for a, b in zip(row, f)]
    norm = math.sqrt(math.fsum(v * v for v in blended))
    return np.array([v / norm for v in blended])


def iku_oracle(hist_rows: np.ndarray, cur_rows: np.ndarray, matches, lam: float) -> np.ndarray:
    """Update-then-expand recomputed per entry: matched targets are blends of
    the original history row with the current row, unmatched rows append."""
    out = [list(map(float, r)) for r in hist_rows]
    for j, t in enumerate(matches):
        if t < 0:
            continue
        blended = [
            lam * float(hist_rows[t][d]) + (1.0 - lam) * float(cur_rows[j][d])
            for d in range(hist_rows.shape[1])
        ]
        norm = math.sqrt(math.fsum(v * v for v in blended))
        out[t] = [v / norm for v in blended]
    for j, t in enumerate(matches):
        if t < 0:
            out.append(list(map(float, cur_rows[j])))
    return np.array(out).reshape(len(out), hist_rows.shape[1])

