"""The four training loss terms and their gradients w.r.t. current features.

Every term returns (value, gradient) where the gradient is taken with
respect to the current model's features only; memories and historical
features are constants. All terms use the batch-mean convention so the
optimization direction is invariant to batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import EmptyBatch, EmptyMemory, LabelOutOfRange, ShapeMismatch, index_array
from .memory import NO_MATCH, IdentityMemory


@dataclass(frozen=True)
class LossBreakdown:
    """Per-batch loss terms, one per entry of TERMS (0 if it did not run)."""

    id: float = 0.0
    id_hist: float = 0.0
    kd: float = 0.0
    mkd: float = 0.0

    @property
    def total(self) -> float:
        return sum(getattr(self, term) for term in TERMS)

    def as_row(self) -> tuple[float, ...]:
        return (*(getattr(self, term) for term in TERMS), self.total)


# The loss terms, in the order a training step sums them.
TERMS = tuple(f.name for f in fields(LossBreakdown))


def _contrastive(
    F: np.ndarray, y: np.ndarray, rows: np.ndarray, tau: float, B: int
) -> tuple[float, np.ndarray]:
    """Sum over the rows of F of -log softmax_j(F_i . rows_j / tau) at
    j = y_i, divided by B, and its gradient with respect to F."""
    logits = (F @ rows.T) / tau
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    value = float(-logp[np.arange(y.shape[0]), y].sum() / B)
    return value, (np.exp(logp) @ rows - rows[y]) / (tau * B)


def _check_batch(
    name: str, what: str, F: np.ndarray, labels, memory: IdentityMemory
) -> int:
    """The batch size B of F, once F holds a row per sample, labels is of
    shape (B,) and the memory rows are as wide as the features."""
    B = F.shape[0]
    if B == 0:
        raise EmptyBatch(f"{name} on an empty batch")
    if np.shape(labels) != (B,):
        raise ShapeMismatch(f"{what} shape {np.shape(labels)} vs batch {B}")
    if F.ndim != 2 or memory.dim != F.shape[1]:
        raise ShapeMismatch(f"memory shape {memory.rows.shape} vs features {F.shape}")
    return B


def loss_id(
    F: np.ndarray, labels: np.ndarray, memory: IdentityMemory, tau: float
) -> tuple[float, np.ndarray]:
    """Cluster contrastive loss against the current-camera memory.

    Mean over the batch of -log softmax_j(F_i . M_j / tau) at j = label_i.
    The memory receives no gradient.
    """
    F = np.asarray(F, dtype=np.float64)
    B = _check_batch("loss_id", "labels", F, labels, memory)
    if len(memory) == 0:
        raise EmptyMemory("loss_id needs a nonempty memory")
    labels = index_array("label", labels, LabelOutOfRange, len(memory))
    return _contrastive(F, labels, memory.rows, tau, B)


def loss_id_hist(
    F: np.ndarray, hist_labels: np.ndarray, hist: IdentityMemory, tau: float
) -> tuple[float, np.ndarray]:
    """Contrastive loss against the frozen historical memory, gated so that
    only samples with a matched historical label contribute. The sum of the
    matched terms is divided by the full batch size."""
    F = np.asarray(F, dtype=np.float64)
    B = _check_batch("loss_id_hist", "hist_labels", F, hist_labels, hist)
    hist_labels = index_array("historical label", hist_labels)
    grad = np.zeros_like(F)
    mask = hist_labels != NO_MATCH
    if len(hist) == 0 or not mask.any():
        return 0.0, grad
    y = index_array("historical label", hist_labels[mask], LabelOutOfRange, len(hist))
    value, grad[mask] = _contrastive(F[mask], y, hist.rows, tau, B)
    return value, grad


def _gated_sq_distance(
    name: str, what: str, a: np.ndarray, b: np.ndarray, gates: np.ndarray
) -> tuple[int, float, np.ndarray]:
    """(B, sum_i gates_i |a_i - b_i|^2, gates[:, None] * (a - b)) for one
    pair of feature batches; b is constant."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    gates = np.asarray(gates, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"{what} shapes differ: {a.shape} vs {b.shape}")
    B = a.shape[0]
    if B == 0:
        raise EmptyBatch(f"{name} on an empty batch")
    if gates.shape != (B,):
        raise ShapeMismatch(f"gates shape {gates.shape} vs batch {B}")
    diff = a - b
    return B, (gates * (diff * diff).sum(axis=1)).sum(), gates[:, None] * diff


def loss_kd(
    Fc: np.ndarray, Fh: np.ndarray, gates: np.ndarray
) -> tuple[float, np.ndarray]:
    """Gated squared-distance distillation between current and historical
    embeddings; the historical side is constant."""
    B, value, gated_diff = _gated_sq_distance("loss_kd", "feature", Fc, Fh, gates)
    return float(value / B), 2.0 * gated_diff / B


def loss_mkd(
    middles_c: Sequence[np.ndarray],
    middles_h: Sequence[np.ndarray],
    gates: np.ndarray,
) -> tuple[float, tuple[np.ndarray, ...]]:
    """Middle-layer distillation over taps 2 and 3: half the gated squared
    distance summed over taps, batch-mean normalized."""
    if len(middles_c) != len(middles_h):
        raise ShapeMismatch("middle feature lists differ in length")
    value = 0.0
    grads = []
    for hc, hh in zip(middles_c, middles_h):
        B, tap_value, gated_diff = _gated_sq_distance("loss_mkd", "middle", hc, hh, gates)
        value += float(tap_value / (2.0 * B))
        grads.append(gated_diff / B)
    return value, tuple(grads)
