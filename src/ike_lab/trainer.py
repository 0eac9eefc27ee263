"""Per-camera incremental training, the sequence runner, the joint upper
bound, and the pairwise-camera association precision matrix.

Each camera is trained with a copy of the historical model while the
historical model and memory stay frozen; at the camera boundary the memory
is rebuilt from the trained model, the history is rotated into the trained
model's embedding space, the two are matched and merged, and the model
itself becomes the new history.

Variants differ only by their row in POLICIES: the matcher (used both for
the loss labels and at the boundary), merge or replace at the boundary, the
loss terms batch_loss_and_grads computes, and whether the distillation
gates are forced open. The gradient checks run that same step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .association import (
    all_unmatched,
    association_precision,
    augment_dataset,
    cycle_match,
    one_way_match,
)
from .datasets import CameraDataset, DatasetBundle
from .encoder import Adam, EncoderParams, forward_batch, init_encoder
from .errors import ConfigError, NonFiniteLoss, check_field_types
from .evaluation import MetricsReport, evaluate_map
from .losses import TERMS, LossBreakdown, loss_id, loss_id_hist, loss_kd, loss_mkd
from .memory import (
    NO_MATCH,
    IdentityMemory,
    align_memory,
    empty_memory,
    init_memory,
    iku_merge,
    momentum_update,
)


class Variant(enum.Enum):
    """Ablation switches. Each variant's rules are its row in POLICIES.
    BASELINE fine-tunes with the contrastive term only, IKE is the full
    method, and each IKE_* ablation changes one of IKE's rules."""

    BASELINE = "BASELINE"
    IKE_D = "IKE_D"
    IKE_A = "IKE_A"
    IKE_U = "IKE_U"
    IKE_STAR = "IKE_STAR"
    IKE = "IKE"


VARIANT_NAMES = [v.value for v in Variant]


@dataclass(frozen=True)
class Policy:
    """One variant's rules.

    matcher is "cycle" (cycle_match), "one_way" (one_way_match), or None:
    no association, so the history takes no part in training. It is a name,
    looked up in this module at call time. merge=False replaces the history
    at the boundary instead of merging into it. terms are the loss terms a
    training step computes, in TERMS order; a row without a matcher has
    only the first. force_gates distils unmatched samples too.
    """

    matcher: str | None
    merge: bool
    terms: tuple[str, ...]
    force_gates: bool


# TERMS[:-1] leaves out the last term, middle-layer distillation.
POLICIES = {
    #                         matcher    merge  terms        force_gates
    Variant.BASELINE: Policy(None,      True,  TERMS[:1],   False),
    Variant.IKE_D:    Policy("cycle",   True,  TERMS[:-1],  False),
    Variant.IKE_A:    Policy("one_way", True,  TERMS,       False),
    Variant.IKE_U:    Policy("cycle",   False, TERMS,       False),
    Variant.IKE_STAR: Policy("cycle",   True,  TERMS,       True),
    Variant.IKE:      Policy("cycle",   True,  TERMS,       False),
}


# The optimizer recipe: Adam's L2 weight decay, and the step schedule that
# multiplies the learning rate by LR_DECAY every LR_STEP epochs.
WEIGHT_DECAY, LR_DECAY, LR_STEP = 5e-4, 0.1, 15


@dataclass(frozen=True)
class Hyperparams:
    """Training hyperparameters, checked when built: a Hyperparams that
    exists is valid, and dataclasses.replace builds (and checks) a new one."""

    tau: float = 0.05
    omega: float = 0.1
    lam: float = 0.25
    lr: float = 3.5e-4
    epochs: int = 30
    batch_size: int = 64

    def __post_init__(self) -> None:
        check_field_types(self)  # every float field finite
        if self.tau <= 0:
            raise ConfigError("tau must be positive")
        if not 0.0 <= self.omega <= 1.0:
            raise ConfigError("omega must lie in [0, 1]")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("lambda must lie in [0, 1]")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs >= 0 and batch_size >= 1 required")

    def lr_at(self, epoch: int) -> float:
        return self.lr * LR_DECAY ** (epoch // LR_STEP)


@dataclass
class TrainState:
    """Everything carried across camera boundaries."""

    encoder: EncoderParams          # historical model between cameras
    memory: IdentityMemory          # historical identity memory
    hyper: Hyperparams
    rng: np.random.Generator
    camera_index: int = 0


def init_state(
    input_dim: int,
    hidden: list[int],
    embed_dim: int,
    hyper: Hyperparams,
    seed: int | np.random.SeedSequence = 0,
) -> TrainState:
    if not isinstance(seed, np.random.SeedSequence) and seed < 0:
        raise ConfigError(f"seed={seed} must be nonnegative")
    rng = np.random.default_rng(seed)
    encoder = init_encoder([input_dim, *hidden, embed_dim], rng)
    return TrainState(encoder, empty_memory(embed_dim), hyper, rng)


class RunRecorder:
    """No-op hooks; subclass to capture logs, checkpoints, or batch traces."""

    def on_batch(self, camera_step: int, epoch: int, batch: int, breakdown: LossBreakdown) -> None:
        pass

    def on_epoch(
        self, camera_step: int, camera_id: int, epoch: int, mean_breakdown: LossBreakdown, lr: float
    ) -> None:
        pass

    def on_camera(self, camera_step: int, camera_id: int, state: "TrainState", result: "CameraResult") -> None:
        pass


@dataclass
class CameraResult:
    assoc: np.ndarray
    assoc_precision: float | None


def _associate(policy: Policy, cur: IdentityMemory, hist: IdentityMemory) -> np.ndarray:
    """The variant's association, used both for the loss labels and for the
    merge at the boundary."""
    if policy.matcher is None or len(hist) == 0:
        return all_unmatched(len(cur))
    if policy.matcher == "one_way":
        return one_way_match(cur, hist)
    return cycle_match(cur, hist)


def _mean_breakdown(items: list[LossBreakdown]) -> LossBreakdown:
    n = len(items)
    return LossBreakdown(**{term: sum(getattr(b, term) for b in items) / n for term in TERMS})


def _check_finite(mean: LossBreakdown, camera_id: int, epoch: int) -> None:
    """A diverged run stops here, before its losses, memory or metrics are
    recorded."""
    for term, value in zip((*TERMS, "total"), mean.as_row()):
        if not math.isfinite(value):
            raise NonFiniteLoss(
                f"camera {camera_id}, epoch {epoch}: mean loss term {term} is not finite"
            )


def batch_loss_and_grads(
    policy: Policy,
    cur_params: EncoderParams,
    hist_feats: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
    Xb: np.ndarray,
    yb: np.ndarray,
    yhb: np.ndarray,
    cur_memory: IdentityMemory,
    hist_memory: IdentityMemory,
    hyper: Hyperparams,
):
    """The policy's loss terms on one batch plus parameter gradients.

    History terms run once there is a history, distillation terms when some
    gate is open; only these read hist_feats, the historical model's
    (embeddings, tap-2 output, tap-3 output) of the rows of Xb, so it may be
    None otherwise. Returns (breakdown, param_grads, current embeddings).
    The historical features and both memories are constants for the gradient.
    """
    from .encoder import backward

    out_c = forward_batch(cur_params, Xb)
    F = out_c.embeddings
    gates = (yhb != NO_MATCH).astype(np.float64)
    if policy.force_gates:
        gates = np.ones_like(gates)
    history = len(hist_memory) > 0
    distil = history and gates.any()
    # Per term: whether it runs on this batch, and the call giving its value
    # and its gradient, of the embeddings or (middle-layer term) of taps 2-3.
    # Embedding gradients sum in TERMS order from the first term that runs.
    steps = dict(zip(TERMS, (
        (True, lambda: loss_id(F, yb, cur_memory, hyper.tau)),
        (history, lambda: loss_id_hist(F, yhb, hist_memory, hyper.tau)),
        (distil, lambda: loss_kd(F, hist_feats[0], gates)),
        (distil, lambda: loss_mkd(out_c.middles, hist_feats[1:], gates)),
    )))
    values: dict[str, float] = {}
    gF, taps = None, (None, None)
    for term in policy.terms:
        runs, call = steps[term]
        if not runs:
            continue
        values[term], grad = call()
        if isinstance(grad, tuple):
            taps = grad
        else:
            gF = grad if gF is None else gF + grad
    grads = backward(out_c, np.zeros_like(F) if gF is None else gF, *taps)
    return LossBreakdown(**values), grads, F


def train_camera(
    state: TrainState,
    dataset: CameraDataset,
    variant: Variant,
    recorder: RunRecorder = RunRecorder(),
) -> CameraResult:
    """One incremental step: adapt a copy of the historical model to this
    camera, then evolve the historical memory and promote the model."""
    hyper = state.hyper
    if len(dataset) == 0:
        raise ConfigError("cannot train on an empty camera dataset")
    policy = POLICIES[variant]
    hist_params = state.encoder
    hist_memory = state.memory
    cur_params = hist_params.copy()
    X = dataset.X
    # The historical model is frozen for the whole camera: forward it once.
    # Its embeddings build the starting memory, and distillation hands each
    # batch its rows of the same record; training holds nothing else of it.
    frozen = forward_batch(hist_params, X)
    cur_memory = init_memory(frozen.embeddings, dataset)

    assoc = _associate(policy, cur_memory, hist_memory)
    prec: float | None = None
    if dataset.label_to_global is not None and hist_memory.provenance is not None:
        prec = association_precision(
            assoc, dataset.label_to_global, hist_memory.provenance
        ).precision
    y = dataset.labels
    y_hist = augment_dataset(dataset, assoc)
    hist_feats = None
    if policy.matcher is not None and len(hist_memory) > 0:
        hist_feats = (frozen.embeddings, *frozen.middles)
    del frozen

    opt = Adam(cur_params, WEIGHT_DECAY)
    N = len(dataset)
    for epoch in range(hyper.epochs):
        lr = hyper.lr_at(epoch)
        # One gather per epoch; each batch is a slice of the shuffled rows.
        perm = state.rng.permutation(N)
        Xp, yp, yhp = X[perm], y[perm], y_hist[perm]
        hp = None if hist_feats is None else tuple(a[perm] for a in hist_feats)
        batch_logs: list[LossBreakdown] = []
        for b, start in enumerate(range(0, N, hyper.batch_size)):
            sl = slice(start, start + hyper.batch_size)
            breakdown, grads, emb = batch_loss_and_grads(
                policy, cur_params, None if hp is None else tuple(a[sl] for a in hp),
                Xp[sl], yp[sl], yhp[sl], cur_memory, hist_memory, hyper,
            )
            opt.step(cur_params, grads, lr)
            momentum_update(cur_memory, yp[sl], emb, hyper.omega)
            batch_logs.append(breakdown)
            recorder.on_batch(state.camera_index, epoch, b, breakdown)
        mean = _mean_breakdown(batch_logs)
        _check_finite(mean, dataset.camera_id, epoch)
        recorder.on_epoch(state.camera_index, dataset.camera_id, epoch, mean, lr)

    final_memory = init_memory(forward_batch(cur_params, X).embeddings, dataset)
    if policy.merge:
        # The history was embedded by earlier models: rotate it into the
        # trained model's space through the identities trained as common,
        # then match again in that one space and merge.
        aligned = align_memory(hist_memory, final_memory, assoc)
        final_assoc = _associate(policy, final_memory, aligned)
        new_hist = iku_merge(aligned, final_memory, final_assoc, hyper.lam)
    else:
        new_hist = final_memory
    state.encoder = cur_params
    state.memory = new_hist
    state.camera_index += 1
    result = CameraResult(assoc=assoc, assoc_precision=prec)
    recorder.on_camera(state.camera_index - 1, dataset.camera_id, state, result)
    return result


def run_sequence(
    bundle: DatasetBundle,
    order: list[int],
    variant: Variant,
    hyper: Hyperparams,
    hidden: list[int],
    embed_dim: int,
    seed: int | np.random.SeedSequence,
    recorder: RunRecorder = RunRecorder(),
    gallery_rule: str = "camera",
) -> MetricsReport:
    """Train every camera in order, evaluating on the fixed test split after
    each one."""
    C = bundle.n_cameras
    if sorted(order) != list(range(C)):
        raise ConfigError(f"order {order} is not a permutation of 0..{C - 1}")
    state = init_state(bundle.input_dim, hidden, embed_dim, hyper, seed)
    maps: list[float] = []
    nhs: list[int] = []
    precs: list[float | None] = []
    for cam_idx in order:
        result = train_camera(state, bundle.cameras[cam_idx], variant, recorder)
        maps.append(evaluate_map(state.encoder, bundle.test, gallery_rule))
        nhs.append(len(state.memory))
        precs.append(result.assoc_precision)
    return MetricsReport(maps, nhs, precs)


def merge_cameras_with_global_labels(bundle: DatasetBundle) -> CameraDataset:
    """Union of all cameras relabelled by global identity (contiguous ids)."""
    bundle.identity_tables()  # every camera must carry tags
    uniq, labels = np.unique(
        np.concatenate([cam.global_ids for cam in bundle.cameras]), return_inverse=True
    )
    X = np.concatenate([cam.X for cam in bundle.cameras], axis=0)
    return CameraDataset(-1, X, labels, len(uniq), uniq)


def train_joint_upperbound(
    bundle: DatasetBundle,
    hyper: Hyperparams,
    hidden: list[int],
    embed_dim: int,
    seed: int | np.random.SeedSequence,
    gallery_rule: str = "camera",
) -> tuple[EncoderParams, float]:
    """One model trained on the union of all cameras with global labels and
    the contrastive term only; the reference a sequential run is compared with."""
    merged = merge_cameras_with_global_labels(bundle)
    state = init_state(bundle.input_dim, hidden, embed_dim, hyper, seed)
    train_camera(state, merged, Variant.BASELINE)
    return state.encoder, evaluate_map(state.encoder, bundle.test, gallery_rule)


def precision_matrix(
    bundle: DatasetBundle,
    hyper: Hyperparams,
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
    C = bundle.n_cameras
    bundle.identity_tables()  # every camera must carry tags
    P = np.full((C, C), np.nan)
    for i in range(C):
        state = init_state(bundle.input_dim, hidden, embed_dim, hyper, seed)
        train_camera(state, bundle.cameras[i], Variant.IKE)
        for j, cam in enumerate(bundle.cameras):
            if j == i:
                continue
            mem_j = init_memory(forward_batch(state.encoder, cam.X).embeddings, cam)
            assoc = cycle_match(mem_j, state.memory)
            res = association_precision(assoc, cam.label_to_global, state.memory.provenance)
            if res.precision is not None:
                P[i, j] = res.precision
    return P
