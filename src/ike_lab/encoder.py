"""Small multi-block encoder with analytic gradients.

Blocks 1..L-1 are affine maps followed by tanh; block L is affine, and its
output is L2-normalized into the final embedding. Middle-layer features are
tapped at blocks 2 and 3 so that internal representations can be distilled,
not just the output embedding. Everything is plain numpy with explicit
reverse-mode gradients, which keeps finite-difference checks exact and the
whole model serializable as JSON.

Parameters and gradients each live in one contiguous float64 vector, with
per-block weight and bias views laid out once. backward writes into the
gradient views, Adam updates the whole vector in one elementwise pass, and
grad_check perturbs it entry by entry, in the block order W_1, b_1, W_2, ...
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DEGENERATE_NORM, ConfigError, DegenerateEmbedding, ParseError, ShapeMismatch,
    check_kind, read_json_object, write_atomic,
)

# Blocks whose outputs are exposed as middle features.
MIDDLE_TAPS = (2, 3)

# Adam's moment decay rates and denominator guard.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# grad_check's central-difference step.
FD_STEP = 1e-5


def _block_views(flat: np.ndarray, widths: tuple[int, ...]):
    """Weight and bias views of each block, laid out in flat as
    W_1, b_1, W_2, b_2, ... with each W row-major."""
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(flat[at : at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return tuple(weights), tuple(biases)


class EncoderParams:
    """All parameters in one contiguous float64 vector, flat. weights[l]
    (d_{l+1}, d_l) and biases[l] (d_{l+1},) are views into it, so writing
    through either shows in the other; the tuples cannot be rebound."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]) -> None:
        if len(weights) != len(biases):
            raise ShapeMismatch("weights and biases must pair up")
        if len(weights) < 3:
            raise ConfigError("encoder needs at least 3 blocks so taps 2 and 3 exist")
        weights = [np.asarray(W, dtype=np.float64) for W in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        for l, (W, b) in enumerate(zip(weights, biases)):
            if W.ndim != 2 or b.shape != (W.shape[0],):
                raise ShapeMismatch(f"block {l + 1} has inconsistent shapes")
            if l > 0 and W.shape[1] != weights[l - 1].shape[0]:
                raise ShapeMismatch(f"block {l + 1} input dim breaks the chain")
        self.widths = (weights[0].shape[1], *(W.shape[0] for W in weights))
        self.flat = np.concatenate([a.ravel() for W, b in zip(weights, biases) for a in (W, b)])
        self.weights, self.biases = _block_views(self.flat, self.widths)

    @property
    def n_blocks(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.weights, self.biases)


class ParamGrads:
    """Zero gradients in the layout of params: flat, with weights[l] and
    biases[l] views into it."""

    def __init__(self, params: EncoderParams) -> None:
        self.flat = np.zeros_like(params.flat)
        self.weights, self.biases = _block_views(self.flat, params.widths)


def init_encoder(widths: list[int], rng: np.random.Generator) -> EncoderParams:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases.

    widths is the full chain [input_dim, d_1, ..., d_L].
    """
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return EncoderParams(weights, biases)


@dataclass
class BatchFeatures:
    """One forward pass over a batch: the parameters it ran with and every
    intermediate backward reads."""

    params: EncoderParams
    hs: list[np.ndarray]        # hs[0] = input, hs[l] = tanh block l output, l < L
    z: np.ndarray               # final affine output, pre-normalization
    znorm: np.ndarray           # (B, 1) row norms of z
    embeddings: np.ndarray      # (B, embed_dim), z / znorm, unit rows

    def tap(self, t: int) -> np.ndarray:
        """Block t's output: tanh for t < L, the pre-normalization affine output for t = L."""
        return self.z if t == self.params.n_blocks else self.hs[t]

    @property
    def middles(self) -> tuple[np.ndarray, np.ndarray]:
        """The outputs at MIDDLE_TAPS, blocks 2 and 3."""
        return self.tap(MIDDLE_TAPS[0]), self.tap(MIDDLE_TAPS[1])


def forward_batch(params: EncoderParams, X: np.ndarray) -> BatchFeatures:
    """Run the encoder over a (B, input_dim) batch."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ShapeMismatch(f"input shape {X.shape} vs encoder input dim {params.input_dim}")
    L = params.n_blocks
    hs = [X]
    for l in range(L - 1):
        hs.append(np.tanh(hs[-1] @ params.weights[l].T + params.biases[l]))
    z = hs[-1] @ params.weights[-1].T + params.biases[-1]
    znorm = np.linalg.norm(z, axis=1, keepdims=True)
    if np.any(znorm < DEGENERATE_NORM):
        raise DegenerateEmbedding("pre-normalization output has near-zero norm")
    return BatchFeatures(params, hs, z, znorm, z / znorm)


def backward(
    features: BatchFeatures,
    grad_embedding: np.ndarray,
    grad_middle_2: np.ndarray | None = None,
    grad_middle_3: np.ndarray | None = None,
) -> ParamGrads:
    """Exact reverse-mode gradients of the parameters features ran with,
    written into the views of one new ParamGrads.

    grad_embedding is dLoss/d(embedding) per sample; middle gradients, when
    given, are injected at taps 2 and 3. The normalization Jacobian
    (I - f f^T)/|z| is applied row-wise before the affine chain. The
    gradient with respect to the input is never formed.
    """
    params = features.params
    L = params.n_blocks
    F = features.embeddings
    gF = np.asarray(grad_embedding, dtype=np.float64)
    if gF.shape != F.shape:
        raise ShapeMismatch(f"grad_embedding shape {gF.shape} vs embeddings {F.shape}")
    tap_grads: dict[int, np.ndarray] = {}
    for tap, g in zip(MIDDLE_TAPS, (grad_middle_2, grad_middle_3)):
        if g is None:
            continue
        g = np.asarray(g, dtype=np.float64)
        expected = features.tap(tap).shape
        if g.shape != expected:
            raise ShapeMismatch(f"tap {tap} gradient shape {g.shape} vs features {expected}")
        tap_grads[tap] = g

    gz = (gF - np.sum(gF * F, axis=1, keepdims=True) * F) / features.znorm
    if L in tap_grads:
        gz = gz + tap_grads[L]
    grads = ParamGrads(params)
    np.matmul(gz.T, features.hs[L - 1], out=grads.weights[L - 1])
    gz.sum(axis=0, out=grads.biases[L - 1])
    gh = gz @ params.weights[L - 1]
    for l in range(L - 2, -1, -1):
        h = features.hs[l + 1]
        if (l + 1) in tap_grads:
            gh = gh + tap_grads[l + 1]
        ga = gh * (1.0 - h * h)
        np.matmul(ga.T, features.hs[l], out=grads.weights[l])
        ga.sum(axis=0, out=grads.biases[l])
        if l:
            gh = ga @ params.weights[l]
    return grads


def grad_check(params, loss_closure) -> float:
    """Max relative error between the closure's analytic gradients and
    central finite differences of step FD_STEP, the one finite-difference
    rule.

    loss_closure(params) -> (scalar value, gradient). params is EncoderParams
    with ParamGrads gradients, or any float array with a gradient array of
    its shape: either way both are read and perturbed entry by entry through
    .flat. The error metric per entry is |analytic - numeric| / max(1, |numeric|).
    """
    flat, gflat = params.flat, loss_closure(params)[1].flat
    max_err = 0.0
    for k in range(len(flat)):
        orig = flat[k]
        flat[k] = orig + FD_STEP
        fp = loss_closure(params)[0]
        flat[k] = orig - FD_STEP
        fm = loss_closure(params)[0]
        flat[k] = orig
        numeric = (fp - fm) / (2.0 * FD_STEP)
        err = abs(gflat[k] - numeric) / max(1.0, abs(numeric))
        if err > max_err:
            max_err = err
    return max_err


class Adam:
    """Adam with L2 weight decay folded into the gradient, moment rates
    BETA1 and BETA2, and EPS in the denominator. Each step takes its lr, so
    the caller owns the schedule. One elementwise pass over the flat vectors
    per step, so the result is bitwise that of a pass per array."""

    def __init__(self, params: EncoderParams, weight_decay: float) -> None:
        self.weight_decay = weight_decay
        self._m = np.zeros_like(params.flat)
        self._v = np.zeros_like(params.flat)
        self._t = 0

    def step(self, params: EncoderParams, grads: ParamGrads, lr: float) -> None:
        self._t += 1
        bc1 = 1.0 - BETA1 ** self._t
        bc2 = 1.0 - BETA2 ** self._t
        theta, m, v = params.flat, self._m, self._v
        g = grads.flat + self.weight_decay * theta
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def save_encoder(params: EncoderParams, path: str | Path) -> None:
    doc = {
        "widths": params.widths,
        "blocks": [
            {"W": W.tolist(), "b": b.tolist()}
            for W, b in zip(params.weights, params.biases)
        ],
    }
    write_atomic(Path(path), json.dumps(doc))


# Snapshot entries and their kinds.
ENCODER_KINDS = {"widths": "list", "blocks": "list"}


def load_encoder(path: str | Path) -> EncoderParams:
    """Read a snapshot that save_encoder wrote. A malformed file raises
    ParseError naming it, including one whose widths do not outnumber its
    blocks by exactly one or whose block W disagrees with widths."""
    path = Path(path)
    doc = read_json_object(path, "encoder snapshot", ENCODER_KINDS, required=tuple(ENCODER_KINDS))
    widths, blocks = doc["widths"], doc["blocks"]
    for i, w in enumerate(widths):
        check_kind(f"{path.name}: widths[{i}]", w, "int", ParseError)
    if len(widths) != len(blocks) + 1:
        raise ParseError(f"{path.name}: {len(widths)} widths for {len(blocks)} blocks")
    weights, biases = [], []
    for l, block in enumerate(blocks):
        try:
            W = np.array(block["W"], dtype=np.float64)
            b = np.array(block["b"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path.name}: block {l + 1}: {exc!r}") from exc
        if W.shape != (widths[l + 1], widths[l]):
            raise ParseError(f"{path.name}: block {l + 1} shape {W.shape} disagrees with widths")
        weights.append(W)
        biases.append(b)
    try:
        return EncoderParams(weights, biases)
    except (ShapeMismatch, ConfigError) as exc:
        raise ParseError(f"{path.name}: {exc}") from exc
