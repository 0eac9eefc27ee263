"""The oracle checks and the selftest that runs them.

Each check drives a fast path on random inputs and compares it with its
brute-force reference in oracles: check_cycle_match for IKA's matching,
check_memory_algebra for IKU's momentum update and merge, check_gradients
for the analytic gradients of IKD's loss terms (against central
differences), and check_map for retrieval mAP. selftest runs all four at
small sizes; acceptance criteria 1-4 run them at full size. Unlike oracles,
these checks call the production paths, since those are what they check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .association import cycle_match
from .datasets import TestSplit
from .encoder import EncoderParams, forward_batch, grad_check, init_encoder
from .errors import ConfigError, EmptyGallery
from .evaluation import evaluate_map
from .losses import TERMS
from .memory import IdentityMemory, empty_memory, iku_merge, momentum_update, unit_rows
from . import oracles
from .trainer import POLICIES, Hyperparams, Variant, batch_loss_and_grads


GRAD_TERMS = (*TERMS, "ikd")


def make_loss_closure(
    term: str,
    hist_params: EncoderParams,
    X: np.ndarray,
    y: np.ndarray,
    y_hist: np.ndarray,
    cur_memory: IdentityMemory,
    hist_memory: IdentityMemory,
    hyper: Hyperparams,
):
    """Closure (params) -> (total loss, ParamGrads) of IKE's training step
    with its row cut to one term, or whole for "ikd"; history features and
    memories are constants."""
    if term not in GRAD_TERMS:
        raise ConfigError(f"unknown loss term {term!r}")
    policy = POLICIES[Variant.IKE]
    if term in TERMS:
        policy = replace(policy, terms=(term,))
    out_h = forward_batch(hist_params, X)
    hist_feats = (out_h.embeddings, *out_h.middles)

    def closure(params: EncoderParams):
        breakdown, grads, _ = batch_loss_and_grads(
            policy, params, hist_feats, X, y, y_hist, cur_memory, hist_memory, hyper
        )
        return breakdown.total, grads

    return closure


def grad_fixture(rng: np.random.Generator, widths: list[int]):
    """A random batch of 3-8 inputs for the gradient checks: the current
    encoder, then make_loss_closure's arguments after term."""
    params = init_encoder(widths, rng)
    hist_params = init_encoder(widths, rng)
    batch = int(rng.integers(3, 9))
    n_cur = int(rng.integers(2, 9))
    n_hist = int(rng.integers(2, 7))
    X = rng.normal(size=(batch, widths[0]))
    y = rng.integers(n_cur, size=batch)
    y_hist = np.where(rng.random(batch) < 0.6, rng.integers(n_hist, size=batch), -1)
    cur_memory = IdentityMemory(unit_rows(rng, n_cur, widths[-1]))
    hist_memory = IdentityMemory(unit_rows(rng, n_hist, widths[-1]))
    return params, hist_params, X, y, y_hist, cur_memory, hist_memory


def check_gradients(rng: np.random.Generator, widths: list[int], batches: int):
    """Worst relative error per term between analytic gradients and central
    differences."""
    worst = dict.fromkeys(GRAD_TERMS, 0.0)
    for _ in range(batches):
        params, *rest = grad_fixture(rng, widths)
        for term in GRAD_TERMS:
            closure = make_loss_closure(term, *rest, Hyperparams(tau=0.05))
            worst[term] = max(worst[term], grad_check(params, closure))
    return worst


def check_cycle_match(rng: np.random.Generator, trials: int, max_n: int, dims: list[int]):
    """Mismatches of cycle_match against the exhaustive scan on random memory
    pairs of up to max_n rows, and the seconds spent in cycle_match. A
    result that is not an int64 array of len(cur) entries is a mismatch."""
    mismatches, seconds = 0, 0.0
    for trial in range(trials):
        n_c = int(rng.integers(1, max_n + 1))
        n_h = int(rng.integers(0, max_n + 1))
        d = dims[trial % len(dims)]
        cur = IdentityMemory(unit_rows(rng, n_c, d))
        hist = IdentityMemory(unit_rows(rng, n_h, d)) if n_h else empty_memory(d)
        t0 = time.perf_counter()
        got = cycle_match(cur, hist)
        seconds += time.perf_counter() - t0
        mismatches += (got.dtype != np.int64 or got.shape != (n_c,)
                       or got.tolist() != oracles.mutual_argmax_oracle(cur.rows, hist.rows))
    return mismatches, seconds


def check_memory_algebra(rng: np.random.Generator, trials: int, max_d: int, max_n: int):
    """Max abs error of momentum_update and iku_merge against the hand rules
    (degenerate omega and lambda included), and the merges of wrong length."""
    worst, wrong_length = 0.0, 0
    for _ in range(trials):
        d = int(rng.integers(2, max_d + 1))
        omega = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
        mem = IdentityMemory(unit_rows(rng, int(rng.integers(1, max_n + 1)), d))
        idx = int(rng.integers(len(mem)))
        f = unit_rows(rng, 1, d)[0]
        want = oracles.momentum_oracle(mem.rows[idx].copy(), f, omega)
        momentum_update(mem, np.array([idx]), f[None], omega)
        worst = max(worst, float(np.max(np.abs(mem.rows[idx] - want))))
        lam = float(rng.choice([0.0, 0.25, 0.75, 1.0]))
        n_h = int(rng.integers(1, max_n + 1))
        n_c = int(rng.integers(1, max_n + 1))
        hist = IdentityMemory(unit_rows(rng, n_h, d))
        cur = IdentityMemory(unit_rows(rng, n_c, d))
        matches = np.array([int(rng.integers(n_h)) if rng.random() < 0.5 else -1 for _ in range(n_c)])
        merged = iku_merge(hist, cur, matches, lam)
        if len(merged) != n_h + int((matches == -1).sum()):
            wrong_length += 1
            continue
        want_rows = oracles.iku_oracle(hist.rows, cur.rows, matches.tolist(), lam)
        worst = max(worst, float(np.max(np.abs(merged.rows - want_rows))))
    return worst, wrong_length


def check_map(rng: np.random.Generator, scored: int, max_trials: int):
    """Max abs error of evaluate_map against map_oracle, the random splits
    scored (up to `scored`), and the splits only one of them can score."""
    worst, n_scored, disagreements, trials = 0.0, 0, 0, 0
    while n_scored < scored and trials < max_trials:
        trials += 1
        params = init_encoder([5, 8, 8, 6], np.random.default_rng(trials))
        n = int(rng.integers(4, 31)) + int(rng.integers(8, 61))
        X = rng.normal(size=(n, 5))
        gids = rng.integers(8, size=n)
        cams = rng.integers(3, size=n)
        try:
            want = oracles.map_oracle(forward_batch(params, X).embeddings, gids.tolist(), cams.tolist())
        except ValueError:
            want = None
        try:
            got = evaluate_map(params, TestSplit(X, gids, cams))
        except EmptyGallery:
            got = None
        if (got is None) != (want is None):
            disagreements += 1
        elif got is not None:
            worst = max(worst, abs(got - want))
            n_scored += 1
    return worst, n_scored, disagreements


@dataclass
class SelftestReport:
    rows: list[tuple[str, str, float, float, bool]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for *_, ok in self.rows)

    def add(self, suite: str, detail: str, value: float, threshold: float) -> None:
        self.rows.append((suite, detail, value, threshold, value <= threshold))

    def format_table(self) -> str:
        lines = [f"{'suite':<22} {'detail':<12} {'max error':>12} {'threshold':>10}  status"]
        for suite, detail, value, threshold, ok in self.rows:
            lines.append(
                f"{suite:<22} {detail:<12} {value:>12.3e} {threshold:>10.0e}  {'ok' if ok else 'FAIL'}"
            )
        lines.append("selftest: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


SELFTEST_SEED = 2024


def selftest() -> SelftestReport:
    """The four oracle checks at small sizes (acceptance criteria 1-4 run
    them at full size)."""
    report = SelftestReport()
    rng = np.random.default_rng(SELFTEST_SEED)
    report.add("cycle-match", "mismatches", check_cycle_match(rng, 200, 39, [8, 16])[0], 0)
    err, wrong_length = check_memory_algebra(rng, 100, 11, 9)
    report.add("memory-algebra", "max-abs-err", err, 1e-12)
    report.add("memory-algebra", "wrong-length", wrong_length, 0)
    err, n_scored, disagreements = check_map(rng, 40, 80)
    report.add("retrieval-map", "max-abs-err", err, 1e-12)
    report.add("retrieval-map", "disagree", disagreements, 0)
    report.add("retrieval-map", "unscored", 40 - n_scored, 0)
    # Four blocks make tap 3 a tanh output; criterion 2's three, the pre-normalization one.
    for term, err in check_gradients(rng, [6, 8, 8, 8, 6], 1).items():
        report.add("gradients", term, err, 1e-6)
    return report
