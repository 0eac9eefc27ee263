"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavyweight fixtures (the six-variant seed table and the lambda sweep on
the default bench) are session-scoped and shared between criteria.
"""

import json
import time

import numpy as np
import pytest

from ike_lab.datasets import SyntheticSpec, generate
from ike_lab.trainer import precision_matrix
from ike_lab.checks import check_cycle_match, check_gradients, check_map, check_memory_algebra
from ike_lab.harness import ExperimentConfig, run
from ike_lab.trainer import Hyperparams, RunRecorder, Variant, init_state, run_sequence, train_camera

HIDDEN = [32, 32, 32]
EMBED = 64
SEEDS = [0, 1, 2, 3, 4]
VARIANTS = [Variant.BASELINE, Variant.IKE_D, Variant.IKE_A, Variant.IKE_U, Variant.IKE_STAR, Variant.IKE]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:>2} {'PASS' if ok else 'FAIL'}  {detail}")


def per_seed(values, fmt: str = ".4f") -> str:
    """Per-seed values for a report line, so a red line shows whether a gap is noise."""
    return "[" + ", ".join(format(v, fmt) for v in values) + "]"


@pytest.fixture(scope="session")
def default_bundle():
    return generate(SyntheticSpec())


@pytest.fixture(scope="session")
def variant_table(default_bundle):
    """fmap/mean-mAP/nh for all six variants over the five seeds, plus the
    wall time the 30 runs took."""
    hyper = Hyperparams()
    table = {}
    t0 = time.perf_counter()
    for variant in VARIANTS:
        rows = []
        for seed in SEEDS:
            rep = run_sequence(
                default_bundle, list(range(6)), variant, hyper, HIDDEN, EMBED, seed=seed
            )
            rows.append(rep)
        table[variant.value] = rows
    elapsed = time.perf_counter() - t0
    return table, elapsed


class TestCriterion1CycleMatchOracle:
    def test_brute_force_agreement(self):
        mismatches, match_time = check_cycle_match(np.random.default_rng(20240501), 1000, 200, [8, 16, 64])
        ok = mismatches == 0 and match_time < 10.0
        report(1, ok, f"cycle-match vs brute force: {mismatches} mismatches in 1000 trials, "
                      f"matching time {match_time:.2f}s (< 10s)")
        assert mismatches == 0
        assert match_time < 10.0


class TestCriterion2GradientSuite:
    def test_finite_difference_all_terms(self):
        t0 = time.perf_counter()
        worst = check_gradients(np.random.default_rng(77), [6, 8, 8, 6], 50)
        elapsed = time.perf_counter() - t0
        ok = all(v <= 1e-6 for v in worst.values()) and elapsed < 30.0
        detail = ", ".join(f"{t}={v:.2e}" for t, v in worst.items())
        report(2, ok, f"max rel grad errors over 50 batches: {detail}; {elapsed:.1f}s (< 30s)")
        for term, v in worst.items():
            assert v <= 1e-6, term
        assert elapsed < 30.0


class TestCriterion3MapOracle:
    def test_brute_force_agreement(self):
        worst, scored, disagreements = check_map(np.random.default_rng(13), 200, 400)
        ok = scored == 200 and worst <= 1e-12 and disagreements == 0
        report(3, ok, f"mAP vs brute force on {scored} instances: max abs diff {worst:.2e}")
        assert scored == 200
        assert worst <= 1e-12
        assert disagreements == 0, "evaluate_map and map_oracle disagree on which splits are scorable"


class TestCriterion4MemoryAlgebra:
    def test_hand_rule_agreement(self):
        worst, length_violations = check_memory_algebra(np.random.default_rng(4), 200, 15, 11)
        ok = worst <= 1e-12 and length_violations == 0
        report(4, ok, f"memory algebra vs hand rules: max abs err {worst:.2e}, "
                      f"{length_violations} length violations (degenerate omega/lambda included)")
        assert worst <= 1e-12
        assert length_violations == 0


class TestCriterion5VariantOrdering:
    def test_table_direction(self, variant_table):
        table, elapsed = variant_table
        fmap = {v: float(np.mean([r.fmap for r in table[v]])) for v in table}
        mmap = {v: float(np.mean([r.mean_map for r in table[v]])) for v in table}
        gap = fmap["IKE"] - fmap["BASELINE"]
        gap_ok = gap >= 0.05
        d_ok = mmap["IKE"] >= mmap["IKE_D"]
        wins = 0
        for k in range(len(SEEDS)):
            best = max(table[v][k].mean_map for v in table)
            if table["IKE"][k].mean_map >= best:
                wins += 1
        wins_ok = wins >= 4
        runtime_ok = elapsed < 600.0
        ok = gap_ok and d_ok and wins_ok and runtime_ok
        seed_gaps = [i.fmap - b.fmap for i, b in zip(table["IKE"], table["BASELINE"])]
        leaders = [max(table, key=lambda v: table[v][k].mean_map) for k in range(len(SEEDS))]
        report(
            5, ok,
            f"fmAP gap IKE-BASELINE {gap:+.4f} {per_seed(seed_gaps, '+.4f')} "
            f"(need >= +0.05: {gap_ok}); "
            f"IKE mean-mAP {mmap['IKE']:.4f} {per_seed([r.mean_map for r in table['IKE']])} "
            f">= IKE_D {mmap['IKE_D']:.4f} {per_seed([r.mean_map for r in table['IKE_D']])}: {d_ok}; "
            f"IKE max variant in {wins}/5 seeds (need >= 4: {wins_ok}), "
            f"best by seed [{', '.join(leaders)}]; "
            f"30 runs in {elapsed:.0f}s (< 600s: {runtime_ok})",
        )
        assert runtime_ok
        assert gap_ok, f"fmAP gap {gap:+.4f} below +0.05"
        assert d_ok
        assert wins_ok, f"IKE best in only {wins}/5 seeds"


class TestCriterion6PrecisionMatrix:
    def test_off_diagonal_mean(self, default_bundle):
        P = precision_matrix(default_bundle, Hyperparams(), HIDDEN, EMBED, seed=0)
        off = P[~np.isnan(P)]
        mean = float(off.mean())
        ok = mean >= 0.80
        report(6, ok, f"association precision matrix off-diagonal mean {mean:.4f} "
                      f"(need >= 0.80), min {off.min():.3f}")
        assert np.isnan(np.diag(P)).all()
        assert mean >= 0.80


class TestCriterion7MemoryGrowth:
    def test_trajectories(self, variant_table):
        table, _ = variant_table
        nondec = all(
            all(a <= b for a, b in zip(r.nh_trajectory, r.nh_trajectory[1:]))
            for r in table["IKE"]
        )
        spec = SyntheticSpec(
            n_global=120, latent_dim=16, ids_per_camera=120,
            overlap_bias=1.0, camera_shift=0.0, noise=0.0,
            images_per_id=4, test_images_per_id=1,
        )
        bundle = generate(spec)
        hyper = Hyperparams(epochs=10)
        exact = True
        final = []
        for seed in [0, 1]:
            rep = run_sequence(bundle, list(range(6)), Variant.IKE, hyper, HIDDEN, EMBED, seed=seed)
            nondec = nondec and all(
                a <= b for a, b in zip(rep.nh_trajectory, rep.nh_trajectory[1:])
            )
            final.append(rep.nh_trajectory[-1])
            exact = exact and rep.nh_trajectory[-1] == bundle.distinct_global_count()
        ok = nondec and exact
        report(7, ok, f"nh non-decreasing on all IKE runs: {nondec}; zero-noise final N_h "
                      f"{final} == distinct identities {bundle.distinct_global_count()}: {exact}")
        assert nondec
        assert exact


class TestCriterion8LambdaSweep:
    def test_interior_not_worse_than_endpoints(self, default_bundle, variant_table):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        sweep_seeds = [0, 1, 2]
        # The variant table already ran IKE at the default lambda on these seeds.
        table, _ = variant_table
        vals = {Hyperparams().lam: [table["IKE"][SEEDS.index(s)].mean_map for s in sweep_seeds]}
        for lam in grid:
            if lam not in vals:
                hyper = Hyperparams(lam=lam)
                vals[lam] = [
                    run_sequence(default_bundle, list(range(6)), Variant.IKE, hyper,
                                 HIDDEN, EMBED, seed=s).mean_map
                    for s in sweep_seeds
                ]
        means = {lam: float(np.mean(vals[lam])) for lam in grid}
        ok = means[0.25] >= means[0.0] and means[0.25] >= means[1.0]
        detail = ", ".join(f"lam={l:g}: {means[l]:.4f} {per_seed(vals[l])}" for l in grid)
        report(8, ok, f"{detail}; interior 0.25 >= endpoints: {ok}")
        assert means[0.25] >= means[0.0], f"{means[0.25]:.4f} < {means[0.0]:.4f} at lambda=0"
        assert means[0.25] >= means[1.0], f"{means[0.25]:.4f} < {means[1.0]:.4f} at lambda=1"


class TestCriterion9FirstCameraEquivalence:
    def test_per_batch_totals(self, default_bundle):
        class Capture(RunRecorder):
            def __init__(self):
                self.totals = []

            def on_batch(self, camera_step, epoch, batch, breakdown):
                self.totals.append(breakdown.total)

        totals = {}
        for variant in (Variant.BASELINE, Variant.IKE):
            state = init_state(default_bundle.input_dim, HIDDEN, EMBED, Hyperparams(), seed=0)
            cap = Capture()
            train_camera(state, default_bundle.cameras[0], variant, recorder=cap)
            totals[variant.value] = np.array(cap.totals)
        diff = float(np.max(np.abs(totals["BASELINE"] - totals["IKE"])))
        ok = diff <= 1e-12
        report(9, ok, f"first-camera per-batch total loss |IKE - BASELINE| max {diff:.2e} "
                      f"over {totals['IKE'].size} batches (<= 1e-12)")
        assert diff <= 1e-12


class TestCriterion10Determinism:
    def test_bitwise_identical_metrics(self, tmp_path):
        doc = {
            "dataset": {"synthetic": {}},
            "orders": ["T1"],
            "variants": ["IKE"],
            "seeds": [0],
        }
        cfg = ExperimentConfig.from_dict(doc)
        run(cfg, out_dir=tmp_path / "a")
        run(cfg, out_dir=tmp_path / "b")
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        rel = manifest["runs"][0]["path"]
        a = (tmp_path / "a" / rel / "metrics.json").read_bytes()
        b = (tmp_path / "b" / rel / "metrics.json").read_bytes()
        ok = a == b
        report(10, ok, f"two executions, identical config/seed: metrics.json "
                       f"{'bitwise identical' if ok else 'DIFFER'} ({len(a)} bytes)")
        assert ok
