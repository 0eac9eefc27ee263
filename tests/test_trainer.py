import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ike_lab.association import cycle_match
from ike_lab.datasets import DatasetBundle, TestSplit
from ike_lab.encoder import forward_batch, init_encoder
from ike_lab.errors import ConfigError, NonFiniteLoss
from ike_lab.losses import TERMS
from ike_lab.memory import NO_MATCH, iku_merge, init_memory
from ike_lab import trainer
from ike_lab.trainer import (
    POLICIES,
    Hyperparams,
    RunRecorder,
    Variant,
    batch_loss_and_grads,
    init_state,
    merge_cameras_with_global_labels,
    run_sequence,
    train_camera,
    train_joint_upperbound,
)

from builders import manual_camera, tiny_bundle

FAST = Hyperparams(epochs=3, batch_size=16)


class BatchCapture(RunRecorder):
    def __init__(self):
        self.batches = []

    def on_batch(self, camera_step, epoch, batch, breakdown):
        self.batches.append((camera_step, epoch, batch, breakdown))


class TestHyperparams:
    def test_defaults_match_contract(self):
        h = Hyperparams()
        assert (h.tau, h.omega, h.lam) == (0.05, 0.1, 0.25)
        assert (h.lr, h.epochs, h.batch_size) == (3.5e-4, 30, 64)
        assert [f.name for f in dataclasses.fields(h)] == ["tau", "omega", "lam", "lr", "epochs", "batch_size"]
        # The optimizer recipe is fixed, not a setting.
        assert (trainer.WEIGHT_DECAY, trainer.LR_DECAY, trainer.LR_STEP) == (5e-4, 0.1, 15)

    def test_lr_schedule(self):
        h = Hyperparams()
        assert h.lr_at(0) == pytest.approx(3.5e-4)
        assert h.lr_at(14) == pytest.approx(3.5e-4)
        assert h.lr_at(15) == pytest.approx(3.5e-5)
        assert h.lr_at(29) == pytest.approx(3.5e-5)

    @pytest.mark.parametrize("bad", [
        dict(tau=0.0), dict(omega=1.5), dict(lam=-0.1), dict(lr=0.0),
        dict(omega=-0.1), dict(lam=1.5), dict(epochs=-1), dict(batch_size=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            Hyperparams(**bad)

    @given(st.sampled_from(["tau", "omega", "lam", "lr"]),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_rejected_by_name(self, key, value):
        with pytest.raises(ConfigError, match=key):
            Hyperparams(**{key: value})

    def test_fields_cannot_be_assigned(self):
        # A built Hyperparams was checked; assigning would skip the checks.
        h = Hyperparams()
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.tau = 0.0
        assert h.tau == 0.05


class TestTrainCamera:
    def test_zero_epochs_is_noop_training(self, rng):
        cam = manual_camera(rng, n_ids=5, per_id=3, dim=6)
        hyper = Hyperparams(epochs=0)
        state = init_state(6, [8, 8, 8], 8, hyper, seed=0)
        before = state.encoder.flat.copy()
        expected_memory = init_memory(forward_batch(state.encoder, cam.X).embeddings, cam)
        train_camera(state, cam, Variant.IKE)
        assert (state.encoder.flat == before).all()
        # memory evolved from the untouched encoder's means (pure expansion)
        assert (state.memory.rows == expected_memory.rows).all()
        assert state.camera_index == 1

    def test_baseline_breakdown_gated(self, rng):
        cam = manual_camera(rng, n_ids=5, per_id=4, dim=6)
        state = init_state(6, [8, 8, 8], 8, FAST, seed=0)
        rec = BatchCapture()
        train_camera(state, cam, Variant.BASELINE, recorder=rec)
        assert rec.batches
        for *_, b in rec.batches:
            assert b.id_hist == 0.0 and b.kd == 0.0 and b.mkd == 0.0
            assert b.total == b.id

    def test_baseline_memory_expands_fully(self, rng):
        state = init_state(6, [8, 8, 8], 8, FAST, seed=0)
        train_camera(state, manual_camera(rng, 5, 3, 6), Variant.BASELINE)
        train_camera(state, manual_camera(rng, 4, 3, 6), Variant.BASELINE)
        assert len(state.memory) == 9

    def test_history_frozen_during_camera(self, rng):
        cam1 = manual_camera(rng, 5, 3, 6, camera_id=0)
        cam2 = manual_camera(rng, 5, 3, 6, camera_id=1, globals_offset=2)
        state = init_state(6, [8, 8, 8], 8, FAST, seed=0)
        train_camera(state, cam1, Variant.IKE)
        hist_flat = state.encoder.flat.copy()
        hist_rows = state.memory.rows.copy()

        class FreezeProbe(RunRecorder):
            def __init__(self, encoder, memory):
                self.encoder = encoder
                self.memory = memory
                self.checked = 0

            def on_epoch(self, *args):
                assert (self.encoder.flat == hist_flat).all()
                assert (self.memory.rows == hist_rows).all()
                self.checked += 1

        probe = FreezeProbe(state.encoder, state.memory)
        train_camera(state, cam2, Variant.IKE, recorder=probe)
        assert probe.checked == FAST.epochs

    def test_history_rotated_into_trained_space(self, rng):
        state = init_state(6, [8, 8, 8], 8, dataclasses.replace(FAST, lam=1.0), seed=0)
        train_camera(state, manual_camera(rng, 5, 3, 6), Variant.IKE)
        before = state.memory.rows.copy()
        train_camera(state, manual_camera(rng, 5, 3, 6, globals_offset=2), Variant.IKE)
        carried = state.memory.rows[: len(before)]
        # lam = 1 keeps every historical row, turned into the trained model's
        # space: the rows move, the angles between them do not.
        assert not np.allclose(carried, before)
        assert np.max(np.abs(carried @ carried.T - before @ before.T)) <= 1e-12

    def test_ike_u_replaces_memory(self, rng):
        state = init_state(6, [8, 8, 8], 8, FAST, seed=0)
        train_camera(state, manual_camera(rng, 5, 3, 6), Variant.IKE_U)
        train_camera(state, manual_camera(rng, 4, 3, 6, globals_offset=2), Variant.IKE_U)
        assert len(state.memory) == 4

    def test_empty_dataset_rejected(self, rng):
        cam = manual_camera(rng, 2, 1, 6)
        cam.X = cam.X[:0]
        cam.labels = cam.labels[:0]
        state = init_state(6, [8, 8, 8], 8, FAST, seed=0)
        with pytest.raises(ConfigError):
            train_camera(state, cam, Variant.IKE)


class TestPolicies:
    def test_terms_in_terms_order_and_history_needs_a_matcher(self):
        for policy in POLICIES.values():
            assert policy.terms == tuple(t for t in TERMS if t in policy.terms)
            if policy.matcher is None:
                assert policy.terms == ("id",)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_step_computes_exactly_the_row_terms(self, rng, variant):
        bundle = tiny_bundle()
        state = init_state(bundle.input_dim, [8, 8, 8], 8, FAST, seed=0)
        train_camera(state, bundle.cameras[0], Variant.IKE)
        cam = bundle.cameras[1]
        out_h = forward_batch(state.encoder, cam.X)
        cur_memory = init_memory(out_h.embeddings, cam)
        y_hist = cycle_match(cur_memory, state.memory)[cam.labels]
        breakdown, _, _ = batch_loss_and_grads(
            POLICIES[variant], init_encoder(state.encoder.widths, rng),
            (out_h.embeddings, *out_h.middles), cam.X, cam.labels, y_hist,
            cur_memory, state.memory, FAST,
        )
        ran = tuple(t for t in TERMS if getattr(breakdown, t) != 0.0)
        assert ran == POLICIES[variant].terms


class TestBatchLossAndGrads:
    @pytest.mark.parametrize("variant", [Variant.IKE, Variant.IKE_D, Variant.IKE_STAR])
    def test_camera_slices_equal_batch_forward(self, rng, variant):
        # The trainer forwards the frozen historical model once per camera
        # and slices each batch's rows; that must be bitwise the per-batch
        # forward of the same rows.
        bundle = tiny_bundle()
        state = init_state(bundle.input_dim, [8, 8, 8], 8, FAST, seed=0)
        train_camera(state, bundle.cameras[0], Variant.IKE)
        cam = bundle.cameras[1]
        hist_params, hist_memory = state.encoder, state.memory
        whole = forward_batch(hist_params, cam.X)
        cur_memory = init_memory(whole.embeddings, cam)
        y_hist = cycle_match(cur_memory, hist_memory)[cam.labels]
        assert (y_hist != NO_MATCH).any()
        cur_params = init_encoder(hist_params.widths, rng)
        for _ in range(5):
            perm = rng.permutation(len(cam))
            for start in range(0, len(cam), FAST.batch_size):
                sel = perm[start : start + FAST.batch_size]
                per_batch = forward_batch(hist_params, cam.X[sel])
                results = [
                    batch_loss_and_grads(
                        POLICIES[variant], cur_params, feats, cam.X[sel], cam.labels[sel], y_hist[sel],
                        cur_memory, hist_memory, FAST,
                    )
                    for feats in (
                        (whole.embeddings[sel], whole.middles[0][sel], whole.middles[1][sel]),
                        (per_batch.embeddings, *per_batch.middles),
                    )
                ]
                (b1, g1, e1), (b2, g2, e2) = results
                assert b1 == b2
                assert (g1.flat == g2.flat).all()
                assert (e1 == e2).all()


class TestFirstCameraEquivalence:
    def test_per_batch_totals_match_baseline(self, rng):
        cam = manual_camera(rng, 6, 4, 6)
        logs = {}
        for variant in (Variant.BASELINE, Variant.IKE, Variant.IKE_STAR):
            state = init_state(6, [8, 8, 8], 8, FAST, seed=42)
            rec = BatchCapture()
            train_camera(state, cam, variant, recorder=rec)
            logs[variant] = [b.total for *_, b in rec.batches]
        assert logs[Variant.BASELINE] == pytest.approx(logs[Variant.IKE], abs=1e-12)
        assert logs[Variant.BASELINE] == pytest.approx(logs[Variant.IKE_STAR], abs=1e-12)


class TestRunSequence:
    def test_single_camera_fmap_equals_mean(self):
        # A single-camera split has no cross-camera gallery, so the
        # query-only exclusion rule is the evaluable choice here.
        bundle = tiny_bundle(n_cameras=1)
        rep = run_sequence(bundle, [0], Variant.IKE, FAST, [8, 8, 8], 8, seed=0,
                           gallery_rule="none")
        assert rep.fmap == rep.mean_map == rep.per_camera_map[0]

    def test_bitwise_deterministic(self):
        bundle = tiny_bundle()
        a = run_sequence(bundle, [0, 1, 2], Variant.IKE, FAST, [8, 8, 8], 8, seed=5)
        b = run_sequence(bundle, [0, 1, 2], Variant.IKE, FAST, [8, 8, 8], 8, seed=5)
        assert a == b

    def test_order_validation(self):
        bundle = tiny_bundle()
        with pytest.raises(ConfigError):
            run_sequence(bundle, [0, 1], Variant.IKE, FAST, [8, 8, 8], 8, seed=0)
        with pytest.raises(ConfigError):
            run_sequence(bundle, [0, 1, 1], Variant.IKE, FAST, [8, 8, 8], 8, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed=-1 must be nonnegative"):
            run_sequence(tiny_bundle(), [0, 1, 2], Variant.IKE, FAST, [8, 8, 8], 8, seed=-1)
        with pytest.raises(ConfigError, match="seed=-2 must be nonnegative"):
            init_state(6, [8, 8, 8], 8, FAST, seed=-2)

    def test_permuted_order_runs(self):
        class CameraIds(RunRecorder):
            def __init__(self):
                self.ids = []

            def on_camera(self, camera_step, camera_id, state, result):
                self.ids.append(camera_id)

        bundle = tiny_bundle()
        rec = CameraIds()
        rep = run_sequence(bundle, [2, 0, 1], Variant.IKE, FAST, [8, 8, 8], 8, seed=0, recorder=rec)
        assert rec.ids == [2, 0, 1]
        assert len(rep.per_camera_map) == 3

    def test_first_camera_precision_is_none(self):
        bundle = tiny_bundle()
        rep = run_sequence(bundle, [0, 1, 2], Variant.IKE, FAST, [8, 8, 8], 8, seed=0)
        assert rep.assoc_precision[0] is None

    def test_nh_non_decreasing_for_merge_variants(self):
        bundle = tiny_bundle()
        for variant in (Variant.IKE, Variant.IKE_D, Variant.IKE_STAR, Variant.BASELINE):
            rep = run_sequence(bundle, [0, 1, 2], variant, FAST, [8, 8, 8], 8, seed=1)
            assert all(a <= b for a, b in zip(rep.nh_trajectory, rep.nh_trajectory[1:]))

    @given(
        variant=st.sampled_from(list(Variant)),
        order=st.permutations([0, 1, 2]),
        push=st.one_of(
            st.builds(lambda e: {"tau": 10.0 ** e}, st.floats(-322, -310)),
            st.builds(lambda e: {"lr": 10.0 ** e}, st.floats(300, 308)),
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_diverging_run_stops_in_its_first_epoch(self, variant, order, push):
        # A temperature this small overflows F.M / tau, and a learning rate
        # this large overflows the encoder after the first step: either way
        # the losses turn NaN in the first camera's first epoch, and the run
        # stops there, naming both, before anything is evaluated.
        hyper = dataclasses.replace(FAST, **push)
        with np.errstate(all="ignore"), pytest.raises(
            NonFiniteLoss, match=f"^camera {order[0]}, epoch 0: "
        ):
            run_sequence(tiny_bundle(), order, variant, hyper, [8, 8, 8], 8, seed=0)


class StateDigests(RunRecorder):
    """sha256 (first 16 hex digits) of each camera's encoder vector, memory
    rows, provenance and association, taken once the camera is done."""

    def __init__(self):
        self.digests = []

    def on_camera(self, camera_step, camera_id, state, result):
        h = hashlib.sha256()
        for a in (state.encoder.flat, state.memory.rows,
                  np.asarray(state.memory.provenance, dtype=np.int64), result.assoc):
            h.update(a.tobytes())
        self.digests.append(h.hexdigest()[:16])


class TestStateDigests:
    # Recorded before init_memory and iku_merge worked on whole arrays: the
    # per-camera state must stay bitwise the same, not only the mAPs.
    # Camera 0 trains the same way for every variant.
    DIGESTS = {
        Variant.BASELINE: ["044637626730ed0f", "b9758e73fe782518", "975a105dad882e2b"],
        Variant.IKE_D: ["044637626730ed0f", "1744d0bd214a3069", "72d1099eb8737e06"],
        Variant.IKE_A: ["044637626730ed0f", "ba255ba578a9aebd", "9e432e8b933eb745"],
        Variant.IKE_U: ["044637626730ed0f", "cdb10c7eb14b830e", "2882531bc00e3895"],
        Variant.IKE_STAR: ["044637626730ed0f", "bed997dbfa20473c", "34fc6efec83063f8"],
        Variant.IKE: ["044637626730ed0f", "717f88485559ed5e", "3e7a76be833a2afa"],
    }

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_per_camera_state_unchanged(self, variant, monkeypatch):
        shared_targets = []

        def counting_merge(hist, cur, assoc, lam):
            targets = assoc[assoc != NO_MATCH]
            shared_targets.append(targets.size - np.unique(targets).size)
            return iku_merge(hist, cur, assoc, lam)

        monkeypatch.setattr(trainer, "iku_merge", counting_merge)
        recorder = StateDigests()
        run_sequence(tiny_bundle(), [0, 1, 2], variant, dataclasses.replace(FAST, lam=0.25),
                     [8, 8, 8], 8, seed=0, recorder=recorder)
        assert recorder.digests == self.DIGESTS[variant]
        if variant is Variant.IKE_A:
            # One-way matching sends two identities to one history row, so
            # the digests cover a merge with a duplicated target.
            assert max(shared_targets) > 0


class TestJointUpperbound:
    def test_single_camera_equals_baseline(self, rng):
        # One camera whose local labels equal its global ids: the merged
        # dataset is bitwise the same training problem.
        cam = manual_camera(rng, 6, 4, 6)
        test = TestSplit(
            np.concatenate([cam.X[:6], cam.X[6:12]]),
            np.concatenate([cam.global_ids[:6], cam.global_ids[6:12]]),
            np.array([0] * 6 + [1] * 6),
        )
        bundle = DatasetBundle([cam], test)
        params, ub_map = train_joint_upperbound(bundle, FAST, [8, 8, 8], 8, seed=9)
        state = init_state(6, [8, 8, 8], 8, FAST, seed=9)
        train_camera(state, cam, Variant.BASELINE)
        assert (params.flat == state.encoder.flat).all()
        from ike_lab.evaluation import evaluate_map

        assert ub_map == evaluate_map(state.encoder, test)

    def test_zero_noise_upperbound_near_one(self):
        bundle = tiny_bundle(camera_shift=0.0, noise=0.0)
        _, ub = train_joint_upperbound(bundle, FAST, [8, 8, 8], 8, seed=0)
        assert ub >= 0.99

    def test_merge_relabels_contiguously(self):
        bundle = tiny_bundle()
        merged = merge_cameras_with_global_labels(bundle)
        assert merged.n_ids == bundle.distinct_global_count()
        assert sorted(set(merged.labels.tolist())) == list(range(merged.n_ids))
