import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ike_lab import oracles
from ike_lab.datasets import CameraDataset
from ike_lab.encoder import forward_batch, init_encoder
from ike_lab.errors import (
    DegenerateMean,
    DimensionMismatch,
    IndexOutOfRange,
    MissingLabel,
    ParseError,
    ShapeMismatch,
)
from ike_lab.memory import (
    IdentityMemory,
    align_memory,
    init_memory,
    iku_merge,
    load_memory,
    momentum_update,
    save_memory,
    unit_rows,
)

from builders import manual_camera


class TestInitMemory:
    def test_single_image_row_equals_embedding(self, rng, small_encoder):
        cam = manual_camera(rng, n_ids=3, per_id=1, dim=4)
        mem = init_memory(forward_batch(small_encoder, cam.X).embeddings, cam)
        for y in range(3):
            want = forward_batch(small_encoder, cam.X[y][None]).embeddings[0]
            assert np.allclose(mem.rows[y], want, atol=1e-12)

    def test_cancellation_degenerates(self, rng):
        f = unit_rows(rng, 1, 6)[0]
        cam = CameraDataset(0, unit_rows(rng, 2, 4), np.array([0, 0]), 1)
        with pytest.raises(DegenerateMean):
            init_memory(np.stack([f, -f]), cam)

    def test_matches_group_mean_oracle(self, rng, small_encoder):
        cam = manual_camera(rng, n_ids=10, per_id=5, dim=4)
        feats = forward_batch(small_encoder, cam.X).embeddings
        mem = init_memory(feats, cam)
        want = oracles.group_mean_rows_oracle(feats, cam.labels.tolist())
        assert np.max(np.abs(mem.rows - want)) <= 1e-12

    def test_missing_label_rejected(self, rng):
        X = unit_rows(rng, 4, 4)
        cam = CameraDataset(0, X, np.array([0, 0, 2, 2]), 3)
        with pytest.raises(MissingLabel):
            init_memory(X, cam)

    @pytest.mark.parametrize("shape", [(7, 6), (9, 6), (8,)], ids=["fewer", "more", "1-D"])
    def test_embeddings_one_per_image(self, rng, shape):
        cam = manual_camera(rng, n_ids=4, per_id=2, dim=4)
        with pytest.raises(ShapeMismatch, match="embeddings shape"):
            init_memory(rng.normal(size=shape), cam)

    def test_provenance_follows_tags(self, rng):
        cam = manual_camera(rng, n_ids=4, per_id=2, dim=4, globals_offset=10)
        mem = init_memory(unit_rows(rng, len(cam), 6), cam)
        assert mem.provenance.tolist() == [10, 11, 12, 13]

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(1, 48))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equals_per_identity_mean_loop(self, seed, n_ids, per_id_max):
        # Labels interleave, numbered in order of first appearance as the
        # loader numbers them, with up to 48 images per identity.
        r = np.random.default_rng(seed)
        dim, embed = int(r.integers(2, 9)), int(r.choice([3, 8, 16]))
        sizes = r.integers(1, per_id_max + 1, size=n_ids)
        raw = r.permutation(np.repeat(np.arange(n_ids), sizes))
        labels = np.unique(raw, return_index=True)[1].argsort().argsort()[raw]
        cam = CameraDataset(0, r.normal(size=(labels.size, dim)), labels, n_ids)
        feats = forward_batch(init_encoder([dim, 8, 8, embed], r), cam.X).embeddings
        want = np.zeros((n_ids, embed))
        for y in range(n_ids):
            mean = feats[labels == y].mean(axis=0)
            want[y] = mean / float(np.linalg.norm(mean))
        assert (init_memory(feats, cam).rows == want).all()


class TestMomentumUpdate:
    def test_omega_one_keeps_row(self, rng):
        mem = IdentityMemory(unit_rows(rng, 4, 6))
        before = mem.rows[2].copy()
        momentum_update(mem, np.array([2]), unit_rows(rng, 1, 6), omega=1.0)
        assert np.allclose(mem.rows[2], before, atol=1e-12)

    def test_omega_zero_replaces_row(self, rng):
        mem = IdentityMemory(unit_rows(rng, 4, 6))
        f = unit_rows(rng, 1, 6)[0]
        momentum_update(mem, np.array([1]), f[None], omega=0.0)
        assert np.allclose(mem.rows[1], f, atol=1e-12)

    def test_default_omega_hand_value(self):
        mem = IdentityMemory(np.array([[1.0, 0.0]]))
        momentum_update(mem, np.array([0]), np.array([[0.0, 1.0]]), omega=0.1)
        norm = math.sqrt(0.1 ** 2 + 0.9 ** 2)
        assert mem.rows[0] == pytest.approx([0.1 / norm, 0.9 / norm], abs=1e-15)

    def test_touches_exactly_one_row(self, rng):
        mem = IdentityMemory(unit_rows(rng, 5, 6))
        others_before = np.delete(mem.rows, 3, axis=0).copy()
        momentum_update(mem, np.array([3]), unit_rows(rng, 1, 6), omega=0.1)
        others_after = np.delete(mem.rows, 3, axis=0)
        assert (others_before == others_after).all()

    def test_index_out_of_range(self, rng):
        mem = IdentityMemory(unit_rows(rng, 3, 4))
        with pytest.raises(IndexOutOfRange):
            momentum_update(mem, np.array([3]), unit_rows(rng, 1, 4), omega=0.1)

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_oracle_and_stays_unit(self, seed, omega):
        r = np.random.default_rng(seed)
        mem = IdentityMemory(unit_rows(r, 5, 7))
        f = unit_rows(r, 1, 7)[0]
        want = oracles.momentum_oracle(mem.rows[2].copy(), f, omega)
        momentum_update(mem, np.array([2]), f[None], omega)
        assert np.max(np.abs(mem.rows[2] - want)) <= 1e-12
        assert mem.max_unit_error() <= 1e-9

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_sequential_rule(self, seed, omega, batch):
        # Few identities and up to 40 rows, so labels repeat within a batch.
        r = np.random.default_rng(seed)
        n, dim = int(r.integers(1, 7)), int(r.integers(2, 9))
        start = unit_rows(r, n, dim)
        labels = r.integers(n, size=batch)
        feats = unit_rows(r, batch, dim) if batch else np.zeros((0, dim))
        seq = start.copy()
        want = start.copy()
        for y, f in zip(labels, feats):
            blended = omega * seq[y] + (1.0 - omega) * f
            seq[y] = blended / float(np.linalg.norm(blended))
            want[y] = oracles.momentum_oracle(want[y], f, omega)
        mem = IdentityMemory(start.copy())
        momentum_update(mem, labels, feats, omega)
        assert (mem.rows == seq).all()
        assert np.max(np.abs(mem.rows - want), initial=0.0) <= 1e-12

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.1, 0.5, 1.0]),
           st.integers(1, 128))
    @settings(max_examples=40, deadline=None)
    def test_heavy_repetition_equals_sequential_rule(self, seed, omega, batch):
        # One identity takes about half the rows, so one batch runs up to
        # ~64 rounds, with the other identities dropping out along the way.
        r = np.random.default_rng(seed)
        n, dim = int(r.integers(2, 6)), int(r.choice([3, 8, 64]))
        start = unit_rows(r, n, dim)
        labels = np.where(r.random(batch) < 0.5, 0, r.integers(n, size=batch))
        feats = unit_rows(r, batch, dim)
        seq = start.copy()
        for y, f in zip(labels, feats):
            blended = omega * seq[y] + (1.0 - omega) * f
            seq[y] = blended / float(np.linalg.norm(blended))
        mem = IdentityMemory(start.copy())
        momentum_update(mem, labels, feats, omega)
        assert (mem.rows == seq).all()

    def test_batch_checks(self, rng):
        mem = IdentityMemory(unit_rows(rng, 3, 4))
        with pytest.raises(IndexOutOfRange, match="index -1"):
            momentum_update(mem, np.array([0, -1]), unit_rows(rng, 2, 4), omega=0.1)
        with pytest.raises(ShapeMismatch):
            momentum_update(mem, np.array([0, 1]), unit_rows(rng, 3, 4), omega=0.1)
        with pytest.raises(ShapeMismatch):
            momentum_update(mem, np.array([[0, 1]]), unit_rows(rng, 2, 4), omega=0.1)
        # The second occurrence of identity 2 cancels the first one's row.
        mem = IdentityMemory(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(DegenerateMean, match="identity 2"):
            momentum_update(mem, np.array([0, 2, 2]), np.array(
                [[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]]), omega=0.5)


class TestIkuMerge:
    def test_lambda_one_keeps_history(self, rng):
        hist = IdentityMemory(unit_rows(rng, 4, 6))
        cur = IdentityMemory(unit_rows(rng, 4, 6))
        merged = iku_merge(hist, cur, np.arange(4), lam=1.0)
        assert len(merged) == 4
        assert np.max(np.abs(merged.rows - hist.rows)) <= 1e-12

    def test_lambda_zero_replaces_matched(self, rng):
        hist = IdentityMemory(unit_rows(rng, 4, 6))
        cur = IdentityMemory(unit_rows(rng, 4, 6))
        merged = iku_merge(hist, cur, np.arange(4), lam=0.0)
        assert np.max(np.abs(merged.rows - cur.rows)) <= 1e-12

    def test_all_unmatched_is_concatenation(self, rng):
        hist = IdentityMemory(unit_rows(rng, 3, 6), [0, 1, 2])
        cur = IdentityMemory(unit_rows(rng, 2, 6), [7, 8])
        merged = iku_merge(hist, cur, np.array([-1, -1]), lam=0.25)
        assert (merged.rows == np.concatenate([hist.rows, cur.rows])).all()
        assert merged.provenance.tolist() == [0, 1, 2, 7, 8]

    def test_hand_rule_mixed_case(self, rng):
        hist = IdentityMemory(unit_rows(rng, 3, 5), [0, 1, 2])
        cur = IdentityMemory(unit_rows(rng, 2, 5), [1, 9])
        matches = np.array([1, -1])
        merged = iku_merge(hist, cur, matches, lam=0.25)
        want = oracles.iku_oracle(hist.rows, cur.rows, matches.tolist(), 0.25)
        assert merged.rows.shape == want.shape
        assert np.max(np.abs(merged.rows - want)) <= 1e-12
        assert merged.provenance.tolist() == [0, 1, 2, 9]

    def test_shape_mismatch(self, rng):
        hist = IdentityMemory(unit_rows(rng, 3, 5))
        cur = IdentityMemory(unit_rows(rng, 2, 4))
        with pytest.raises(ShapeMismatch):
            iku_merge(hist, cur, np.array([-1, -1]), lam=0.25)

    @pytest.mark.parametrize("lam, tag", [(0.25, 9), (0.5, 1), (1.0, 1)])
    def test_wrong_match_tagged_by_heavier_input(self, rng, lam, tag):
        # Current identity 9 is wrongly matched to historical row 1 (tag 1).
        hist = IdentityMemory(unit_rows(rng, 3, 5), [0, 1, 2])
        cur = IdentityMemory(unit_rows(rng, 2, 5), [9, 7])
        merged = iku_merge(hist, cur, np.array([1, -1]), lam=lam)
        assert merged.provenance.tolist() == [0, tag, 2, 7]

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    @settings(max_examples=50, deadline=None)
    def test_length_rule_and_unit_rows(self, seed, lam):
        r = np.random.default_rng(seed)
        n_h = int(r.integers(1, 10))
        n_c = int(r.integers(1, 10))
        hist = IdentityMemory(unit_rows(r, n_h, 6))
        cur = IdentityMemory(unit_rows(r, n_c, 6))
        matches = np.array([int(r.integers(n_h)) if r.random() < 0.5 else -1 for _ in range(n_c)])
        merged = iku_merge(hist, cur, matches, lam)
        unmatched = int((matches == -1).sum())
        assert len(merged) == n_h + unmatched
        assert len(merged) >= n_h
        assert merged.max_unit_error() <= 1e-9
        want = oracles.iku_oracle(hist.rows, cur.rows, matches.tolist(), lam)
        assert np.max(np.abs(merged.rows - want)) <= 1e-12


def merge_loop(hist, cur, matches, lam):
    """iku_merge one matched j at a time, in ascending j."""
    rows, prov, unmatched = hist.rows.copy(), list(hist.provenance), []
    for j, t in enumerate(matches.tolist()):
        if t == -1:
            unmatched.append(j)
            continue
        blended = lam * hist.rows[t] + (1.0 - lam) * cur.rows[j]
        norm = float(np.linalg.norm(blended))
        if norm < 1e-9:
            raise DegenerateMean(f"merge of identity {j}")
        rows[t] = blended / norm
        if lam < 0.5:
            prov[t] = cur.provenance[j]
    return (np.concatenate([rows, cur.rows[unmatched]]),
            prov + [cur.provenance[j] for j in unmatched])


class TestIkuMergeAgainstLoop:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.25, 0.4375, 0.5, 0.75, 1.0]),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equals_per_j_loop(self, seed, lam, degenerate):
        # Few history rows and up to 12 current ones, so targets repeat.
        r = np.random.default_rng(seed)
        n_h, n_c, dim = int(r.integers(1, 5)), int(r.integers(1, 13)), int(r.integers(2, 9))
        hist = IdentityMemory(unit_rows(r, n_h, dim), r.integers(100, size=n_h))
        cur = IdentityMemory(unit_rows(r, n_c, dim), r.integers(100, 200, size=n_c))
        matches = np.where(r.random(n_c) < 0.75, r.integers(n_h, size=n_c), -1)
        if degenerate:
            # The first j cancels its target at lam 0.5, and the last j
            # overwrites that target: the merge must still reject it.
            lam, matches[0], matches[-1] = 0.5, 0, 0
            cur.rows[0] = -hist.rows[0]
            with pytest.raises(DegenerateMean, match="identity 0"):
                iku_merge(hist, cur, matches, lam)
            with pytest.raises(DegenerateMean):
                merge_loop(hist, cur, matches, lam)
            return
        merged = iku_merge(hist, cur, matches, lam)
        want_rows, want_prov = merge_loop(hist, cur, matches, lam)
        assert (merged.rows == want_rows).all()
        assert merged.provenance.tolist() == want_prov

    @pytest.mark.parametrize("apply", [
        lambda hist, cur, assoc: iku_merge(hist, cur, assoc, 0.25),
        align_memory,
    ], ids=["iku_merge", "align_memory"])
    def test_target_out_of_range_named(self, rng, apply):
        hist = IdentityMemory(unit_rows(rng, 3, 4))
        cur = IdentityMemory(unit_rows(rng, 3, 4))
        with pytest.raises(IndexOutOfRange, match="target 5"):
            apply(hist, cur, np.array([1, 5, -1]))


class TestAlignMemory:
    def test_recovers_exact_rotation(self, rng):
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        hist = IdentityMemory(unit_rows(rng, 9, 6), list(range(9)))
        matches = np.array([4, 0, 7, 2, 8, 1, 5])
        cur = IdentityMemory(hist.rows[matches] @ Q)
        aligned = align_memory(hist, cur, matches)
        assert np.max(np.abs(aligned.rows - hist.rows @ Q)) <= 1e-12
        assert aligned.provenance.tolist() == hist.provenance.tolist()

    def test_no_match_returns_history(self, rng):
        hist = IdentityMemory(unit_rows(rng, 4, 5))
        cur = IdentityMemory(unit_rows(rng, 3, 5))
        aligned = align_memory(hist, cur, np.array([-1, -1, -1]))
        assert (aligned.rows == hist.rows).all()

    def test_undetermined_directions_untouched(self, rng):
        # The pairs span the first three coordinates only; a row along the
        # fifth sees no evidence and must not be turned.
        Q3, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        H = np.zeros((5, 6))
        H[:, :3] = unit_rows(rng, 5, 3)
        C = np.zeros((5, 6))
        C[:, :3] = H[:, :3] @ Q3
        probe = np.eye(6)[4]
        aligned = align_memory(IdentityMemory(np.vstack([H, probe])), IdentityMemory(C), np.arange(5))
        assert np.max(np.abs(aligned.rows[:5] - C)) <= 1e-12
        assert np.max(np.abs(aligned.rows[5] - probe)) <= 1e-12

    def test_errors(self, rng):
        hist = IdentityMemory(unit_rows(rng, 3, 5))
        with pytest.raises(ShapeMismatch):
            align_memory(hist, IdentityMemory(unit_rows(rng, 2, 4)), np.array([0, -1]))
        with pytest.raises(ShapeMismatch):
            align_memory(hist, IdentityMemory(unit_rows(rng, 2, 5)), np.array([0]))
        with pytest.raises(IndexOutOfRange):
            align_memory(hist, IdentityMemory(unit_rows(rng, 2, 5)), np.array([0, 3]))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rotation_that_fits_best(self, seed):
        r = np.random.default_rng(seed)
        d = int(r.integers(2, 9))
        n_h = int(r.integers(1, 10))
        n_c = int(r.integers(1, 10))
        hist = IdentityMemory(unit_rows(r, n_h, d))
        cur = IdentityMemory(unit_rows(r, n_c, d))
        matches = np.array([int(r.integers(n_h)) if r.random() < 0.6 else -1 for _ in range(n_c)])
        aligned = align_memory(hist, cur, matches)
        # A rotation: unit rows, and every angle between historical rows kept.
        assert aligned.max_unit_error() <= 1e-9
        assert np.max(np.abs(aligned.rows @ aligned.rows.T - hist.rows @ hist.rows.T)) <= 1e-12
        # No orthogonal map carries the matched pairs closer.
        m = matches != -1

        def misfit(rows):
            return float(np.sum((rows[matches[m]] - cur.rows[m]) ** 2))

        best = misfit(aligned.rows)
        assert best <= misfit(hist.rows) + 1e-9
        for _ in range(5):
            Q, _ = np.linalg.qr(r.normal(size=(d, d)))
            assert best <= misfit(hist.rows @ Q) + 1e-9


class TestSnapshotRoundTrip:
    def test_bitwise_roundtrip(self, rng, tmp_path):
        mem = IdentityMemory(unit_rows(rng, 5, 7), [3, 1, 4, 1, 5])
        path = tmp_path / "memory.json"
        save_memory(mem, path)
        loaded = load_memory(path)
        assert (loaded.rows == mem.rows).all()
        assert loaded.provenance.tolist() == mem.provenance.tolist()

    def test_bytes_equal_to_per_element_floats(self, rng, tmp_path):
        # -0.0, subnormals and 1e300 print as Python floats print them.
        rows = unit_rows(rng, 4, 6)
        rows[0, :4] = [-0.0, 5e-324, -2.5e-310, 1e300]
        rows[3, 1] = -1e300
        mem = IdentityMemory(rows, [0, 1, 2, 3])
        path = tmp_path / "memory.json"
        save_memory(mem, path)
        want = {"dim": 6, "rows": [[float(v) for v in row] for row in rows],
                "provenance": [0, 1, 2, 3]}
        assert path.read_text() == json.dumps(want)

    def test_interrupted_write_keeps_the_previous_snapshot(self, rng, tmp_path, monkeypatch):
        # A writer killed halfway through the text leaves a truncated
        # temporary file beside the snapshot, never a truncated snapshot.
        mem = IdentityMemory(unit_rows(rng, 5, 7), [3, 1, 4, 1, 5])
        path = tmp_path / "memory.json"
        save_memory(mem, path)

        def killed(self, text):
            with open(self, "w") as f:
                f.write(text[: len(text) // 2])
            raise RuntimeError("killed")

        monkeypatch.setattr(Path, "write_text", killed)
        with pytest.raises(RuntimeError, match="killed"):
            save_memory(IdentityMemory(unit_rows(rng, 6, 7)), path)
        monkeypatch.undo()
        loaded = load_memory(path)
        assert (loaded.rows == mem.rows).all()
        assert loaded.provenance.tolist() == mem.provenance.tolist()

    def test_roundtrip_without_provenance(self, rng, tmp_path):
        mem = IdentityMemory(unit_rows(rng, 2, 3), None)
        path = tmp_path / "memory.json"
        save_memory(mem, path)
        assert load_memory(path).provenance is None

    def test_repeated_key_names_the_snapshot(self, tmp_path):
        # Read alone, the last provenance would win: a tagged memory would
        # load untagged.
        path = tmp_path / "memory.json"
        path.write_text('{"dim": 2, "rows": [[1.0, 0.0]], "provenance": [5], "provenance": null}')
        message = r"^memory\.json: cannot read memory snapshot: repeated key 'provenance'$"
        with pytest.raises(ParseError, match=message):
            load_memory(path)

    def test_dimension_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 3, "rows": [[1.0, 0.0]], "provenance": null}')
        with pytest.raises(DimensionMismatch):
            load_memory(path)
