import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ike_lab import oracles
from ike_lab.association import (
    all_unmatched,
    association_precision,
    augment_dataset,
    cycle_match,
    one_way_match,
)
from ike_lab.checks import check_cycle_match
from ike_lab.datasets import CameraDataset
from ike_lab.errors import EmptyMemory, IndexOutOfRange, MissingProvenance, ShapeMismatch
from ike_lab.memory import NO_MATCH, IdentityMemory, empty_memory, unit_rows

from builders import manual_camera


class TestCycleMatch:
    def test_empty_history_all_unmatched(self, rng):
        cur = IdentityMemory(unit_rows(rng, 5, 4))
        assoc = cycle_match(cur, empty_memory(4))
        assert (assoc == NO_MATCH).all()

    def test_self_matching_identity(self, rng):
        rows = unit_rows(rng, 8, 6)
        assoc = cycle_match(IdentityMemory(rows), IdentityMemory(rows.copy()))
        assert assoc.tolist() == list(range(8))

    def test_matches_brute_force_oracle(self, rng):
        assert check_cycle_match(rng, 300, 79, [8, 16])[0] == 0

    def test_empty_current_rejected(self, rng):
        with pytest.raises(EmptyMemory):
            cycle_match(empty_memory(4), IdentityMemory(unit_rows(rng, 3, 4)))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            cycle_match(IdentityMemory(unit_rows(rng, 3, 4)), IdentityMemory(unit_rows(rng, 3, 5)))

    def test_determinism(self, rng):
        cur = IdentityMemory(unit_rows(rng, 20, 8))
        hist = IdentityMemory(unit_rows(rng, 30, 8))
        a = cycle_match(cur, hist)
        b = cycle_match(cur, hist)
        assert (a == b).all()

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_injective_and_symmetric(self, seed):
        r = np.random.default_rng(seed)
        cur = IdentityMemory(unit_rows(r, int(r.integers(1, 20)), 6))
        hist = IdentityMemory(unit_rows(r, int(r.integers(1, 20)), 6))
        fwd = cycle_match(cur, hist)
        matched = fwd[fwd != NO_MATCH]
        assert len(set(matched.tolist())) == len(matched)
        bwd = cycle_match(hist, cur)
        pairs_fwd = {(i, int(j)) for i, j in enumerate(fwd) if j != NO_MATCH}
        pairs_bwd = {(int(i), j) for j, i in enumerate(bwd) if i != NO_MATCH}
        assert pairs_fwd == pairs_bwd

    def test_new_row_preserves_strong_pairs(self, rng):
        # Mutual pairs whose scores dominate a newly appended row stay put.
        rows = unit_rows(rng, 6, 8)
        cur = IdentityMemory(rows)
        hist_rows = rows + 0.01 * rng.normal(size=rows.shape)
        hist_rows /= np.linalg.norm(hist_rows, axis=1, keepdims=True)
        before = cycle_match(cur, IdentityMemory(hist_rows))
        assert before.tolist() == list(range(6))
        extra = unit_rows(rng, 1, 8)
        grown = IdentityMemory(np.concatenate([hist_rows, -rows[:1]]))
        after = cycle_match(cur, grown)
        assert after.tolist() == list(range(6))


class TestOneWayMatch:
    def test_every_identity_assigned(self, rng):
        cur = IdentityMemory(unit_rows(rng, 10, 6))
        hist = IdentityMemory(unit_rows(rng, 4, 6))
        assoc = one_way_match(cur, hist)
        assert assoc.dtype == np.int64 and assoc.shape == (len(cur),)
        assert (assoc >= 0).all()
        want = oracles.one_way_argmax_oracle(cur.rows, hist.rows)
        assert assoc.tolist() == want

    def test_empty_history_all_unmatched(self, rng):
        assoc = one_way_match(IdentityMemory(unit_rows(rng, 3, 4)), empty_memory(4))
        assert (assoc == NO_MATCH).all()


class TestAugmentDataset:
    def test_all_unmatched(self, rng):
        cam = manual_camera(rng, n_ids=4, per_id=3, dim=5)
        hist_labels = augment_dataset(cam, all_unmatched(4))
        assert hist_labels.shape == (12,)
        assert (hist_labels == NO_MATCH).all()

    def test_single_identity_carries_match(self, rng):
        cam = manual_camera(rng, n_ids=2, per_id=3, dim=5)
        assoc = np.array([3, NO_MATCH])
        hist_labels = augment_dataset(cam, assoc)
        assert hist_labels.tolist() == [3 if y == 0 else NO_MATCH for y in cam.labels]

    def test_lookup_oracle(self, rng):
        cam = manual_camera(rng, n_ids=6, per_id=2, dim=5)
        matches = np.array([rng.integers(0, 9) if rng.random() < 0.6 else NO_MATCH for _ in range(6)])
        hist_labels = augment_dataset(cam, matches)
        assert hist_labels.dtype == np.int64
        assert hist_labels.shape == (len(cam),)
        for i in range(len(cam)):
            assert hist_labels[i] == matches[cam.labels[i]]

    def test_label_out_of_range(self, rng):
        cam = manual_camera(rng, n_ids=4, per_id=2, dim=5)
        with pytest.raises(IndexOutOfRange):
            augment_dataset(cam, all_unmatched(2))


class TestAssociationPrecision:
    def test_all_correct(self):
        assoc = np.array([0, 1, NO_MATCH])
        res = association_precision(assoc, [10, 11, 12], [10, 11])
        assert res.precision == 1.0
        assert res.discovered == 2
        assert res.correct == 2

    def test_none_discovered(self):
        assoc = all_unmatched(3)
        res = association_precision(assoc, [1, 2, 3], [4, 5])
        assert res.precision is None
        assert res.discovered == 0

    def test_three_of_four(self):
        assoc = np.array([0, 1, 2, 3, NO_MATCH])
        res = association_precision(assoc, [10, 11, 12, 99, 0], [10, 11, 12, 13])
        assert res.precision == pytest.approx(0.75)
        assert (res.discovered, res.correct) == (4, 3)

    def test_missing_provenance(self):
        with pytest.raises(MissingProvenance):
            association_precision(all_unmatched(2), None, [1])

    def test_tag_count_and_target_range_checked(self):
        with pytest.raises(ShapeMismatch):
            association_precision(all_unmatched(2), [1, 2, 3], [1])
        with pytest.raises(IndexOutOfRange):
            association_precision(np.array([0, 2]), [1, 2], [1, 2])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_per_match_count(self, data):
        n_cur = data.draw(st.integers(1, 8))
        n_hist = data.draw(st.integers(0, 6))
        matches = data.draw(st.lists(st.integers(NO_MATCH, n_hist - 1), min_size=n_cur, max_size=n_cur))
        cur = data.draw(st.lists(st.integers(0, 4), min_size=n_cur, max_size=n_cur))
        hist = data.draw(st.lists(st.integers(0, 4), min_size=n_hist, max_size=n_hist))
        res = association_precision(np.array(matches), cur, hist)
        pairs = [(cur[i], hist[t]) for i, t in enumerate(matches) if t != NO_MATCH]
        correct = sum(a == b for a, b in pairs)
        assert (res.discovered, res.correct) == (len(pairs), correct)
        assert res.precision == (correct / len(pairs) if pairs else None)
