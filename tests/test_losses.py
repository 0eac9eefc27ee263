import math
import re

import numpy as np
import pytest

from ike_lab.encoder import grad_check
from ike_lab.errors import EmptyBatch, EmptyMemory, IndexOutOfRange, ShapeMismatch
from ike_lab.losses import LossBreakdown, loss_id, loss_id_hist, loss_kd, loss_mkd
from ike_lab.memory import NO_MATCH, IdentityMemory, empty_memory, unit_rows


class TestLossId:
    def test_single_class_is_zero(self, rng):
        mem = IdentityMemory(unit_rows(rng, 1, 4))
        F = unit_rows(rng, 3, 4)
        value, grad = loss_id(F, np.zeros(3, dtype=int), mem, tau=0.05)
        assert value == pytest.approx(0.0, abs=1e-15)
        assert np.max(np.abs(grad)) <= 1e-15

    def test_equal_scores_give_log_n(self, rng):
        # All rows orthogonal to the feature: uniform softmax.
        mem = IdentityMemory(np.eye(4)[:3])
        F = np.array([[0.0, 0.0, 0.0, 1.0]])
        value, _ = loss_id(F, np.array([1]), mem, tau=0.05)
        assert value == pytest.approx(math.log(3), abs=1e-12)

    def test_finite_difference(self, rng):
        mem = IdentityMemory(unit_rows(rng, 10, 6))
        F = unit_rows(rng, 8, 6)
        labels = rng.integers(10, size=8)
        assert grad_check(F, lambda F_: loss_id(F_, labels, mem, tau=0.05)) <= 1e-6

    def test_memory_not_modified(self, rng):
        mem = IdentityMemory(unit_rows(rng, 5, 4))
        before = mem.rows.copy()
        loss_id(unit_rows(rng, 3, 4), rng.integers(5, size=3), mem, tau=0.05)
        assert (mem.rows == before).all()

    def test_errors(self, rng):
        mem = IdentityMemory(unit_rows(rng, 3, 4))
        with pytest.raises(EmptyBatch):
            loss_id(np.zeros((0, 4)), np.zeros(0, dtype=int), mem, tau=0.05)
        with pytest.raises(IndexOutOfRange, match=r"^label 3 outside \[0, 3\)$"):
            loss_id(unit_rows(rng, 2, 4), np.array([0, 3]), mem, tau=0.05)
        with pytest.raises(EmptyMemory):
            loss_id(unit_rows(rng, 2, 4), np.array([0, 0]), empty_memory(4), tau=0.05)

    def test_descent_step_decreases(self, rng):
        mem = IdentityMemory(unit_rows(rng, 6, 5))
        F = unit_rows(rng, 4, 5)
        labels = rng.integers(6, size=4)
        v0, g = loss_id(F, labels, mem, tau=0.05)
        v1, _ = loss_id(F - 1e-4 * g, labels, mem, tau=0.05)
        assert v1 < v0


class TestLossIdHist:
    def test_all_unmatched_is_zero(self, rng):
        hist = IdentityMemory(unit_rows(rng, 4, 5))
        F = unit_rows(rng, 3, 5)
        value, grad = loss_id_hist(F, np.full(3, NO_MATCH), hist, tau=0.05)
        assert value == 0.0
        assert (grad == 0).all()

    def test_single_history_row_zero(self, rng):
        hist = IdentityMemory(unit_rows(rng, 1, 5))
        F = unit_rows(rng, 2, 5)
        value, _ = loss_id_hist(F, np.array([0, NO_MATCH]), hist, tau=0.05)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_empty_history_is_zero(self, rng):
        F = unit_rows(rng, 2, 5)
        value, grad = loss_id_hist(F, np.full(2, NO_MATCH), empty_memory(5), tau=0.05)
        assert value == 0.0 and (grad == 0).all()

    def test_finite_difference_and_history_untouched(self, rng):
        hist = IdentityMemory(unit_rows(rng, 7, 6))
        before = hist.rows.copy()
        F = unit_rows(rng, 6, 6)
        y_hist = np.array([0, NO_MATCH, 3, 5, NO_MATCH, 2])
        assert grad_check(F, lambda F_: loss_id_hist(F_, y_hist, hist, tau=0.05)) <= 1e-6
        assert (hist.rows == before).all()

    def test_batch_mean_uses_full_batch(self, rng):
        hist = IdentityMemory(unit_rows(rng, 4, 5))
        F = unit_rows(rng, 2, 5)
        v_full, _ = loss_id_hist(F, np.array([1, 1]), hist, tau=0.05)
        v_half, _ = loss_id_hist(
            np.concatenate([F, unit_rows(rng, 2, 5)]),
            np.array([1, 1, NO_MATCH, NO_MATCH]),
            hist,
            tau=0.05,
        )
        assert v_half == pytest.approx(v_full / 2, rel=1e-12)

    def test_gated_out_sample_has_no_influence(self, rng):
        hist = IdentityMemory(unit_rows(rng, 4, 5))
        F = unit_rows(rng, 3, 5)
        y_hist = np.array([2, NO_MATCH, 1])
        v0, g0 = loss_id_hist(F, y_hist, hist, tau=0.05)
        F2 = F.copy()
        F2[1] = unit_rows(rng, 1, 5)[0]
        v1, g1 = loss_id_hist(F2, y_hist, hist, tau=0.05)
        assert v0 == v1
        assert (g0[[0, 2]] == g1[[0, 2]]).all()
        assert (g1[1] == 0).all()


class TestContrastiveShapes:
    @pytest.mark.parametrize("hist_labels", [np.array([0, 1, NO_MATCH]), np.array([[0, 1], [NO_MATCH, 2]])])
    def test_hist_labels_not_one_per_row_named(self, rng, hist_labels):
        # Three labels for four rows, or a 2 x 2 label array.
        hist = IdentityMemory(unit_rows(rng, 4, 5))
        message = f"hist_labels shape {hist_labels.shape} vs batch 4"
        with pytest.raises(ShapeMismatch, match=re.escape(message)):
            loss_id_hist(unit_rows(rng, 4, 5), hist_labels, hist, tau=0.05)

    @pytest.mark.parametrize("loss", [loss_id, loss_id_hist])
    def test_memory_of_another_width_named(self, rng, loss):
        mem = IdentityMemory(unit_rows(rng, 3, 6))
        message = "memory shape (3, 6) vs features (4, 8)"
        with pytest.raises(ShapeMismatch, match=re.escape(message)):
            loss(unit_rows(rng, 4, 8), np.array([0, 1, 2, 0]), mem, tau=0.05)


class TestLossKd:
    def test_identical_features_zero(self, rng):
        F = unit_rows(rng, 4, 5)
        value, grad = loss_kd(F, F.copy(), np.ones(4))
        assert value == 0.0 and (grad == 0).all()

    def test_zero_gates_zero(self, rng):
        value, grad = loss_kd(unit_rows(rng, 4, 5), unit_rows(rng, 4, 5), np.zeros(4))
        assert value == 0.0 and (grad == 0).all()

    def test_forced_hand_value(self):
        Fc = np.array([[1.0, 0.0]])
        Fh = np.array([[0.0, 1.0]])
        value, grad = loss_kd(Fc, Fh, np.ones(1))
        assert value == pytest.approx(2.0, abs=1e-15)
        assert grad[0] == pytest.approx([2.0, -2.0], abs=1e-15)

    def test_finite_difference(self, rng):
        Fh = unit_rows(rng, 5, 6)
        gates = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        F = unit_rows(rng, 5, 6)
        assert grad_check(F, lambda F_: loss_kd(F_, Fh, gates)) <= 1e-6

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            loss_kd(unit_rows(rng, 2, 4), unit_rows(rng, 2, 5), np.ones(2))


class TestLossMkd:
    def test_identical_middles_zero(self, rng):
        m = (rng.normal(size=(3, 6)), rng.normal(size=(3, 6)))
        value, grads = loss_mkd(m, tuple(x.copy() for x in m), np.ones(3))
        assert value == 0.0
        assert all((g == 0).all() for g in grads)

    def test_single_layer_difference_forced(self, rng):
        v = rng.normal(size=6)
        mc = (np.zeros((1, 6)) + v, np.zeros((1, 6)))
        mh = (np.zeros((1, 6)), np.zeros((1, 6)))
        value, (g2, g3) = loss_mkd(mc, mh, np.ones(1))
        assert value == pytest.approx(0.5 * float(v @ v), abs=1e-12)
        assert np.allclose(g2[0], v, atol=1e-15)
        assert (g3 == 0).all()

    def test_finite_difference(self, rng):
        mh = (rng.normal(size=(4, 5)), rng.normal(size=(4, 5)))
        gates = np.array([1.0, 1.0, 0.0, 1.0])
        m2 = rng.normal(size=(4, 5))
        m3 = rng.normal(size=(4, 5))

        def f2(M):
            return loss_mkd((M, m3), mh, gates)[0], loss_mkd((M, m3), mh, gates)[1][0]

        def f3(M):
            return loss_mkd((m2, M), mh, gates)[0], loss_mkd((m2, M), mh, gates)[1][1]

        assert grad_check(m2, f2) <= 1e-6
        assert grad_check(m3, f3) <= 1e-6


class TestLossTotal:
    def test_baseline_gating(self):
        b = LossBreakdown(1.25)
        assert (b.id, b.id_hist, b.kd, b.mkd) == (1.25, 0.0, 0.0, 0.0)
        assert b.total == 1.25

    def test_zero_inputs(self):
        assert LossBreakdown(0.0, 0.0, 0.0, 0.0).total == 0.0

    def test_total_is_resummable(self, rng):
        vals = rng.random(4)
        b = LossBreakdown(*vals)
        assert abs(b.total - float(vals.sum())) <= 1e-12

    def test_breakdown_row(self):
        b = LossBreakdown(1.0, 2.0, 3.0, 4.0)
        assert b.as_row() == (1.0, 2.0, 3.0, 4.0, 10.0)
