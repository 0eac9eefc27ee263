"""The oracle checks and the selftest: each passes on the committed code and
fails, naming the right row, when a fault is planted in what it checks."""

import numpy as np
import pytest

import ike_lab.checks as checks
from ike_lab.association import one_way_match
from ike_lab.checks import (
    GRAD_TERMS,
    check_cycle_match,
    check_map,
    check_memory_algebra,
    grad_fixture,
    make_loss_closure,
    selftest,
)
from ike_lab.encoder import grad_check
from ike_lab.errors import EmptyGallery
from ike_lab.evaluation import evaluate_map
from ike_lab.losses import TERMS
from ike_lab.memory import IdentityMemory, iku_merge
from ike_lab.trainer import Hyperparams


class TestSelftest:
    def test_fresh_checkout_passes(self):
        report = selftest()
        assert report.passed
        table = report.format_table()
        assert "PASS" in table

    @pytest.mark.parametrize("term", GRAD_TERMS)
    def test_fault_injection_fails_named_term(self, monkeypatch, term):
        make_exact = checks.make_loss_closure

        def make_faulty(name, *args):
            exact = make_exact(name, *args)
            if name != term:
                return exact

            def closure(p):
                value, grads = exact(p)
                grads.weights[0][...] += 1e-3
                return value, grads

            return closure

        monkeypatch.setattr(checks, "make_loss_closure", make_faulty)
        report = selftest()
        assert not report.passed
        failing = {(suite, detail) for suite, detail, *_, ok in report.rows if not ok}
        assert failing == {("gradients", term)}

    @pytest.mark.parametrize("term", GRAD_TERMS)
    def test_grad_check_walks_the_whole_vector(self, term):
        params, *rest = grad_fixture(np.random.default_rng(7), [6, 8, 8, 8, 6])
        closure = make_loss_closure(term, *rest, Hyperparams(tau=0.05))
        assert grad_check(params, closure) <= 1e-6
        # A fault in the first or the last entry of the vector must show.
        for k in (0, params.flat.size - 1):
            def faulty(p, k=k):
                value, grads = closure(p)
                grads.flat[k] += 1e-3
                return value, grads

            assert grad_check(params, faulty) >= 1e-4

    def test_term_closures_sum_to_the_training_step(self):
        # The per-term closures cut IKE's row to one term; summed in TERMS
        # order they are the whole step, which is what trains.
        rng = np.random.default_rng(3)
        for _ in range(20):
            params, *rest = grad_fixture(rng, [6, 8, 8, 8, 6])
            parts = [make_loss_closure(t, *rest, Hyperparams(tau=0.05))(params) for t in TERMS]
            total, grads = make_loss_closure("ikd", *rest, Hyperparams(tau=0.05))(params)
            assert sum(value for value, _ in parts) == total
            summed = sum(g.flat for _, g in parts)
            assert np.max(np.abs(summed - grads.flat)) <= 1e-12

    def test_cycle_match_check_catches_one_way_matching(self, monkeypatch):
        monkeypatch.setattr(checks, "cycle_match", one_way_match)
        mismatches, _ = check_cycle_match(np.random.default_rng(0), 20, 20, [8])
        assert mismatches > 0

    def test_memory_check_catches_dropped_rows(self, monkeypatch):
        def drop_appended(hist, cur, matches, lam):
            return IdentityMemory(iku_merge(hist, cur, matches, lam).rows[: len(hist)])

        monkeypatch.setattr(checks, "iku_merge", drop_appended)
        _, wrong_length = check_memory_algebra(np.random.default_rng(0), 20, 8, 8)
        assert wrong_length > 0

    def test_map_check_catches_an_empty_gallery(self, monkeypatch):
        def no_gallery(params, split):
            raise EmptyGallery("no scorable query")

        monkeypatch.setattr(checks, "evaluate_map", no_gallery)
        _, scored, disagreements = check_map(np.random.default_rng(0), 5, 10)
        assert disagreements > 0 and scored == 0

    def test_map_check_catches_a_tiny_error(self, monkeypatch):
        monkeypatch.setattr(checks, "evaluate_map", lambda params, split: evaluate_map(params, split) + 1e-9)
        err, _, _ = check_map(np.random.default_rng(0), 5, 10)
        assert err > 1e-12

    def test_map_check_scores_the_requested_count(self):
        err, scored, disagreements = check_map(np.random.default_rng(0), 7, 50)
        assert (scored, disagreements) == (7, 0)
        assert err <= 1e-12

    def test_gradient_rows_within_tolerance(self):
        report = selftest()
        grad_rows = [r for r in report.rows if r[0] == "gradients"]
        assert {r[1] for r in grad_rows} == {"id", "id_hist", "kd", "mkd", "ikd"}
        assert all(r[2] <= 1e-6 for r in grad_rows)
