import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ike_lab import evaluation, oracles
from ike_lab.datasets import TestSplit
from ike_lab.encoder import EncoderParams, forward_batch, init_encoder
from ike_lab.errors import ConfigError, EmptyGallery, NoRelevant, ShapeMismatch
from ike_lab.evaluation import (
    GALLERY_RULES,
    MetricsReport,
    average_precision,
    evaluate_map,
    has_scorable_query,
)
from ike_lab.memory import unit_rows
from ike_lab.trainer import Hyperparams, precision_matrix

from builders import tiny_bundle


def per_query_map(emb, gids, cams, rule):
    """Reference mAP: each query's own gallery under rule, ranked with a
    stable argsort of its scores and scored with average_precision, then
    averaged in query order; None when no query is scorable."""
    n = len(gids)
    aps = []
    for q in range(n):
        if rule == "camera":
            keep = cams != cams[q]
        elif rule == "camera-id":
            keep = (cams != cams[q]) | (gids != gids[q])
        else:
            keep = np.arange(n) != q
        gallery = np.flatnonzero(keep)
        order = np.argsort(-(emb[gallery] @ emb[q]), kind="stable")
        relevance = gids[gallery][order] == gids[q]
        if relevance.any():
            aps.append(average_precision(relevance, int(relevance.sum())))
    return float(np.mean(aps)) if aps else None


class TestAveragePrecision:
    def test_all_relevant_first(self):
        assert average_precision(np.array([1, 1, 0, 0]), 2) == 1.0

    def test_single_relevant_at_rank_r(self):
        for r in range(1, 6):
            rel = np.zeros(6)
            rel[r - 1] = 1
            assert average_precision(rel, 1) == pytest.approx(1.0 / r)

    def test_hand_case(self):
        assert average_precision(np.array([1, 0, 1]), 2) == pytest.approx((1.0 + 2 / 3) / 2)

    def test_no_relevant_rejected(self):
        with pytest.raises(NoRelevant):
            average_precision(np.array([0, 0]), 0)

    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_equals_precision_at_k_sum_bitwise(self, flags):
        # The textbook form: precision@k at every rank, masked to the
        # relevant ranks, summed over the whole list.
        rel = np.array(flags, dtype=np.float64)
        n_rel = max(int(rel.sum()), 1)
        want = float((np.cumsum(rel) / np.arange(1, rel.size + 1) * rel).sum() / n_rel)
        assert average_precision(rel, n_rel) == want


class TestEvaluateMap:
    def test_perfect_encoder_gives_one(self):
        bundle = tiny_bundle(camera_shift=0.0, noise=0.0)
        params = init_encoder([6, 8, 8, 6], np.random.default_rng(3))
        assert evaluate_map(params, bundle.test) == 1.0

    def test_matches_brute_force_oracle(self, rng):
        for trial in range(25):
            n = int(rng.integers(8, 30))
            params = init_encoder([5, 6, 6, 4], np.random.default_rng(trial))
            X = rng.normal(size=(n, 5))
            gids = rng.integers(5, size=n)
            cams = rng.integers(3, size=n)
            cams[: max(2, n // 3)] = 0
            cams[max(2, n // 3) :] = rng.integers(1, 3, size=n - max(2, n // 3))
            split = TestSplit(X, gids, cams)
            emb = forward_batch(params, X).embeddings
            for rule in GALLERY_RULES:
                try:
                    want = oracles.map_oracle(emb, gids.tolist(), cams.tolist(), rule)
                except ValueError:
                    with pytest.raises(EmptyGallery):
                        evaluate_map(params, split, rule)
                    continue
                assert evaluate_map(params, split, rule) == pytest.approx(want, abs=1e-12)

    @given(data=st.data(), n=st.integers(0, 12), rule=st.sampled_from(GALLERY_RULES))
    @settings(max_examples=300, deadline=None)
    def test_scorable_rule_agrees_with_evaluate_map(self, data, n, rule):
        # has_scorable_query reads only the tags; evaluate_map raises
        # EmptyGallery exactly when it finds no query to score. Few
        # identities and cameras make both outcomes common.
        gids = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        cams = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        split = TestSplit(np.random.default_rng(n).normal(size=(n, 5)), gids, cams)
        try:
            evaluate_map(init_encoder([5, 6, 6, 4], np.random.default_rng(0)), split, rule)
            scored = True
        except EmptyGallery:
            scored = False
        assert has_scorable_query(split, rule) == scored

    @pytest.mark.parametrize("rule", GALLERY_RULES)
    def test_matches_oracle_under_every_rule_with_ties(self, rng, rule):
        # Saturated tanh layers make this encoder map x to 0.5 * sign(x[:4])
        # exactly, so scores are sums of +-0.25 terms, exact in any order:
        # equal embeddings tie exactly, and ties must break toward the lower
        # gallery index. Identity 9 has one image, so its query has nothing
        # relevant under any rule.
        params = EncoderParams(
            [100.0 * np.eye(6, 5), 100.0 * np.eye(6), np.eye(4, 6)],
            [np.zeros(6), np.zeros(6), np.zeros(4)],
        )
        for trial in range(20):
            n = int(rng.integers(6, 30))
            X = rng.choice([-1.0, 1.0], size=(n, 5))
            gids = np.append(rng.integers(4, size=n - 1), 9)
            cams = rng.integers(3, size=n)
            split = TestSplit(X, gids, cams)
            emb = forward_batch(params, X).embeddings
            assert (emb == 0.5 * X[:, :4]).all()
            try:
                want = oracles.map_oracle(emb, gids.tolist(), cams.tolist(), rule)
            except ValueError:
                with pytest.raises(EmptyGallery):
                    evaluate_map(params, split, rule)
                continue
            assert evaluate_map(params, split, rule) == pytest.approx(want, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 40), n_copies=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_duplicated_images_tie_exactly_under_every_rule(self, seed, n, n_copies):
        # Copies of test images, under other identities, have the same
        # embedding as their originals, so they score the same against any
        # query: the copies must tie exactly and break toward the lower
        # gallery index, as in the oracle, whatever BLAS kernel scored them.
        rng = np.random.default_rng(seed)
        params = init_encoder([5, 12, 12, 32], rng)
        originals = rng.integers(n, size=n_copies)
        X = rng.normal(size=(n, 5))[np.append(np.arange(n), originals)]
        gids = rng.integers(6, size=X.shape[0])
        cams = rng.integers(6, size=X.shape[0])
        split = TestSplit(X, gids, cams)
        emb = forward_batch(params, X).embeddings
        for rule in GALLERY_RULES:
            try:
                want = oracles.map_oracle(emb, gids.tolist(), cams.tolist(), rule)
            except ValueError:
                with pytest.raises(EmptyGallery):
                    evaluate_map(params, split, rule)
                continue
            assert evaluate_map(params, split, rule) == pytest.approx(want, abs=1e-12), rule

    @pytest.mark.parametrize("block_elements", [1, 500, evaluation._BLOCK_ELEMENTS])
    @pytest.mark.parametrize("rule", GALLERY_RULES)
    def test_bitwise_equal_to_per_query_loop(self, monkeypatch, rng, rule, block_elements):
        # The reference ranks each query's own gallery with a stable argsort
        # and scores it with average_precision. Random embeddings leave no
        # near-ties, so the ranks, and with them the AP bits, must agree for
        # every chunk size: one query row per chunk, a few, or whole blocks.
        # "camera-id" galleries differ in length from row to row.
        monkeypatch.setattr(evaluation, "_BLOCK_ELEMENTS", block_elements)
        n = 400
        params = init_encoder([5, 8, 8, 16], np.random.default_rng(1))
        X = rng.normal(size=(n, 5))
        gids = rng.integers(12, size=n)
        cams = rng.integers(4, size=n)
        emb = forward_batch(params, X).embeddings
        want = per_query_map(emb, gids, cams, rule)
        assert evaluate_map(params, TestSplit(X, gids, cams), rule) == want

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 40),
        n_cams=st.integers(1, 4),
        block_elements=st.sampled_from([1, 40, 300, evaluation._BLOCK_ELEMENTS]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_to_per_query_argsort_with_exact_ties(
        self, seed, n, n_cams, block_elements
    ):
        # The saturated encoder of the tie test above scores exactly, so the
        # per-query stable argsort sees the same ties as evaluate_map, and
        # every mAP must agree bit for bit. Row 1 copies row 0's image,
        # identity and camera, and row 2 copies its image under a drawn
        # identity. The last row's identity 9 has nothing relevant, and it
        # shares camera 0 with rows 0 and 1, so under "camera-id" camera 0's
        # rows have galleries of several lengths (in one chunk when 300 or
        # more scores fit).
        rng = np.random.default_rng(seed)
        params = EncoderParams(
            [100.0 * np.eye(6, 5), 100.0 * np.eye(6), np.eye(4, 6)],
            [np.zeros(6), np.zeros(6), np.zeros(4)],
        )
        X = rng.choice([-1.0, 1.0], size=(n, 5))
        X[1:3] = X[0]
        gids = np.append(rng.integers(4, size=n - 1), 9)
        gids[1] = gids[0]
        cams = rng.integers(n_cams, size=n)
        cams[[0, 1, -1]] = 0
        split = TestSplit(X, gids, cams)
        emb = forward_batch(params, X).embeddings
        assert (emb == 0.5 * X[:, :4]).all()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "_BLOCK_ELEMENTS", block_elements)
            for rule in GALLERY_RULES:
                want = per_query_map(emb, gids, cams, rule)
                if want is None:
                    with pytest.raises(EmptyGallery):
                        evaluate_map(params, split, rule)
                else:
                    assert evaluate_map(params, split, rule) == want, rule

    def test_block_rows_bitwise_equal_to_average_precision(self, rng):
        # Each row of a block, ranked with its excluded columns dropped, is
        # the AP of its own gallery bit for bit: same ranks, ties toward the
        # lower index, and a sum over a zero vector of the row's own gallery
        # length. Excluded columns reach the helper as -inf cells counted out
        # of the row's length, and relevant ones as (row, column) pairs.
        # Scores on a 0.05 grid tie often; about a quarter of the columns are
        # relevant, so a row's terms spread over its whole length.
        for trial in range(20):
            R, L = 12, int(rng.integers(150, 600))
            scores = np.round(rng.uniform(-1, 1, size=(R, L)) * 20) / 20
            same_id = rng.random((R, L)) < 0.25
            excluded = np.zeros((R, L), dtype=bool) if trial % 2 else rng.random((R, L)) < 0.2
            same_id[0] = False  # a row with nothing relevant
            keep = ~excluded
            want = np.full(R, np.nan)
            for r in range(R):
                order = np.argsort(-scores[r, keep[r]], kind="stable")
                relevance = same_id[r, keep[r]][order]
                if relevance.any():
                    want[r] = average_precision(relevance, int(relevance.sum()))
            given_scores = np.where(excluded, -np.inf, scores)
            lengths = L - np.count_nonzero(excluded, axis=1)
            pair_rows, pair_cols = np.nonzero(same_id & keep)
            got = evaluation._block_aps(given_scores, pair_rows, pair_cols, lengths)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rule", GALLERY_RULES)
    def test_peak_allocation_below_a_square_score_matrix(self, rule):
        # A balanced 6-camera split of N = 2,400 images. An N x N float64
        # score matrix alone would take N^2 * 8 bytes (46 MB).
        rng = np.random.default_rng(0)
        N = 2400
        params = init_encoder([8, 16, 16, 32], rng)
        split = TestSplit(rng.normal(size=(N, 8)), rng.integers(400, size=N), np.arange(N) % 6)
        tracemalloc.start()
        try:
            evaluate_map(params, split, rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < N * N * 8

    def test_rank_only_dependence(self, rng):
        # Any strictly monotone transform of scores leaves AP unchanged;
        # scaling all embeddings by a positive factor is such a transform.
        scores = rng.normal(size=12)
        rel = (rng.random(12) < 0.4).astype(float)
        if rel.sum() == 0:
            rel[0] = 1
        order = np.argsort(-scores, kind="stable")
        ap1 = average_precision(rel[order], int(rel.sum()))
        warped = np.tanh(2.5 * scores)  # strictly monotone
        order2 = np.argsort(-warped, kind="stable")
        ap2 = average_precision(rel[order2], int(rel.sum()))
        assert ap1 == ap2

    def test_single_camera_split_rejected(self, rng):
        params = init_encoder([4, 6, 6, 4], rng)
        split = TestSplit(rng.normal(size=(5, 4)), np.arange(5), np.zeros(5, dtype=int))
        with pytest.raises(EmptyGallery):
            evaluate_map(params, split)

    def test_gallery_rule_validation(self, rng):
        params = init_encoder([4, 6, 6, 4], rng)
        split = TestSplit(rng.normal(size=(4, 4)), np.arange(4), np.array([0, 0, 1, 1]))
        with pytest.raises(ConfigError):
            evaluate_map(params, split, gallery_rule="nope")

    def test_junk_rule_keeps_same_camera_distractors(self, rng):
        # Under the junk-style rule, same-camera different-id items stay in
        # the gallery as extra distractors, so mAP can only drop relative to
        # the strict cross-camera rule on the same split.
        params = init_encoder([4, 6, 6, 4], np.random.default_rng(0))
        X = rng.normal(size=(30, 4))
        gids = rng.integers(4, size=30)
        cams = np.where(np.arange(30) < 15, 0, 1)
        split = TestSplit(X, gids, cams)
        strict = evaluate_map(params, split, gallery_rule="camera")
        junk = evaluate_map(params, split, gallery_rule="camera-id")
        assert junk <= strict + 1e-12

    def test_deterministic(self, rng):
        bundle = tiny_bundle()
        params = init_encoder([6, 8, 8, 6], rng)
        assert evaluate_map(params, bundle.test) == evaluate_map(params, bundle.test)


class TestMetricsReport:
    def test_build_and_roundtrip(self):
        rep = MetricsReport([0.5, 0.7], [10, 12], [None, 0.8])
        assert rep.fmap == 0.7
        assert rep.mean_map == pytest.approx(0.6)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert list(doc) == ["per_camera_map", "fmap", "mean_map", "nh_trajectory", "assoc_precision"]
        assert (doc["fmap"], doc["mean_map"]) == (rep.fmap, rep.mean_map)
        fields = ("per_camera_map", "nh_trajectory", "assoc_precision")
        assert MetricsReport(*(doc[k] for k in fields)) == rep
        with pytest.raises(ShapeMismatch):
            MetricsReport([0.5, 0.7], [10], [None, 0.8])


class TestPrecisionMatrix:
    def test_zero_shift_perfect_and_diagonal_nan(self):
        # Full overlap makes every historical row's true counterpart present,
        # so mutual matching cannot pair anything incorrectly at zero noise.
        bundle = tiny_bundle(camera_shift=0.0, noise=0.0, overlap_bias=1.0, ids_per_camera=24)
        hyper = Hyperparams(epochs=2)
        P = precision_matrix(bundle, hyper, [8, 8, 8], 8, seed=0)
        assert P.shape == (3, 3)
        assert np.isnan(np.diag(P)).all()
        off = P[~np.isnan(P)]
        assert off.shape == (6,)
        assert (off == 1.0).all()
