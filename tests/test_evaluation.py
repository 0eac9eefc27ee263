import json
import multiprocessing
import random
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ike_lab import evaluation, oracles
from ike_lab.datasets import TestSplit
from ike_lab.encoder import (
    EncoderParams,
    forward_batch,
    init_encoder,
    load_encoder,
    save_encoder,
)
from ike_lab.errors import (
    ConfigError,
    DegenerateEmbedding,
    EmptyGallery,
    NoRelevant,
    ShapeMismatch,
)
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
    summed in query order over their count; None when no query is
    scorable."""
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
    return sum(aps) / len(aps) if aps else None


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

    def test_fewer_relevant_than_the_list_holds_rejected(self):
        # Three relevant items over n_relevant 1 would give an AP of 3.
        with pytest.raises(ShapeMismatch, match="holds 3 relevant items but n_relevant is 1"):
            average_precision(np.array([1, 1, 1]), 1)

    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_equals_precision_at_k_sum_bitwise(self, flags):
        # The oracle walks the list in rank order and adds precision@k at
        # each relevant rank; equal scores keep the list's order.
        rel = np.array(flags, dtype=np.float64)
        want = oracles.ap_oracle([0.0] * rel.size, flags)
        assert average_precision(rel, max(int(rel.sum()), 1)) == (0.0 if want is None else want)


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
            assert evaluate_map(params, split, rule) == want

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

    @pytest.mark.parametrize(
        "no_free_core",
        [("_started_by_multiprocessing", True), ("_usable_cpus", 1)],
        ids=["worker", "one-cpu"],
    )
    @pytest.mark.parametrize("block_elements", [1, 40, 500])
    @pytest.mark.parametrize("rule", GALLERY_RULES)
    def test_inline_ranking_bitwise_equal_to_per_query_loop(
        self, monkeypatch, rng, rule, block_elements, no_free_core
    ):
        # A process that multiprocessing started, or that may use one CPU
        # only, ranks every chunk inline, with one buffer, however many
        # chunks a call has.
        monkeypatch.setattr(evaluation, "_BLOCK_ELEMENTS", block_elements)
        name, value = no_free_core
        monkeypatch.setattr(evaluation, name, lambda: value)
        n = 400
        params = init_encoder([5, 8, 8, 16], np.random.default_rng(1))
        X = rng.normal(size=(n, 5))
        gids = rng.integers(12, size=n)
        cams = rng.integers(4, size=n)
        emb = forward_batch(params, X).embeddings
        want = per_query_map(emb, gids, cams, rule)
        threads = threading.active_count()
        real = evaluation._block_aps

        def no_helper(*args):
            assert threading.active_count() == threads
            return real(*args)

        monkeypatch.setattr(evaluation, "_block_aps", no_helper)
        assert evaluate_map(params, TestSplit(X, gids, cams), rule) == want

    @pytest.mark.parametrize("rule", GALLERY_RULES)
    def test_pipelined_and_inline_paths_run_the_same_gemms(self, monkeypatch, rng, rule):
        # A gemm can round a row's scores differently with how many rows it
        # holds, so both paths must give every gemm the same query rows.
        # At 200 scores against galleries of 40 to 60 candidates, a chunk
        # holds 3 to 5 rows, so a path cutting at half the scores would
        # give its gemms 1 or 2. Each chunk's scores reach _chunk_aps with
        # the rows its gemm held.
        monkeypatch.setattr(evaluation, "_BLOCK_ELEMENTS", 200)
        params = init_encoder([5, 8, 8, 16], np.random.default_rng(1))
        n = 60
        split = TestSplit(rng.normal(size=(n, 5)), rng.integers(6, size=n), np.arange(n) % 3)
        real = evaluation._chunk_aps
        gemms = []

        def recorded(scores, rows, *args):
            assert scores.shape[0] == rows.size
            gemms[-1].append(rows.tolist())
            return real(scores, rows, *args)

        monkeypatch.setattr(evaluation, "_chunk_aps", recorded)
        maps = []
        for worker in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(evaluation, "_usable_cpus", lambda: 2)
                patch.setattr(evaluation, "_started_by_multiprocessing", lambda: worker)
                gemms.append([])
                maps.append(evaluate_map(params, split, rule))
        two_threads, inline = gemms
        assert len(two_threads) > 2
        # The two threads may score the chunks in either order.
        assert sorted(two_threads) == sorted(inline)
        assert maps[0] == maps[1]

    @pytest.mark.parametrize("rule", GALLERY_RULES)
    def test_random_ranking_delays_give_the_inline_bits(self, monkeypatch, rng, rule):
        # Each thread sleeps 0-2 ms before ranking a chunk, and the
        # interpreter switches threads every 10 us, so the two take chunks in
        # an order that differs from call to call. Every row's AP still comes
        # from the same gemm, and the mAP from the same sum.
        monkeypatch.setattr(evaluation, "_BLOCK_ELEMENTS", 200)
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)
        params = init_encoder([5, 8, 8, 16], np.random.default_rng(1))
        n = 120
        split = TestSplit(rng.normal(size=(n, 5)), rng.integers(10, size=n), rng.integers(4, size=n))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "_started_by_multiprocessing", lambda: True)
            inline = evaluate_map(params, split, rule)
        delays = random.Random(0)
        ranked_by = set()
        real = evaluation._chunk_aps

        def delayed(*args):
            ranked_by.add(threading.current_thread())
            time.sleep(delays.uniform(0.0, 0.002))
            return real(*args)

        monkeypatch.setattr(evaluation, "_chunk_aps", delayed)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                ranked_by.clear()
                assert evaluate_map(params, split, rule) == inline
                assert len(ranked_by) == 2
        finally:
            sys.setswitchinterval(interval)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        dim=st.integers(1, 6),
        n_copies=st.integers(0, 10),
        collide=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_embedding_ids_group_rows_as_their_bytes_do(self, seed, n, dim, n_copies, collide):
        # Entries drawn from a few values, -0.0 and 0.0 among them, make
        # rows that are equal, rows that differ only in the sign of a zero,
        # and planted copies. Rows share an id exactly when their bytes
        # match once -0.0 is made 0.0. A hash multiplier of 0 hashes every
        # row alike, so two rows that differ collide and the byte grouping
        # decides.
        rng = np.random.default_rng(seed)
        values = np.array([-0.0, 0.0, 1.0, -0.5, rng.normal()])
        F = rng.choice(values, size=(n, dim))
        F = F[np.append(np.arange(n), rng.integers(n, size=n_copies))]
        with pytest.MonkeyPatch.context() as patch:
            if collide:
                patch.setattr(evaluation, "_HASH_MULTIPLIER", np.uint64(0))
            ids = evaluation._embedding_ids(F)
        row_bytes = (F + 0.0).view(np.dtype((np.void, F.itemsize * dim)))[:, 0]
        want = np.unique(row_bytes, return_inverse=True)[1]
        assert ids.shape == want.shape
        assert ((ids[:, None] == ids) == (want[:, None] == want)).all()

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_workers_rank_inline(self, method):
        # The harness's --jobs workers are forked; either way a worker is
        # known to be one, and this process is not.
        assert not evaluation._started_by_multiprocessing()
        with multiprocessing.get_context(method).Pool(1) as pool:
            assert pool.apply(evaluation._started_by_multiprocessing)

    @pytest.mark.parametrize("failing", [None, "caller", "helper", "both"])
    def test_no_thread_outlives_a_call(self, monkeypatch, rng, failing):
        # On two CPUs at 40 scores per chunk, a call has many chunks, which
        # this thread and one helper thread take from one queue. The helper
        # is gone when the call returns. When either thread's ranking
        # raises, the other takes no more chunks, and the first error
        # reaches the caller. Each thread's first ranking waits at a
        # barrier, so both threads rank a chunk before either fails. Under
        # "both" the helper fails first, then this thread: the helper's
        # error must be the one raised.
        monkeypatch.setattr(evaluation, "_BLOCK_ELEMENTS", 40)
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)
        params = init_encoder([5, 8, 8, 16], np.random.default_rng(1))
        n = 60
        split = TestSplit(rng.normal(size=(n, 5)), rng.integers(6, size=n), rng.integers(3, size=n))
        n_chunks = len(evaluation._chunks(split.camera_ids, "camera"))
        threads = threading.active_count()
        caller = threading.current_thread()
        both_ranking = threading.Barrier(2, timeout=10)
        seen = []
        real = evaluation._block_aps

        def ranked(*args):
            me = threading.current_thread()
            role = "caller" if me is caller else "helper"
            seen.append((me, threading.active_count()))
            if [thread for thread, _ in seen].count(me) == 1:
                both_ranking.wait()
                if me is caller and failing in ("helper", "both"):
                    # The helper ends once it has recorded its error, and
                    # then this thread takes no more chunks.
                    helper = next(thread for thread, _ in seen if thread is not caller)
                    helper.join(timeout=10)
                    assert not helper.is_alive()
                if failing in (role, "both"):
                    raise RuntimeError(f"{role} ranking failed")
            return real(*args)

        monkeypatch.setattr(evaluation, "_block_aps", ranked)
        if failing is None:
            evaluate_map(params, split, "camera")
            assert len(seen) == n_chunks
        else:
            first = "helper" if failing == "both" else failing
            with pytest.raises(RuntimeError, match=f"^{first} ranking failed$"):
                evaluate_map(params, split, "camera")
            assert len(seen) < n_chunks
        if failing in ("helper", "both"):
            assert len(seen) == 2
        assert threading.active_count() == threads
        assert len({thread for thread, _ in seen}) == 2
        assert max(count for _, count in seen) == threads + 1

    def test_block_rows_bitwise_equal_to_average_precision(self, rng):
        # Each row of a block, ranked with its excluded columns dropped, is
        # the AP of its own gallery bit for bit: same ranks, ties toward the
        # lower index, and the terms summed in rank order. Excluded columns
        # reach the helper as -inf cells, and relevant ones as (row, column)
        # pairs.
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
            pair_rows, pair_cols = np.nonzero(same_id & keep)
            got = evaluation._block_aps(given_scores, pair_rows, pair_cols)
            np.testing.assert_array_equal(got, want)

    def test_long_rows_with_shallow_ranks_bitwise_equal_to_average_precision(self, rng):
        # As above, but galleries up to 3,000 long with a few relevant items
        # scoring near the top, so each row ranks only a short head of its
        # gallery. The 0.05 grid makes relevant items tie with irrelevant
        # ones, so the sort's tie order decides ranks too.
        for trial in range(20):
            R, L = 12, int(rng.integers(130, 3000))
            scores = np.round(rng.uniform(-1, 1, size=(R, L)) * 20) / 20
            same_id = np.zeros((R, L), dtype=bool)
            for r in range(1, R):  # row 0 has nothing relevant
                cols = rng.choice(L, size=int(rng.integers(1, 5)), replace=False)
                same_id[r, cols] = True
                scores[r, cols] = np.round(rng.uniform(0.4, 1.0, size=cols.size) * 20) / 20
            excluded = np.zeros((R, L), dtype=bool) if trial % 2 else rng.random((R, L)) < 0.2
            keep = ~excluded
            want = np.full(R, np.nan)
            for r in range(R):
                order = np.argsort(-scores[r, keep[r]], kind="stable")
                relevance = same_id[r, keep[r]][order]
                if relevance.any():
                    want[r] = average_precision(relevance, int(relevance.sum()))
            given_scores = np.where(excluded, -np.inf, scores)
            pair_rows, pair_cols = np.nonzero(same_id & keep)
            got = evaluation._block_aps(given_scores, pair_rows, pair_cols)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("cols", [[0, 5, 9, 13], list(range(0, 24, 3))], ids=["4", "8"])
    def test_block_row_bitwise_equal_to_ap_oracle(self, cols):
        # A one-row block whose relevant items sit at the given ranks of a
        # 24-long gallery. The oracle adds the terms left to right, 1 + 2/6
        # + 3/10 + 4/14 for the first, and so must the row's sum; summing
        # the whole gallery's zero-padded terms, or eight terms down a
        # single column with sum(), adds them in another order.
        scores = -np.arange(24.0)[None, :]
        relevance = np.isin(np.arange(24), cols).tolist()
        got = evaluation._block_aps(scores.copy(), np.zeros(len(cols), dtype=int), np.array(cols))
        assert got[0] == oracles.ap_oracle(scores[0].tolist(), relevance)

    def test_more_rows_than_uint16_holds_rank_alike(self, rng):
        # A gallery of 3 columns lets a chunk hold 87,381 rows, more than
        # the 2**16 row numbers a uint16 sort key holds. With one relevant
        # cell per row, its AP is 1 / (1 + the cells scoring above it).
        R, L = (1 << 16) + 5, 3
        scores = rng.normal(size=(R, L))
        pair_rows, pair_cols = np.arange(R), rng.integers(L, size=R)
        relevant = scores[pair_rows, pair_cols]
        want = 1.0 / (1 + np.count_nonzero(scores > relevant[:, None], axis=1))
        got = evaluation._block_aps(scores, pair_rows, pair_cols)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("source", ["init_encoder", "load_encoder"])
    @pytest.mark.parametrize("rule", GALLERY_RULES)
    def test_non_finite_embedding_named(self, tmp_path, rule, source):
        # A NaN weight makes every embedding NaN. It is named before any
        # ranking, whether the model was built in memory or read from a
        # snapshot holding JSON NaN.
        params = init_encoder([6, 8, 8, 6], np.random.default_rng(0))
        params.biases[0][0] = np.nan
        if source == "load_encoder":
            path = tmp_path / "encoder.json"
            save_encoder(params, path)
            assert "NaN" in path.read_text()
            params = load_encoder(path)
        with pytest.raises(DegenerateEmbedding, match="an embedding is not finite"):
            evaluate_map(params, tiny_bundle().test, rule)

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
