"""Argmin pair matching and the two-branch topology scoring heads."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import expit as sigmoid

import lanetopo as lt
from lanetopo import heads
from lanetopo.connect import ConnectedLane
from lanetopo.heads import (
    PAIR_BLOCK,
    MatchPair,
    TopologyHeadParams,
    predict_ll_backward,
    predict_ll_cached,
)
from lanetopo.geometry import L1_CHUNK, avg_l1_matrix
from lanetopo.nn import MlpParams, mlp_forward, param_arrays
from conftest import chain_scene, point_stack, straight_lane
from oracles import (
    avg_l1_scalar,
    match_connected_loops,
    predict_ll_concat,
    predict_ll_concat_backward,
    predict_lt_concat,
    random_polyline,
)


def zero_mlp(widths):
    return MlpParams(weights=[np.zeros((a, b)) for a, b in zip(widths[:-1], widths[1:])],
                     biases=[np.zeros(b) for b in widths[1:]])


def zero_head(c):
    branch, head = (c, c, c), (2 * c, c, 1)
    return TopologyHeadParams(
        match_i=zero_mlp(branch), match_j=zero_mlp(branch),
        unmatch_i=zero_mlp(branch), unmatch_j=zero_mlp(branch),
        ll_score=zero_mlp(head), lt_lane=zero_mlp(branch),
        lt_traffic=zero_mlp(branch), lt_score=zero_mlp(head),
    )


def match(lanes, connected):
    return lt.match_connected(*lt.half_distances(point_stack(lanes), point_stack(connected)))


class TestMatchConnected:
    def test_chain_pair_recovered(self):
        scene = chain_scene()
        conn = lt.build_connected_gt(scene)
        pairs = match(scene.lanes, conn)
        assert pairs == [MatchPair(conn=0, i=0, j=1)]

    def test_recovery_on_generated_scenes(self):
        for seed in range(5):
            scene = lt.generate_scene(lt.SynthParams(n_corridors=3, n_segments=3,
                                                     split_prob=0.4, merge_prob=0.4,
                                                     seed=seed))
            conn = lt.build_connected_gt(scene)
            pairs = match(scene.lanes, conn)
            assert [(p.i, p.j) for p in pairs] == [c.source for c in conn]

    def test_tie_breaks_toward_lower_index(self):
        lane = straight_lane(0.0, 20.0, 5.0)
        lanes = [lane, lt.Polyline3D(lane.points.copy())]
        curve = straight_lane(0.0, 20.0, 0.0)
        pairs = match(lanes, [ConnectedLane(source=(-1, -1), curve=curve)])
        assert pairs == [MatchPair(conn=0, i=0, j=0)]

    def test_index_covariance_under_reordering(self):
        scene = chain_scene()
        conn = lt.build_connected_gt(scene)
        far = straight_lane(0.0, 10.0, 40.0)
        assert match([scene.lanes[0], scene.lanes[1], far], conn) \
            == [MatchPair(conn=0, i=0, j=1)]
        assert match([scene.lanes[1], scene.lanes[0], far], conn) \
            == [MatchPair(conn=0, i=1, j=0)]

    def test_empty_connected_gives_empty_list(self):
        scene = chain_scene()
        assert match(scene.lanes, []) == []

    def test_empty_lane_list_raises(self):
        scene = chain_scene()
        conn = lt.build_connected_gt(scene)
        with pytest.raises(ValueError, match="empty lane list"):
            match([], conn)


class TestMatchConnectedOracle:
    @pytest.mark.parametrize("n_pts", [3, 8, 11, 20])
    def test_bitwise_equal_to_loop_oracle(self, n_pts):
        rng = np.random.default_rng(n_pts)
        lanes = [lt.Polyline3D(random_polyline(rng, n_pts)) for _ in range(23)]
        conn = [ConnectedLane(source=(-1, -1), curve=lt.Polyline3D(random_polyline(rng, n_pts)))
                for _ in range(L1_CHUNK // 10 + 3)]
        assert match(lanes, conn) == match_connected_loops(lanes, conn)

    def test_two_point_distances_match_the_argmin(self):
        # 2-point curves cannot be split, so feed the kernel's matrices directly
        rng = np.random.default_rng(3)
        L = np.stack([random_polyline(rng, 2) for _ in range(30)])
        H1 = np.stack([random_polyline(rng, 2) for _ in range(20)])
        H2 = np.stack([random_polyline(rng, 2) for _ in range(20)])
        pairs = lt.match_connected(avg_l1_matrix(L, H1), avg_l1_matrix(L, H2))
        expected = [(c, int(np.argmin([avg_l1_scalar(a, H1[c]) for a in L])),
                     int(np.argmin([avg_l1_scalar(a, H2[c]) for a in L])))
                    for c in range(20)]
        assert pairs == expected

    def test_exact_ties_across_chunks_pick_the_lower_index(self):
        # every lane appears twice, the copies more than L1_CHUNK lanes
        # apart, so the tied minima fall in different row chunks of the kernel
        scene = lt.generate_scene(lt.SynthParams(n_corridors=3, n_segments=3, split_prob=0.4,
                                                 merge_prob=0.4, seed=1))
        conn = lt.build_connected_gt(scene)
        far = [straight_lane(0.0, 20.0, 100.0 + 5.0 * k) for k in range(L1_CHUNK)]
        lanes = list(scene.lanes) + far + list(scene.lanes)
        d_front, _ = lt.half_distances(point_stack(lanes), point_stack(conn))
        k = len(scene.lanes) + len(far)
        assert np.array_equal(d_front[:len(scene.lanes)], d_front[k:])
        pairs = match(lanes, conn)
        assert [(p.i, p.j) for p in pairs] == [c.source for c in conn]
        assert pairs == match_connected_loops(lanes, conn)

    def test_empty_sides_behave_like_the_oracle(self):
        scene = chain_scene()
        conn = lt.build_connected_gt(scene)
        assert match(scene.lanes, []) == match_connected_loops(scene.lanes, []) == []
        for fn in (match, match_connected_loops):
            with pytest.raises(ValueError, match="empty lane list"):
                fn([], conn)


class TestPredictLl:
    def test_zero_parameters_score_half_everywhere(self):
        c, n = 8, 4
        rng = np.random.default_rng(0)
        q = rng.normal(size=(n, c))
        qc = rng.normal(size=(2, c))
        pairs = [MatchPair(conn=0, i=0, j=1), MatchPair(conn=1, i=2, j=3)]
        scores = predict_ll_cached(zero_head(c), q, qc, pairs)[0]
        assert np.array_equal(scores, np.full((n, n), 0.5))

    def test_unmatched_branch_composition(self):
        c, n = 8, 3
        rng = np.random.default_rng(1)
        params = TopologyHeadParams.init(c, rng)
        q = rng.normal(size=(n, c))
        scores = predict_ll_cached(params, q, np.zeros((0, c)), [])[0]
        u1 = mlp_forward(params.unmatch_i, q)
        u2 = mlp_forward(params.unmatch_j, q)
        for i in range(n):
            for j in range(n):
                feat = np.concatenate([u1[i], u2[j]])[None, :]
                logit = mlp_forward(params.ll_score, feat)[0, 0]
                assert scores[i, j] == pytest.approx(sigmoid(logit), abs=1e-15)

    def test_matched_branch_composition(self):
        c = 8
        rng = np.random.default_rng(2)
        params = TopologyHeadParams.init(c, rng)
        q = rng.normal(size=(3, c))
        qc = rng.normal(size=(1, c))
        pair = MatchPair(conn=0, i=0, j=2)
        scores = predict_ll_cached(params, q, qc, [pair])[0]
        m1 = mlp_forward(params.match_i, (qc[0] + q[0])[None, :])
        m2 = mlp_forward(params.match_j, (qc[0] + q[2])[None, :])
        logit = mlp_forward(params.ll_score, np.concatenate([m1, m2], axis=1))[0, 0]
        assert scores[0, 2] == pytest.approx(sigmoid(logit), abs=1e-15)

    def test_matched_entry_differs_from_unmatched_default(self):
        c = 8
        rng = np.random.default_rng(3)
        params = TopologyHeadParams.init(c, rng)
        q = rng.normal(size=(3, c))
        qc = rng.normal(size=(1, c))
        base = predict_ll_cached(params, q, np.zeros((0, c)), [])[0]
        with_pair = predict_ll_cached(params, q, qc, [MatchPair(conn=0, i=0, j=2)])[0]
        assert with_pair[0, 2] != base[0, 2]
        mask = np.ones((3, 3), dtype=bool)
        mask[0, 2] = False
        assert np.array_equal(with_pair[mask], base[mask])

    def test_duplicate_pairs_keep_the_maximum(self):
        c = 8
        rng = np.random.default_rng(4)
        params = TopologyHeadParams.init(c, rng)
        q = rng.normal(size=(3, c))
        qc = rng.normal(size=(2, c))
        solo0 = predict_ll_cached(params, q, qc, [MatchPair(conn=0, i=1, j=2)])[0][1, 2]
        solo1 = predict_ll_cached(params, q, qc, [MatchPair(conn=1, i=1, j=2)])[0][1, 2]
        both = predict_ll_cached(params, q, qc, [MatchPair(conn=0, i=1, j=2),
                                                 MatchPair(conn=1, i=1, j=2)])[0][1, 2]
        assert both == max(solo0, solo1)

    def test_scores_strictly_inside_unit_interval(self):
        c = 8
        rng = np.random.default_rng(5)
        params = TopologyHeadParams.init(c, rng)
        q = rng.normal(size=(5, c))
        qc = rng.normal(size=(2, c))
        pairs = [MatchPair(conn=0, i=0, j=1), MatchPair(conn=1, i=3, j=4)]
        scores = predict_ll_cached(params, q, qc, pairs)[0]
        assert np.all(scores > 0.0)
        assert np.all(scores < 1.0)

    def test_diagonal_is_scored_like_any_pair(self):
        # zeroing the diagonal is the caller's job at graph assembly
        c = 8
        rng = np.random.default_rng(6)
        params = TopologyHeadParams.init(c, rng)
        q = rng.normal(size=(2, c))
        scores = predict_ll_cached(params, q, np.zeros((0, c)), [])[0]
        assert scores[0, 0] != 0.0


class TestPredictLt:
    def test_zero_traffic_gives_empty_matrix(self):
        c = 8
        rng = np.random.default_rng(7)
        params = TopologyHeadParams.init(c, rng)
        out = lt.predict_lt(rng.normal(size=(4, c)), np.zeros((0, c)), params)
        assert out.shape == (4, 0)

    def test_zero_parameters_score_half(self):
        c = 8
        rng = np.random.default_rng(8)
        out = lt.predict_lt(rng.normal(size=(3, c)), rng.normal(size=(2, c)),
                            zero_head(c))
        assert np.array_equal(out, np.full((3, 2), 0.5))

    def test_composition(self):
        c = 8
        rng = np.random.default_rng(9)
        params = TopologyHeadParams.init(c, rng)
        q = rng.normal(size=(3, c))
        qt = rng.normal(size=(2, c))
        out = lt.predict_lt(q, qt, params)
        lf = mlp_forward(params.lt_lane, q)
        tf = mlp_forward(params.lt_traffic, qt)
        for i in range(3):
            for t in range(2):
                feat = np.concatenate([lf[i], tf[t]])[None, :]
                logit = mlp_forward(params.lt_score, feat)[0, 0]
                assert out[i, t] == pytest.approx(sigmoid(logit), abs=1e-15)


class TestPredictLlBackward:
    def test_matches_central_differences(self):
        c, n, n_conn = 6, 3, 2
        rng = np.random.default_rng(12)
        params = TopologyHeadParams.init(c, rng)
        q = rng.normal(size=(n, c))
        qc = rng.normal(size=(n_conn, c))
        # two candidates collide on (0, 1) to exercise winner routing
        pairs = [MatchPair(conn=0, i=0, j=1), MatchPair(conn=1, i=0, j=1),
                 MatchPair(conn=1, i=2, j=0)]

        def loss():
            s, _ = predict_ll_cached(params, q, qc, pairs)
            return float(np.sum(s ** 2))

        scores, cache = predict_ll_cached(params, q, qc, pairs)
        gq, gqc, grads = predict_ll_backward(params, cache, 2.0 * scores)

        eps = 1e-6
        checked = {"q": (q, gq), "qc": (qc, gqc),
                   "match_i.w0": (params.match_i.weights[0], grads.match_i.weights[0]),
                   "unmatch_j.b0": (params.unmatch_j.biases[0], grads.unmatch_j.biases[0]),
                   "ll_score.w1": (params.ll_score.weights[1], grads.ll_score.weights[1])}
        for name, (arr, g) in checked.items():
            flat = arr.reshape(-1)
            gflat = np.asarray(g).reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp = loss()
                flat[idx] = orig - eps
                lm = loss()
                flat[idx] = orig
                fd = (lp - lm) / (2.0 * eps)
                rel = abs(fd - gflat[idx]) / max(1.0, abs(fd), abs(gflat[idx]))
                assert rel < 1e-4, f"{name}[{idx}]: fd={fd} analytic={gflat[idx]}"


# The factored first layer sums the a and b halves of each dot product
# separately, and the backward sums the hidden-layer gradient per row block,
# so both heads agree with the concatenated ones to rounding only: scores
# within 1e-15 absolute (1.1e-16 seen), every gradient array within 1e-12
# of its largest entry (6.8e-15 seen).
SCORE_TOL = dict(rtol=0.0, atol=1e-15)
GRAD_TOL = 1e-12

# blocks of ROWS rows, and grids one row short of a block, one row past it,
# and three rows past two blocks
ROWS = 5
EDGE_ROWS = [ROWS - 1, ROWS + 1, 2 * ROWS + 3]


def ll_case(n, n_conn, c, seed):
    rng = np.random.default_rng(seed)
    params = TopologyHeadParams.init(c, rng)
    q, qc = rng.normal(size=(n, c)), rng.normal(size=(n_conn, c))
    pairs = [MatchPair(conn=int(rng.integers(n_conn)), i=int(rng.integers(n)),
                       j=int(rng.integers(n))) for _ in range(n_conn)]
    return params, q, qc, pairs


def assert_grads_close(got, want):
    gq, gqc, grads = got
    oq, oqc, ograds = want
    grads, ograds = param_arrays(grads), param_arrays(ograds)
    assert list(grads) == list(ograds)
    for key, a, b in [("q", gq, oq), ("qc", gqc, oqc)] + [(k, grads[k], ograds[k]) for k in grads]:
        assert a.shape == b.shape, key
        assert np.abs(a - b).max() <= GRAD_TOL * np.abs(b).max(), key


class TestFactoredHeadsMatchConcatOracle:
    @pytest.mark.parametrize("n", EDGE_ROWS)
    def test_ll_forward_and_backward_across_block_edges(self, monkeypatch, n):
        monkeypatch.setattr(heads, "PAIR_BLOCK", ROWS * n)
        params, q, qc, pairs = ll_case(n, 3, 6, seed=n)
        scores, cache = predict_ll_cached(params, q, qc, pairs)
        oscores, ocache = predict_ll_concat(params, q, qc, pairs)
        np.testing.assert_allclose(scores, oscores, **SCORE_TOL)
        g = np.random.default_rng(n + 100).normal(size=(n, n))
        assert_grads_close(predict_ll_backward(params, cache, g),
                           predict_ll_concat_backward(params, ocache, g, len(qc)))

    def test_ll_past_the_real_block(self):
        n = 50
        assert n * n > PAIR_BLOCK
        params, q, qc, pairs = ll_case(n, 20, 8, seed=1)
        scores, cache = predict_ll_cached(params, q, qc, pairs)
        oscores, ocache = predict_ll_concat(params, q, qc, pairs)
        np.testing.assert_allclose(scores, oscores, **SCORE_TOL)
        g = np.random.default_rng(2).normal(size=(n, n))
        assert_grads_close(predict_ll_backward(params, cache, g),
                           predict_ll_concat_backward(params, ocache, g, len(qc)))

    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("n", EDGE_ROWS)
    def test_lt_across_block_edges(self, monkeypatch, n, t):
        monkeypatch.setattr(heads, "PAIR_BLOCK", ROWS * t)
        rng = np.random.default_rng(10 * n + t)
        params = TopologyHeadParams.init(6, rng)
        q, qt = rng.normal(size=(n, 6)), rng.normal(size=(t, 6))
        np.testing.assert_allclose(lt.predict_lt(q, qt, params),
                                   predict_lt_concat(q, qt, params), **SCORE_TOL)

    def test_cache_holds_no_pair_hidden_layer(self):
        n, c = 7, 6
        params, q, qc, pairs = ll_case(n, 3, c, seed=3)
        _, cache = predict_ll_cached(params, q, qc, pairs)

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    yield from arrays(item)

        # the largest array kept is the (n, n) score matrix itself
        assert max(a.size for a in arrays(cache)) == n * n


class TestMatchedBranchIsTheLoopOracle:
    """Index arrays resolve and scatter the matched candidates bitwise as
    the one-candidate-at-a-time loops do."""

    def collide(self, seed):
        # 60 candidates on 4 lanes: nearly every (i, j) repeats, and rows 0
        # and 1 of qc are equal, so the candidates (0, i, j) and (1, i, j)
        # tie exactly; conn order varies, so the lowest index is not
        # always conn 0
        rng = np.random.default_rng(seed)
        c, n = 6, 4
        params = TopologyHeadParams.init(c, rng)
        q = rng.normal(size=(n, c))
        qc = rng.normal(size=(3, c))
        qc[1] = qc[0]
        pairs = [MatchPair(conn=int(rng.integers(3)), i=int(rng.integers(n)),
                           j=int(rng.integers(n))) for _ in range(60)]
        return params, q, qc, pairs

    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_on_collisions_and_exact_ties(self, seed):
        params, q, qc, pairs = self.collide(seed)
        scores, cache = predict_ll_cached(params, q, qc, pairs)
        oscores, ocache = predict_ll_concat(params, q, qc, pairs)
        win = {(p.i, p.j) for p in pairs}
        assert len(win) < len(pairs)
        i, j = np.array(sorted(win)).T
        assert np.array_equal(scores[i, j], oscores[i, j])
        # winners: the oracle's dict of (i, j) -> first maximal candidate
        assert sorted(cache.matched.win.tolist()) == sorted(ocache[6].values())
        # a gradient on the matched entries only leaves the unmatched
        # branch at exact zeros, so every gradient is comparable bitwise
        g = np.zeros_like(scores)
        g[i, j] = np.random.default_rng(seed).normal(size=len(i))
        gq, gqc, grads = predict_ll_backward(params, cache, g)
        oq, oqc, ograds = predict_ll_concat_backward(params, ocache, g, len(qc))
        assert np.array_equal(gq, oq)
        assert np.array_equal(gqc, oqc)
        grads, ograds = param_arrays(grads), param_arrays(ograds)
        assert list(grads) == list(ograds)
        for key in grads:
            assert np.array_equal(grads[key], ograds[key]), key

    def test_tie_goes_to_the_lower_candidate_index(self):
        params, q, qc, _ = self.collide(0)
        for first, second in ((0, 1), (1, 0)):
            pairs = [MatchPair(conn=first, i=2, j=3), MatchPair(conn=second, i=2, j=3)]
            scores, cache = predict_ll_cached(params, q, qc, pairs)
            assert cache.matched.win.tolist() == [0]
            g = np.zeros_like(scores)
            g[2, 3] = 1.0
            _, gqc, _ = predict_ll_backward(params, cache, g)
            assert np.any(gqc[first] != 0.0)
            assert np.all(gqc[second] == 0.0)


class TestPairHeadMemory:
    def test_predict_ll_peak_is_far_below_the_pair_tensor(self):
        n, c = 400, 32
        params, q, qc, pairs = ll_case(n, n - 10, c, seed=4)
        predict_ll_cached(params, q, qc, pairs)  # warm caches and imports
        tracemalloc.start()
        try:
            predict_ll_cached(params, q, qc, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pair_tensor = n * n * 2 * c * 8
        # the (n, n) scores and logits plus a few (PAIR_BLOCK, c) blocks
        assert peak < pair_tensor / 10, (peak, pair_tensor)


class TestPredictLlBackwardPastOneBlock:
    def test_central_differences_on_sampled_entries(self):
        n, n_conn, c = 48, 12, 6
        assert n * n > PAIR_BLOCK
        params, q, qc, pairs = ll_case(n, n_conn, c, seed=21)
        pairs += pairs[:4]  # some duplicate candidates too

        def loss():
            s, _ = predict_ll_cached(params, q, qc, pairs)
            return float(np.sum(s ** 2))

        scores, cache = predict_ll_cached(params, q, qc, pairs)
        gq, gqc, grads = predict_ll_backward(params, cache, 2.0 * scores)
        checked = {"q": (q, gq), "qc": (qc, gqc)}
        arrays, grads = param_arrays(params), param_arrays(grads)
        for key in ("ll_score.w0", "ll_score.b0", "ll_score.w1",
                    "unmatch_i.w0", "unmatch_j.b1", "match_i.w0"):
            checked[key] = (arrays[key], grads[key])
        rng = np.random.default_rng(22)
        eps = 1e-6
        for name, (arr, g) in checked.items():
            flat, gflat = arr.reshape(-1), np.asarray(g).reshape(-1)
            for idx in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp = loss()
                flat[idx] = orig - eps
                lm = loss()
                flat[idx] = orig
                fd = (lp - lm) / (2.0 * eps)
                rel = abs(fd - gflat[idx]) / max(1.0, abs(fd), abs(gflat[idx]))
                assert rel < 1e-5, f"{name}[{idx}]: fd={fd} analytic={gflat[idx]}"
