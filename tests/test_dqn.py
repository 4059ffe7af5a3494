import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nbrattack import dqn as dqn_mod
from nbrattack import graphs as graphs_mod
from nbrattack.dqn import (AttackEpisodeConfig, QNetParams, ReplayTuple,
                           _episode_candidates, _mu_backward, _mu_forward,
                           _score_candidates, epsilon_schedule, infer_attack,
                           inference_timer, load_attacker, save_attacker,
                           step_reward, train_dqn)
from nbrattack.distortion import graph_pair_distortion
from nbrattack.embed import GinParams
from nbrattack.errors import DataError
from nbrattack.graphs import (ADD, DELETE, EdgeEdit, Graph, apply_edit,
                              candidate_edits, flip_edit, k_hop_neighborhood)
from nbrattack.numerics import finite_diff_check, rng_from_seed
from nbrattack.sbm import generate_sbm
from tests.conftest import (action_repr, make_graph, q_forward,
                            score_candidates_loop, state_repr)


def small_cfg(**kw):
    base = dict(episodes=2, steps_per_episode=3, n_step=2, gamma=0.9,
                replay_capacity=16, batch_size=4, target_fraction=0.5,
                learning_rate=0.01, hidden_dim=4, mlp_hidden=4, k=2,
                fit_every=1)
    base.update(kw)
    return AttackEpisodeConfig(**base)


def dense_mu_oracle(qnet, g):
    n = g.node_count
    a = np.zeros((n, n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    a += np.eye(n)
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    s = dinv[:, None] * a * dinv[None, :]
    h = np.asarray(g.features)
    last = len(qnet.gcn_ws) - 1
    for i, w in enumerate(qnet.gcn_ws):
        lin = s @ h @ w
        h = lin if i == last else np.maximum(lin, 0.0)
    return h


class TestConfig:
    def test_validate_rejects_bad_values(self):
        with pytest.raises(DataError):
            small_cfg(n_step=5).validate()  # > steps_per_episode
        with pytest.raises(DataError):
            small_cfg(gamma=0.0).validate()
        with pytest.raises(DataError):
            small_cfg(replay_capacity=2).validate()
        with pytest.raises(DataError):
            small_cfg(target_fraction=0.0).validate()

    def test_epsilon_schedule(self):
        assert epsilon_schedule(0) == 1.0
        assert epsilon_schedule(1) == pytest.approx(0.9)
        assert epsilon_schedule(2) == pytest.approx(0.81)
        assert epsilon_schedule(10_000) == 0.05


class TestRepresentations:
    def test_mu_matches_dense_oracle(self, small_sbm):
        qnet = QNetParams.init(small_sbm.feature_dim, small_cfg(),
                               rng_from_seed(0))
        mu, _ = _mu_forward(qnet, small_sbm)
        assert np.allclose(mu, dense_mu_oracle(qnet, small_sbm), atol=1e-12)

    def test_mu_feature_dim_check(self, small_sbm):
        qnet = QNetParams.init(small_sbm.feature_dim + 1, small_cfg(),
                               rng_from_seed(0))
        with pytest.raises(DataError):
            _mu_forward(qnet, small_sbm)

    def test_mu_backward_finite_diff(self, triangle_plus):
        qnet = QNetParams.init(triangle_plus.feature_dim, small_cfg(hidden_dim=3),
                               rng_from_seed(1))
        rng = rng_from_seed(2)
        dmu = rng.normal(size=(triangle_plus.node_count, 3))
        _, cache = _mu_forward(qnet, triangle_plus)
        grads = _mu_backward(qnet, triangle_plus, cache, dmu)
        for i in range(len(qnet.gcn_ws)):
            def loss(w, i=i):
                ws = [x.copy() for x in qnet.gcn_ws]
                ws[i] = w
                probe = QNetParams(gcn_ws=ws, w_merge=qnet.w_merge,
                                   w_out=qnet.w_out, k=qnet.k)
                mu, _ = _mu_forward(probe, triangle_plus)
                return float(np.sum(mu * dmu))
            rel = finite_diff_check(loss, qnet.gcn_ws[i], grads[f"gcn.{i}"])
            assert rel < 1e-6

    def test_state_is_hood_sum(self, small_sbm):
        qnet = QNetParams.init(small_sbm.feature_dim, small_cfg(),
                               rng_from_seed(3))
        mu, _ = _mu_forward(qnet, small_sbm)
        t = 4
        hood = sorted(k_hop_neighborhood(small_sbm, t, qnet.k))
        assert np.allclose(state_repr(qnet, small_sbm, t), mu[hood].sum(axis=0))

    def test_action_sign_flip(self, small_sbm):
        qnet = QNetParams.init(small_sbm.feature_dim, small_cfg(),
                               rng_from_seed(4))
        mu, _ = _mu_forward(qnet, small_sbm)
        add_vec = action_repr(qnet, small_sbm, 3, 7, ADD)
        del_vec = action_repr(qnet, small_sbm, 3, 7, DELETE)
        assert np.allclose(add_vec, np.concatenate([mu[3], mu[7]]))
        assert np.allclose(del_vec, -add_vec)

    def test_action_rejects_self(self, small_sbm):
        qnet = QNetParams.init(small_sbm.feature_dim, small_cfg(),
                               rng_from_seed(4))
        with pytest.raises(DataError):
            action_repr(qnet, small_sbm, 3, 3, ADD)

    def test_q_forward_hand_value(self):
        w_merge = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5], [0.0, 2.0]])
        w_out = np.array([1.0, -1.0])
        qnet = QNetParams(gcn_ws=[np.zeros((1, 1))], w_merge=w_merge,
                          w_out=w_out)
        s, a = np.array([1.0, 2.0]), np.array([0.5, -1.0])
        cat = np.concatenate([s, a])
        want = (1 / (1 + np.exp(-cat @ w_merge))) @ w_out
        assert q_forward(qnet, s, a) == pytest.approx(want, abs=1e-12)

    def test_q_forward_dim_check(self):
        qnet = QNetParams(gcn_ws=[np.zeros((1, 2))],
                          w_merge=np.zeros((6, 3)), w_out=np.zeros(3))
        with pytest.raises(DataError):
            q_forward(qnet, np.zeros(2), np.zeros(2))

    def test_score_candidates_matches_q_forward(self, small_sbm):
        qnet = QNetParams.init(small_sbm.feature_dim, small_cfg(),
                               rng_from_seed(5))
        t = 2
        mu, _ = _mu_forward(qnet, small_sbm)
        others = candidate_edits(small_sbm, t)
        hood = k_hop_neighborhood(small_sbm, t, qnet.k)
        scores = _score_candidates(qnet, mu, small_sbm, t, hood, others)
        s_vec = state_repr(qnet, small_sbm, t)
        for other, got in zip(others.tolist(), scores):
            e = flip_edit(small_sbm, t, other)
            a_vec = action_repr(qnet, small_sbm, other, t, e.sign)
            assert got == pytest.approx(q_forward(qnet, s_vec, a_vec), abs=1e-12)


    @given(st.data())
    def test_score_candidates_equals_row_loop(self, data):
        n = data.draw(st.integers(2, 12))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = make_graph(n, data.draw(st.lists(st.sampled_from(all_pairs),
                                             unique=True)), feature_dim=3,
                       seed=data.draw(st.integers(0, 9)))
        for pair in data.draw(st.lists(st.sampled_from(all_pairs), max_size=6)):
            g = apply_edit(g, flip_edit(g, *pair))
        t = data.draw(st.integers(0, n - 1))
        others = candidate_edits(g, t)
        edited = data.draw(st.sets(st.sampled_from(others.tolist())))
        others = _episode_candidates(g, t, edited, None)
        if others.size == 0:
            return
        qnet = QNetParams.init(3, small_cfg(k=data.draw(st.integers(0, 3))),
                               rng_from_seed(data.draw(st.integers(0, 9))))
        mu, _ = _mu_forward(qnet, g)
        want = score_candidates_loop(qnet, mu, g, t,
                                     [flip_edit(g, t, v) for v in others])
        hood = k_hop_neighborhood(g, t, qnet.k)
        assert np.array_equal(_score_candidates(qnet, mu, g, t, hood, others),
                              want)

    def test_score_candidates_equals_row_loop_on_readme_sbm(self):
        g = generate_sbm([50, 50], 0.3, 0.02, seed=7, feature_noise=0.5)
        qnet = QNetParams.init(g.feature_dim, small_cfg(hidden_dim=16,
                                                        mlp_hidden=16),
                               rng_from_seed(3))
        mu, _ = _mu_forward(qnet, g)
        for t in (0, 77):
            others = candidate_edits(g, t)
            want = score_candidates_loop(qnet, mu, g, t,
                                         [flip_edit(g, t, v) for v in others])
            hood = k_hop_neighborhood(g, t, qnet.k)
            assert np.array_equal(_score_candidates(qnet, mu, g, t, hood, others),
                                  want)


class TestReward:
    def test_matches_pair_distortion(self, small_sbm):
        model = GinParams.init(small_sbm.node_count, 4, 2, rng_from_seed(6))
        t = 1
        e = flip_edit(small_sbm, t, candidate_edits(small_sbm, t)[0])
        g2 = apply_edit(small_sbm, e)
        got = step_reward(model, t, k_hop_neighborhood(small_sbm, t, 2), g2,
                          k_hop_neighborhood(g2, t, 2))
        want = graph_pair_distortion(model, small_sbm, g2, t, 2).value
        assert got == pytest.approx(want, abs=1e-15)


class TestEpisodeCandidates:
    def test_excludes_edited_endpoints(self, path4):
        kept = [flip_edit(path4, 0, v)
                for v in _episode_candidates(path4, 0, {1, 3}, None)]
        others = {e.v if e.u == 0 else e.u for e in kept}
        assert others == {2}


class TestTraining:
    def test_returns_rewards_and_trains(self, small_sbm):
        model = GinParams.init(small_sbm.node_count, 4, 2, rng_from_seed(7))
        cfg = small_cfg()
        qnet0 = QNetParams.init(small_sbm.feature_dim, cfg, rng_from_seed(8))
        qnet, rewards = train_dqn(small_sbm, model, cfg, seed=8)
        assert len(rewards) == cfg.episodes
        assert all(np.isfinite(r) for r in rewards)
        # parameters moved away from a fresh init drawn with the same seed
        assert not np.allclose(qnet.w_merge, qnet0.w_merge)

    def test_deterministic(self, small_sbm):
        model = GinParams.init(small_sbm.node_count, 4, 2, rng_from_seed(7))
        q1, r1 = train_dqn(small_sbm, model, small_cfg(), seed=3)
        q2, r2 = train_dqn(small_sbm, model, small_cfg(), seed=3)
        assert r1 == r2
        for k, v in q1.param_dict().items():
            assert np.array_equal(v, q2.param_dict()[k])

    def test_respects_accessible(self, small_sbm):
        model = GinParams.init(small_sbm.node_count, 4, 2, rng_from_seed(7))
        # should not raise; every candidate pool is restricted
        train_dqn(small_sbm, model, small_cfg(episodes=1), seed=0,
                  accessible=list(range(6)))

    def test_target_nodes_pool_shapes_episodes(self, triangle_plus):
        model = GinParams.init(triangle_plus.node_count, 4, 2, rng_from_seed(7))
        # a triangle member and the pendant see different candidate sets,
        # so pinning the pool to one or the other changes the rewards
        _, r_tri = train_dqn(triangle_plus, model, small_cfg(), seed=5,
                             target_nodes=[0])
        _, r_pend = train_dqn(triangle_plus, model, small_cfg(), seed=5,
                              target_nodes=[3])
        assert r_tri != r_pend
        # and a fixed pool is reproducible
        _, again = train_dqn(triangle_plus, model, small_cfg(), seed=5,
                             target_nodes=[0])
        assert r_tri == again

    def test_fits_derive_no_graphs(self, small_sbm, monkeypatch):
        # fits read the graphs and hoods the episodes kept in the replay:
        # no fit derives a graph, and each graph builds its normalized
        # adjacency once, so builds stay within the env steps plus the base
        def refuse(*args, **kwargs):
            raise AssertionError("apply_edits called during training")

        monkeypatch.setattr(graphs_mod, "apply_edits", refuse)
        monkeypatch.setattr(dqn_mod, "apply_edits", refuse, raising=False)
        steps, builds = [0], [0]

        def counting_apply_edit(g, edit):
            steps[0] += 1
            return apply_edit(g, edit)

        build = Graph.normalized_adjacency

        def counting_build(self):
            builds[0] += self._norm_adj_csr is None
            return build(self)

        monkeypatch.setattr(dqn_mod, "apply_edit", counting_apply_edit)
        monkeypatch.setattr(Graph, "normalized_adjacency", counting_build)
        model = GinParams.init(small_sbm.node_count, 4, 2, rng_from_seed(7))
        cfg = small_cfg(episodes=4, steps_per_episode=5, batch_size=4)
        train_dqn(small_sbm, model, cfg, seed=2)
        assert steps[0] == cfg.episodes * cfg.steps_per_episode
        assert 0 < builds[0] <= steps[0] + 1

    def test_target_nodes_validated(self, triangle_plus):
        model = GinParams.init(triangle_plus.node_count, 4, 2, rng_from_seed(7))
        with pytest.raises(DataError):
            train_dqn(triangle_plus, model, small_cfg(), seed=0,
                      target_nodes=[])
        with pytest.raises(DataError):
            train_dqn(triangle_plus, model, small_cfg(), seed=0,
                      target_nodes=[triangle_plus.node_count])


class TestInference:
    def test_budget_edits_all_valid(self, small_sbm):
        qnet = QNetParams.init(small_sbm.feature_dim, small_cfg(),
                               rng_from_seed(9))
        edits = infer_attack(qnet, small_sbm, 0, 4)
        assert len(edits) == 4
        cur = small_sbm
        for e in edits:
            cur = apply_edit(cur, e)  # raises if invalid in sequence

    def test_tie_break_lowest_id_add_first(self, path4):
        # zero merge weights make every candidate score identical, so the
        # documented tie policy decides: lowest other endpoint, add < delete
        h = 2
        qnet = QNetParams(gcn_ws=[np.zeros((path4.feature_dim, h))],
                          w_merge=np.zeros((3 * h, 3)), w_out=np.ones(3), k=2)
        edits = infer_attack(qnet, path4, 2, 1)
        assert edits == [EdgeEdit(0, 2, ADD)]

    def test_prefers_higher_q(self, path4):
        # one GCN layer with all-ones weights and positive features makes
        # mu_v proportional to a positive value; w_out picks the hidden
        # unit fed by the action block, so adds toward high-mu nodes win
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)], feature_dim=1)
        feats = np.array([[1.0], [1.0], [1.0], [1.0]])
        g = type(g)(4, list(g.edges()), feats)
        h = 1
        w_merge = np.zeros((3 * h, 1))
        w_merge[1, 0] = 1.0  # only mu[v] (signed) feeds the hidden unit
        qnet = QNetParams(gcn_ws=[np.ones((1, h))], w_merge=w_merge,
                          w_out=np.ones(1), k=2)
        mu, _ = _mu_forward(qnet, g)
        t = 0
        cands = [flip_edit(g, t, v) for v in candidate_edits(g, t)]
        cands.sort(key=lambda e: ((e.v if e.u == t else e.u), e.sign))
        signed = []
        for e in cands:
            v = e.v if e.u == t else e.u
            sgn = 1.0 if e.sign == ADD else -1.0
            signed.append(sgn * mu[v, 0])
        want = cands[int(np.argmax(1 / (1 + np.exp(-np.asarray(signed)))))]
        assert infer_attack(qnet, g, t, 1) == [want]

    def test_zero_budget(self, path4):
        qnet = QNetParams.init(path4.feature_dim, small_cfg(), rng_from_seed(0))
        assert infer_attack(qnet, path4, 0, 0) == []

    def test_timer_rows(self, small_sbm):
        qnet = QNetParams.init(small_sbm.feature_dim, small_cfg(),
                               rng_from_seed(1))
        rows = inference_timer(qnet, small_sbm, targets=[0, 1], budgets=[1, 2],
                               repeats=1)
        assert len(rows) == 4
        assert all(r["seconds"] > 0 for r in rows)
        assert rows[0]["target"] == 0 and rows[0]["budget"] == 1


class TestPersistence:
    def test_round_trip_preserves_scores(self, tmp_path, small_sbm):
        qnet = QNetParams.init(small_sbm.feature_dim, small_cfg(),
                               rng_from_seed(2))
        save_attacker(tmp_path / "a.bin", qnet)
        out = load_attacker(tmp_path / "a.bin")
        assert out.k == qnet.k and out.n_step == qnet.n_step
        assert out.gamma == qnet.gamma
        e1 = infer_attack(qnet, small_sbm, 0, 3)
        e2 = infer_attack(out, small_sbm, 0, 3)
        assert e1 == e2

    def test_wrong_kind(self, tmp_path):
        from nbrattack.io import write_blob
        write_blob(tmp_path / "x.bin", {"kind": "other"}, {"a": np.zeros(2)})
        with pytest.raises(DataError):
            load_attacker(tmp_path / "x.bin")

    def test_replay_tuple_frozen(self, path4):
        g_next = apply_edit(path4, EdgeEdit(0, 2, ADD))
        rt = ReplayTuple(0, (), EdgeEdit(0, 2, ADD), 0.5,
                         (EdgeEdit(0, 2, ADD),), path4,
                         k_hop_neighborhood(path4, 0, 2), g_next,
                         k_hop_neighborhood(g_next, 0, 2))
        with pytest.raises(AttributeError):
            rt.target = 3
