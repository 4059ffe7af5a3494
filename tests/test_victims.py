import numpy as np
import pytest
import scipy.sparse as sp

from nbrattack.errors import DataError
from nbrattack.graphs import Graph, candidate_edits, flip_edit
from nbrattack.numerics import rng_from_seed, softmax_rows
from nbrattack.sbm import generate_sbm
from nbrattack.victims import (SplitSpec, VictimBundle, VictimConfig,
                               VictimModel, _init_params,
                               _row_normalized_adjacency, _task_correct,
                               _task_loss, _victim_backward, drop_in_accuracy,
                               evaluate_batch, evaluate_target, make_split,
                               run_benchmark, train_victim, victim_forward)
from tests.conftest import finite_diff_check, make_graph


@pytest.fixture(scope="module")
def bench_graph():
    return generate_sbm([15, 15], 0.5, 0.05, seed=7)


@pytest.fixture(scope="module")
def trained(bench_graph):
    split = make_split(bench_graph, "nc", SplitSpec(0.3, 0.2, 0.5), seed=0)
    cfg = VictimConfig(hidden_dim=8, epochs=60, patience=20,
                       learning_rate=0.02)
    model = train_victim(bench_graph, "nc", split, cfg, seed=0)
    return VictimBundle(name="gcn-nc", model=model, split=split)


class TestSplits:
    def test_nc_parts_disjoint_and_sized(self, bench_graph):
        spec = SplitSpec(0.2, 0.2, 0.6)
        split = make_split(bench_graph, "nc", spec, seed=0)
        parts = [set(split.train.tolist()), set(split.val.tolist()),
                 set(split.test.tolist())]
        assert not (parts[0] & parts[1] or parts[0] & parts[2]
                    or parts[1] & parts[2])
        assert len(split.train) == round(0.2 * bench_graph.node_count)

    def test_nc_needs_labels(self):
        g = make_graph(20, [(i, i + 1) for i in range(19)])
        with pytest.raises(DataError):
            make_split(g, "nc", SplitSpec(), seed=0)

    def test_lp_balanced_and_valid(self, bench_graph):
        split = make_split(bench_graph, "lp", SplitSpec(0.2, 0.2, 0.6), seed=1)
        for part in (split.train, split.val, split.test):
            pos = part[part[:, 2] == 1]
            neg = part[part[:, 2] == 0]
            assert len(pos) == len(neg)
            for u, v, _ in pos:
                assert bench_graph.has_edge(int(u), int(v))
            for u, v, _ in neg:
                assert not bench_graph.has_edge(int(u), int(v))

    def test_lp_positives_disjoint_across_parts(self, bench_graph):
        split = make_split(bench_graph, "lp", SplitSpec(0.2, 0.2, 0.6), seed=2)
        def pos_set(part):
            return {(min(u, v), max(u, v)) for u, v, y in part if y == 1}
        a, b, c = map(pos_set, (split.train, split.val, split.test))
        assert not (a & b or a & c or b & c)

    def test_pnc_pairs_labelled_by_class(self, bench_graph):
        split = make_split(bench_graph, "pnc", SplitSpec(0.2, 0.2, 0.6), seed=3)
        labels = bench_graph.labels
        for part in (split.train, split.val, split.test):
            same = part[part[:, 2] == 1]
            diff = part[part[:, 2] == 0]
            assert len(same) == len(diff) > 0
            assert all(labels[u] == labels[v] for u, v, _ in same)
            assert all(labels[u] != labels[v] for u, v, _ in diff)

    def test_bad_fractions(self, bench_graph):
        with pytest.raises(DataError):
            make_split(bench_graph, "nc", SplitSpec(0.5, 0.6, 0.2), seed=0)

    def test_unknown_task(self, bench_graph):
        with pytest.raises(DataError):
            make_split(bench_graph, "gc", SplitSpec(), seed=0)

    def test_deterministic(self, bench_graph):
        s1 = make_split(bench_graph, "lp", SplitSpec(), seed=5)
        s2 = make_split(bench_graph, "lp", SplitSpec(), seed=5)
        assert np.array_equal(s1.train, s2.train)
        assert np.array_equal(s1.test, s2.test)


class TestForward:
    def test_gcn_matches_dense_oracle(self, small_sbm):
        params = _init_params("gcn", small_sbm.feature_dim, 5, 3,
                              rng_from_seed(0))
        out, _ = victim_forward("gcn", params, small_sbm)
        n = small_sbm.node_count
        a = np.zeros((n, n))
        for u, v in small_sbm.edges():
            a[u, v] = a[v, u] = 1.0
        a += np.eye(n)
        dinv = 1.0 / np.sqrt(a.sum(axis=1))
        s = dinv[:, None] * a * dinv[None, :]
        x = np.asarray(small_sbm.features)
        h1 = np.maximum(s @ x @ params["w1"] + params["b1"], 0.0)
        want = s @ h1 @ params["w2"] + params["b2"]
        assert np.allclose(out, want, atol=1e-12)

    def test_mean_aggregator_matches_dense_oracle(self, small_sbm):
        params = _init_params("mean-aggregator", small_sbm.feature_dim, 5, 3,
                              rng_from_seed(1))
        out, _ = victim_forward("mean-aggregator", params, small_sbm)
        n = small_sbm.node_count
        a = np.zeros((n, n))
        for u, v in small_sbm.edges():
            a[u, v] = a[v, u] = 1.0
        deg = a.sum(axis=1)
        m = np.divide(a, deg[:, None], out=np.zeros_like(a),
                      where=deg[:, None] > 0)
        x = np.asarray(small_sbm.features)
        h1 = np.maximum(x @ params["ws1"] + m @ x @ params["wn1"]
                        + params["b1"], 0.0)
        want = h1 @ params["ws2"] + m @ h1 @ params["wn2"] + params["b2"]
        assert np.allclose(out, want, atol=1e-12)

    def test_isolated_node_mean_aggregator(self, triangle_plus):
        # node 4 is isolated: its neighborhood mean must be a zero row,
        # not a division blow-up
        params = _init_params("mean-aggregator", triangle_plus.feature_dim,
                              4, 2, rng_from_seed(2))
        out, _ = victim_forward("mean-aggregator", params, triangle_plus)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("graph", ["small_sbm", "triangle_plus"])
    def test_row_normalized_adjacency_matches_product(self, graph, request):
        # reference: diag(1/deg) @ A as a sparse product; its index order
        # fixes the summation order of m @ x, so compare arrays exactly
        g = request.getfixturevalue(graph)
        a = g.adjacency()
        deg = np.asarray(a.sum(axis=1)).ravel()
        scale = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
        want = (sp.diags(scale) @ a).tocsr()
        got = _row_normalized_adjacency(g)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_unknown_kind(self, small_sbm):
        with pytest.raises(DataError):
            victim_forward("gat", {}, small_sbm)


class TestTaskLoss:
    def test_nc_matches_manual_cross_entropy(self, small_sbm):
        rng = rng_from_seed(3)
        out = rng.normal(size=(small_sbm.node_count, 2))
        nodes = np.array([0, 3, 7])
        loss, dout = _task_loss("nc", out, nodes, small_sbm.labels)
        probs = softmax_rows(out[nodes])
        want = -np.mean([np.log(probs[i, small_sbm.labels[nodes[i]]])
                         for i in range(len(nodes))])
        assert loss == pytest.approx(want, abs=1e-12)
        # untouched rows get zero gradient
        mask = np.ones(small_sbm.node_count, dtype=bool)
        mask[nodes] = False
        assert not dout[mask].any()

    def test_pair_loss_matches_manual_bce(self):
        rng = rng_from_seed(4)
        out = rng.normal(size=(6, 3))
        rows = np.array([[0, 1, 1], [2, 3, 0], [4, 5, 1]])
        loss, _ = _task_loss("lp", out, rows, None)
        want = 0.0
        for u, v, y in rows:
            s = out[u] @ out[v]
            p = 1 / (1 + np.exp(-s))
            want += -np.log(p) if y else -np.log(1 - p)
        assert loss == pytest.approx(want / 3, abs=1e-10)

    def test_pair_gradient_finite_diff(self):
        rng = rng_from_seed(5)
        out = rng.normal(size=(5, 2))
        rows = np.array([[0, 1, 1], [1, 2, 0], [3, 4, 1]])

        def loss_fn(o):
            return _task_loss("lp", o, rows, None)[0]

        _, dout = _task_loss("lp", out, rows, None)
        assert finite_diff_check(loss_fn, out, dout) < 1e-6

    def test_correctness_predicates(self):
        out = np.array([[2.0, -1.0], [0.1, 0.4]])
        labels = np.array([0, 0])
        got = _task_correct("nc", out, np.array([0, 1]), labels)
        assert got.tolist() == [True, False]
        # pair task: positive pair with aligned embeddings scores >= 0.5
        out2 = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        rows = np.array([[0, 1, 1], [0, 2, 1], [0, 2, 0]])
        got2 = _task_correct("lp", out2, rows, None)
        assert got2.tolist() == [True, False, True]


class TestTraining:
    @pytest.mark.parametrize("kind", ["gcn", "mean-aggregator"])
    @pytest.mark.parametrize("task", ["nc", "lp", "pnc"])
    def test_trains_above_chance(self, bench_graph, kind, task):
        split = make_split(bench_graph, task, SplitSpec(0.3, 0.2, 0.5), seed=0)
        cfg = VictimConfig(kind=kind, hidden_dim=8, out_dim=8, epochs=120,
                           patience=40, learning_rate=0.02)
        model = train_victim(bench_graph, task, split, cfg, seed=0)
        assert model.trained
        acc = float(np.mean(evaluate_batch(model, bench_graph, split.test)))
        assert acc > 0.6  # two balanced classes -> chance is 0.5

    def test_deterministic(self, bench_graph):
        split = make_split(bench_graph, "nc", SplitSpec(0.3, 0.2, 0.5), seed=1)
        cfg = VictimConfig(hidden_dim=6, epochs=20, patience=10)
        m1 = train_victim(bench_graph, "nc", split, cfg, seed=4)
        m2 = train_victim(bench_graph, "nc", split, cfg, seed=4)
        assert m1.param_bytes() == m2.param_bytes()

    def test_nc_out_dim_is_class_count(self, bench_graph):
        split = make_split(bench_graph, "nc", SplitSpec(0.3, 0.2, 0.5), seed=0)
        cfg = VictimConfig(hidden_dim=6, epochs=5, patience=5)
        model = train_victim(bench_graph, "nc", split, cfg, seed=0)
        assert model.out_dim == int(bench_graph.labels.max()) + 1

    def test_untrained_model_rejected(self, bench_graph):
        model = VictimModel(kind="gcn", task="nc", params={}, out_dim=2,
                            trained=False)
        with pytest.raises(DataError):
            evaluate_batch(model, bench_graph, np.array([0]))


class TestDropInAccuracy:
    def test_exact_values(self):
        assert drop_in_accuracy(0.8, 0.2) == pytest.approx(75.0)
        assert drop_in_accuracy(1.0, 1.0) == 0.0
        assert drop_in_accuracy(0.816, 0.192) == pytest.approx(
            (0.816 - 0.192) / 0.816 * 100.0)

    def test_zero_original_rejected(self):
        with pytest.raises(DataError):
            drop_in_accuracy(0.0, 0.0)


class TestBenchmark:
    def _attackers(self):
        def first_candidate(g, t, budget, seed):
            return [flip_edit(g, t, v) for v in candidate_edits(g, t)[:budget]]

        def no_op(g, t, budget, seed):
            return []

        return {"first": first_candidate, "noop": no_op}

    def test_report_structure(self, bench_graph, trained):
        report = run_benchmark(bench_graph, self._attackers(), [trained],
                               budgets=[1, 2], num_targets=5, seed=0)
        assert report.metadata["attackers"] == ["first", "noop"]
        assert len(report.cells) == 4  # 2 attackers x 2 budgets
        for cell in report.cells:
            assert cell["victim"] == "gcn-nc"
            assert len(cell["targets"]) == 5
            assert 0.0 <= cell["orig_accuracy"] <= 1.0
            for row in cell["targets"]:
                assert row["graph_distance"] <= cell["budget"]
        doc = report.to_json_dict()
        assert "timings" not in doc

    def test_noop_attacker_keeps_accuracy(self, bench_graph, trained):
        report = run_benchmark(bench_graph, {"noop": lambda g, t, b, s: []},
                               [trained], budgets=[3], num_targets=6, seed=1)
        cell = report.cells[0]
        assert cell["attacked_accuracy"] == cell["orig_accuracy"]
        assert cell["da_percent"] == pytest.approx(0.0)

    def test_same_targets_across_attackers_and_budgets(self, bench_graph,
                                                       trained):
        report = run_benchmark(bench_graph, self._attackers(), [trained],
                               budgets=[1, 2], num_targets=4, seed=2)
        picks = [[row["attacked_node"] for row in cell["targets"]]
                 for cell in report.cells]
        assert all(p == picks[0] for p in picks)

    def test_deterministic(self, bench_graph, trained):
        kw = dict(budgets=[1], num_targets=4, seed=3)
        r1 = run_benchmark(bench_graph, self._attackers(), [trained], **kw)
        r2 = run_benchmark(bench_graph, self._attackers(), [trained], **kw)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_explicit_targets_filtered_to_test_split(self, bench_graph,
                                                     trained):
        test_nodes = trained.split.test.tolist()
        inside, outside = test_nodes[0], -1
        for cand in range(bench_graph.node_count):
            if cand not in test_nodes:
                outside = cand
                break
        with pytest.warns(UserWarning):
            report = run_benchmark(
                bench_graph, {"noop": lambda g, t, b, s: []}, [trained],
                budgets=[1], num_targets=2, seed=0,
                targets=[inside, outside])
        assert [row["item"][0] for row in report.cells[0]["targets"]] == [inside]

    def test_budget_violation_caught(self, bench_graph, trained):
        def cheater(g, t, budget, seed):
            return [flip_edit(g, t, v)
                    for v in candidate_edits(g, t)[:budget + 1]]

        with pytest.raises(DataError):
            run_benchmark(bench_graph, {"cheat": cheater}, [trained],
                          budgets=[1], num_targets=2, seed=0)
