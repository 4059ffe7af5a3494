import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbrattack import distortion as distortion_mod
from nbrattack import oracles as oracles_mod
from nbrattack.distortion import single_flip_distortions
from nbrattack.embed import GinParams, embedding_forward
from nbrattack.errors import DataError, SizeCapError
from nbrattack.graphs import (ADD, DELETE, EdgeEdit, apply_edit,
                              candidate_edits, flip_edit, k_hop_neighborhood)
from nbrattack.numerics import rng_from_seed
from nbrattack.oracles import (SetCoverInstance, brute_force_max_distortion,
                               degree_attack, greedy_attack, has_cover,
                               random_attack, reduction_graph, two_hop_reach)
from tests.conftest import make_graph, random_model


def khop_set(g, v, k):
    """Reference k-hop reach via dense boolean matrix powers."""
    n = g.node_count
    a = np.zeros((n, n), dtype=bool)
    for u, w in g.edges():
        a[u, w] = a[w, u] = True
    reach = np.zeros(n, dtype=bool)
    reach[v] = True
    for _ in range(k):
        reach = reach | (a @ reach)
    return set(np.flatnonzero(reach).tolist())


def jaccard_distortion(g1, g2, t, k):
    s1, s2 = khop_set(g1, t, k), khop_set(g2, t, k)
    union = s1 | s2
    if not union:
        return 0.0
    return 1.0 - len(s1 & s2) / len(union)


def naive_cover_check(inst):
    """Bitmask sweep over every subset selection, independent of has_cover."""
    m = len(inst.subsets)
    universe = set(range(inst.n_elements))
    for mask in range(1 << m):
        if bin(mask).count("1") > inst.budget:
            continue
        covered = set()
        for i in range(m):
            if mask >> i & 1:
                covered |= inst.subsets[i]
        if covered == universe:
            return True
    return False


def random_instance(rng, max_n=5, max_m=5):
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    sets = [frozenset(int(x) for x in np.flatnonzero(rng.random(n) < 0.45))
            for _ in range(m)]
    # instance validity requires every element in some subset; patch gaps
    covered = set().union(*sets)
    missing = sorted(set(range(n)) - covered)
    if missing:
        sets[0] = sets[0] | frozenset(missing)
    b = int(rng.integers(0, m + 1))
    return SetCoverInstance(n, tuple(sets), b)


class TestSetCoverInstance:
    def test_validation(self):
        with pytest.raises(DataError):
            SetCoverInstance(2, (frozenset({0}),), 1)  # element 1 uncovered
        with pytest.raises(DataError):
            SetCoverInstance(2, (frozenset({0, 1}),), 5)  # budget > m
        with pytest.raises(DataError):
            SetCoverInstance(0, (frozenset(),), 0)

    def test_has_cover_matches_bitmask_oracle(self):
        rng = rng_from_seed(0)
        for _ in range(60):
            inst = random_instance(rng)
            assert has_cover(inst) == naive_cover_check(inst)

    def test_known_instances(self):
        yes = SetCoverInstance(3, (frozenset({0, 1}), frozenset({2})), 2)
        no = SetCoverInstance(3, (frozenset({0, 1}), frozenset({2})), 1)
        assert has_cover(yes) and not has_cover(no)


class TestReductionGraph:
    def test_structure(self):
        inst = SetCoverInstance(
            3, (frozenset({0, 1}), frozenset({1, 2}), frozenset()), 2)
        g, t, accessible, budget = reduction_graph(inst)
        m, n = 3, 3
        assert g.node_count == m + n + 1
        assert t == m + n
        assert accessible == [0, 1, 2]
        assert budget == 2
        assert g.degree(t) == 0
        # membership edges only
        assert set(g.edges()) == {(0, 3), (0, 4), (1, 4), (1, 5)}

    def test_reach_equivalence_on_random_instances(self):
        # adding <= budget edges from the target to subset nodes reaches
        # budget + n_elements two-hop neighbors exactly when a cover exists
        rng = rng_from_seed(1)
        for _ in range(40):
            inst = random_instance(rng, max_n=4, max_m=4)
            g, t, accessible, b = reduction_graph(inst)
            cands = [flip_edit(g, t, v) for v in candidate_edits(g, t, accessible)]
            assert all(e.sign == ADD for e in cands)
            best = 0
            for size in range(min(b, len(cands)) + 1):
                for combo in itertools.combinations(cands, size):
                    pert = g
                    for e in combo:
                        pert = apply_edit(pert, e)
                    best = max(best, two_hop_reach(pert, t))
            assert (best == b + inst.n_elements) == has_cover(inst)

    def test_two_hop_reach_counts(self):
        g = make_graph(4, [(0, 1), (1, 2)])
        assert two_hop_reach(g, 0) == 2
        assert two_hop_reach(g, 3) == 0


class TestBruteForce:
    def test_matches_naive_enumeration(self):
        rng = rng_from_seed(2)
        for trial in range(8):
            n = int(rng.integers(4, 7))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4]
            g = make_graph(n, edges, seed=trial)
            t = int(rng.integers(n))
            budget = 2
            got_edits, got_val = brute_force_max_distortion(g, t, budget, k=2)
            # independent sweep with reference distortion
            cands = [flip_edit(g, t, v) for v in candidate_edits(g, t)]
            best = 0.0
            for size in range(budget + 1):
                for combo in itertools.combinations(cands, size):
                    pert = g
                    for e in combo:
                        pert = apply_edit(pert, e)
                    best = max(best, jaccard_distortion(g, pert, t, 2))
            assert got_val == pytest.approx(best, abs=1e-12)
            # and the reported edits actually achieve the reported value
            pert = g
            for e in got_edits:
                pert = apply_edit(pert, e)
            assert jaccard_distortion(g, pert, t, 2) == pytest.approx(got_val)
            assert len(got_edits) <= budget

    def test_tie_break_prefers_first_lexicographic(self, path4):
        # k=1, budget=2 on the path 0-1-2-3 from t=0: the maximum 2/3 is
        # achieved by {del(0,1), add(0,2)} and {del(0,1), add(0,3)}; the
        # candidate list is ordered by other endpoint, so the first wins
        edits, val = brute_force_max_distortion(path4, 0, 2, k=1)
        assert val == pytest.approx(2 / 3)
        assert [(e.u, e.v, e.sign) for e in edits] == [
            (0, 1, DELETE), (0, 2, ADD)]

    def test_zero_budget(self, path4):
        edits, val = brute_force_max_distortion(path4, 0, 0, k=2)
        assert edits == () and val == 0.0

    def test_cap_enforced(self, small_sbm):
        with pytest.raises(SizeCapError):
            brute_force_max_distortion(small_sbm, 0, 5, k=2, cap=10)

    def test_negative_budget(self, path4):
        with pytest.raises(DataError):
            brute_force_max_distortion(path4, 0, -1)

    def test_default_cap_refuses_1k_nodes_at_budget_2(self, monkeypatch):
        # 1 + 999 + C(999, 2) subsets per target: refused before any is tried
        import nbrattack.oracles as oracles_mod

        def refuse(*args, **kwargs):
            raise AssertionError("a subset was evaluated")

        monkeypatch.setattr(oracles_mod, "apply_edits", refuse)
        monkeypatch.setattr(oracles_mod, "flip_edit", refuse)
        g = make_graph(1000, [(i, i + 1) for i in range(999)])
        with pytest.raises(SizeCapError, match="499501"):
            brute_force_max_distortion(g, 0, 2, k=2)


class TestGreedy:
    def test_graph_objective_matches_stepwise_oracle(self):
        rng = rng_from_seed(3)
        for trial in range(6):
            n = 7
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.35]
            g = make_graph(n, edges, seed=trial)
            t = int(rng.integers(n))
            got = greedy_attack(g, t, 3, k=2, objective="graph")
            # replay: at each step pick the first candidate maximizing the
            # reference distortion against the ORIGINAL graph
            cur = g
            want = []
            for _ in range(3):
                cands = [flip_edit(cur, t, v) for v in candidate_edits(cur, t)]
                vals = []
                for e in cands:
                    pert = apply_edit(cur, e)
                    vals.append(jaccard_distortion(g, pert, t, 2))
                pick = cands[int(np.argmax(vals))]
                want.append(pick)
                cur = apply_edit(cur, pick)
            assert got == want

    def test_embedding_objective_matches_stepwise_oracle(self, small_sbm):
        model = GinParams.init(small_sbm.node_count, 4, 2, rng_from_seed(4))
        t = 3
        got = greedy_attack(small_sbm, t, 2, k=2, embed_model=model)
        n_start = k_hop_neighborhood(small_sbm, t, 2)
        cur = small_sbm
        want = []
        for _ in range(2):
            cands = [flip_edit(cur, t, v) for v in candidate_edits(cur, t)]
            best_e, best_v = None, -np.inf
            for e in cands:
                pert = apply_edit(cur, e)
                z = embedding_forward(model, pert).values
                hood = k_hop_neighborhood(pert, t, 2)

                def mean_dist(nodes):
                    others = [v for v in nodes if v != t]
                    if not others:
                        return 0.0
                    return float(np.mean([np.linalg.norm(z[v] - z[t])
                                          for v in others]))

                v = mean_dist(n_start) - mean_dist(hood)
                if v > best_v:
                    best_e, best_v = e, v
            want.append(best_e)
            cur = apply_edit(cur, best_e)
        assert got == want

    def test_embedding_objective_requires_model(self, path4):
        with pytest.raises(DataError):
            greedy_attack(path4, 0, 1, objective="embedding")

    def test_unknown_objective(self, path4):
        with pytest.raises(DataError):
            greedy_attack(path4, 0, 1, objective="spectral")

    def test_callable_table_source(self, small_sbm):
        # full-retrain mode: the scorer may be any graph -> table callable
        model = GinParams.init(small_sbm.node_count, 4, 2, rng_from_seed(5))
        calls = []

        def source(graph):
            calls.append(graph)
            return embedding_forward(model, graph)

        edits = greedy_attack(small_sbm, 0, 1, embed_model=source)
        assert len(edits) == 1
        assert len(calls) == small_sbm.node_count - 1  # one per candidate

    def test_respects_accessible(self, path4):
        edits = greedy_attack(path4, 0, 2, objective="graph",
                              accessible=[1, 2])
        for e in edits:
            other = e.v if e.u == 0 else e.u
            assert other in {1, 2}


def stepwise_embedding_greedy(model, g, t, budget, k, accessible=None):
    """Reference greedy: each step re-embeds every flipped graph and keeps
    the first flip with the largest distortion against the start graph."""
    n_start = k_hop_neighborhood(g, t, k)
    cur = g
    chosen = []
    for _ in range(budget):
        best_e, best_v = None, -np.inf
        for v in candidate_edits(cur, t, accessible):
            e = flip_edit(cur, t, v)
            pert = apply_edit(cur, e)
            z = embedding_forward(model, pert).values

            def mean_dist(nodes):
                others = [x for x in nodes if x != t]
                if not others:
                    return 0.0
                return float(np.mean([np.linalg.norm(z[x] - z[t])
                                      for x in others]))

            value = mean_dist(n_start) - mean_dist(k_hop_neighborhood(pert, t, k))
            if value > best_v:
                best_e, best_v = e, value
        chosen.append(best_e)
        cur = apply_edit(cur, best_e)
    return chosen


def exact_greedy(model, g, t, budget, k):
    """Reference greedy over the exact scorer: each step keeps the first
    flip with the largest ``single_flip_distortions`` value."""
    n_start = k_hop_neighborhood(g, t, k)
    chosen = []
    for _ in range(budget):
        edit, g = max(single_flip_distortions(model, g, t, k, n_start),
                      key=lambda row: row[-1])[:2]
        chosen.append(edit)
    return chosen


class TestBatchedGreedy:
    """Greedy with a frozen model scores a step's flips with one patched
    forward and re-embeds only the near-maximal ones; its edits must be
    those of re-embedding every candidate."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_stepwise_replay(self, data):
        n = data.draw(st.integers(3, 14), label="n")
        rng = rng_from_seed(data.draw(st.integers(0, 1 << 16), label="seed"))
        density = data.draw(st.sampled_from([0.1, 0.3, 0.6]), label="p")
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density]
        t = data.draw(st.integers(0, n - 1), label="t")
        # hub: t is adjacent to every node, so every flip deletes;
        # covered: a neighbor of t is adjacent to every node, so t's 2-hop
        # hood is the whole graph and every added edge ties at zero;
        # zero: an all-zero model, under which every flip ties
        shape = data.draw(st.sampled_from(["plain", "hub", "covered", "zero"]),
                          label="shape")
        if shape in ("hub", "covered"):
            h = t if shape == "hub" else (t + 1) % n
            edges = sorted({*edges, *((min(h, x), max(h, x))
                                      for x in range(n) if x != h)})
        g = make_graph(n, edges)
        for _ in range(data.draw(st.integers(0, 3), label="derived")):
            u, v = rng.choice(n, size=2, replace=False).tolist()
            g = apply_edit(g, flip_edit(g, u, v))
        model = random_model(data.draw(st.sampled_from(["gin", "gcn"])), n,
                             data.draw(st.integers(1, 3), label="layers"),
                             int(rng.integers(1 << 16)))
        if shape == "zero":
            model = model.with_params({name: np.zeros_like(value) for
                                       name, value in model.param_dict().items()})
        budget = data.draw(st.integers(1, 3), label="budget")
        k = data.draw(st.integers(1, 3), label="k")
        assert greedy_attack(g, t, budget, k, model) == \
            stepwise_embedding_greedy(model, g, t, budget, k)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_twin_ties_match_exact_scorer(self, data):
        # groups of twins: equal neighbor sets and equal input rows, so the
        # flips of t to one group tie exactly, and the batched and exact
        # scorers round them apart in the last bits
        rng = rng_from_seed(data.draw(st.integers(0, 1 << 16), label="seed"))
        groups = data.draw(st.integers(2, 4), label="groups")
        size = data.draw(st.integers(2, 3), label="size")
        n = 1 + groups * size
        group = np.repeat(np.arange(groups), size)
        link = np.triu(rng.random((groups, groups)) < 0.5, 1)
        link |= link.T
        to_t = rng.random(groups) < 0.5
        edges = [(0, 1 + i) for i in range(n - 1) if to_t[group[i]]]
        edges += [(1 + i, 1 + j) for i in range(n - 1) for j in range(i + 1, n - 1)
                  if link[group[i], group[j]]]
        backend = data.draw(st.sampled_from(["gin", "gcn"]), label="backend")
        model = random_model(backend, n, data.draw(st.integers(1, 3)),
                             int(rng.integers(1 << 16)))
        w = model.layers[0].w1 if backend == "gin" else model.weights[0]
        w[1:] = w[1 + group * size]
        g = make_graph(n, edges)
        budget = data.draw(st.integers(1, 3), label="budget")
        k = data.draw(st.integers(1, 3), label="k")
        assert greedy_attack(g, 0, budget, k, model) == \
            exact_greedy(model, g, 0, budget, k)

    @pytest.mark.parametrize("backend", ["gin", "gcn"])
    def test_accessible_matches_stepwise_replay(self, backend, small_sbm):
        model = random_model(backend, small_sbm.node_count, 2, 7)
        accessible = [11, 2, 5, 3, 8, 2]
        got = greedy_attack(small_sbm, 3, 3, k=2, embed_model=model,
                            accessible=accessible)
        assert all({e.u, e.v} - {3} <= set(accessible) for e in got)
        assert got == stepwise_embedding_greedy(model, small_sbm, 3, 3, 2,
                                                accessible)

    def test_one_base_forward_per_step(self, monkeypatch, small_sbm):
        model = GinParams.init(small_sbm.node_count, 4, 2, rng_from_seed(4))
        bases, rescored = [], []

        def counting_base(embed_model, g):
            bases.append(g)
            return distortion_mod.flip_base(embed_model, g)

        def counting_forward(embed_model, g):
            rescored.append(g)
            return embedding_forward(embed_model, g)

        monkeypatch.setattr(oracles_mod, "flip_base", counting_base)
        monkeypatch.setattr(distortion_mod, "embedding_forward",
                            counting_forward)
        budget = 3
        got = greedy_attack(small_sbm, 3, budget, k=2, embed_model=model)
        assert got == stepwise_embedding_greedy(model, small_sbm, 3, budget, 2)
        # no two flips of this target tie, so each step re-embeds only its
        # winner, against n - 1 = 11 candidates
        assert len(bases) == budget
        assert len(rescored) == budget


class TestBaselines:
    def test_random_deterministic_and_valid(self, small_sbm):
        e1 = random_attack(small_sbm, 0, 4, seed=9)
        e2 = random_attack(small_sbm, 0, 4, seed=9)
        assert e1 == e2
        assert len(set(e1)) == 4
        valid = {flip_edit(small_sbm, 0, v) for v in candidate_edits(small_sbm, 0)}
        assert set(e1) <= valid

    def test_random_truncates_with_warning(self, path4):
        with pytest.warns(UserWarning):
            edits = random_attack(path4, 0, 99, seed=0)
        assert len(edits) == 3

    def test_degree_order(self):
        # star center 1 (deg 3), node 2 deg 2, leaf 3 deg 1, t = 0 isolated-ish
        g = make_graph(5, [(1, 2), (1, 3), (1, 4), (2, 4)])
        edits = degree_attack(g, 0, 3)
        others = [e.v if e.u == 0 else e.u for e in edits]
        assert others == [1, 2, 4]  # degrees 3, 2, 2; tie broken by id

    def test_degree_respects_accessible(self, small_sbm):
        edits = degree_attack(small_sbm, 0, 2, accessible=[5, 6])
        others = {e.v if e.u == 0 else e.u for e in edits}
        assert others <= {5, 6}
