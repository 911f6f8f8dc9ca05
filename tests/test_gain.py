"""Similarity, gain, and gain-graph tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scenarios
from isccsim.gain import (
    DimensionMismatch,
    SensingParams,
    build_gain_graph,
    gain,
    kl_matrix,
    num_models,
    similarity,
)
from isccsim.network import (
    ScenarioConfig,
    Scenario,
    EdgeServer,
    generate_scenario,
    local_distribution,
    sense_targets,
    sensed_class_counts,
    spectral_efficiency,
)
from isccsim.episode import run_episode
from isccsim.policies import GreedyGainPolicy
from isccsim.pool import PoolConfig
from isccsim.schedule import Mode, plan_pipeline
from isccsim.workload import WorkloadProblem, latency_components, solve_workload


def small_scenario(**kw):
    cfg = ScenarioConfig(
        num_clients=kw.pop("num_clients", 3),
        num_edges=kw.pop("num_edges", 4),
        num_targets=kw.pop("num_targets", 40),
        area_m=200.0,
        vs_radius_m=80.0,
        ws_radius_m=120.0,
        **kw,
    )
    return generate_scenario(cfg, seed=kw.pop("seed", 3))


DEFAULT_RESIDUAL = (4e6, 1e9)


class TestSimilarity:
    def test_identical_distributions(self):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        assert similarity(p, p) == pytest.approx(1.0)

    def test_point_mass_against_uniform(self):
        # KL((1-e, e) || (0.5, 0.5)) -> ln 2 as e -> 0, so s -> 0.5.
        eps = 1e-9
        p = np.array([1.0 - eps, eps])
        q = np.array([0.5, 0.5])
        assert similarity(p, q) == pytest.approx(0.5, rel=1e-6)

    def test_asymmetry(self):
        p = np.array([0.9, 0.1])
        q = np.array([0.5, 0.5])
        assert similarity(p, q) != pytest.approx(similarity(q, p))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            similarity(np.array([0.5, 0.5]), np.array([0.3, 0.3, 0.4]))

    def test_rejects_zeros(self):
        with pytest.raises(ValueError):
            similarity(np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6),
           st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_range(self, raw_p, raw_q):
        k = min(len(raw_p), len(raw_q))
        p = np.array(raw_p[:k]) / sum(raw_p[:k])
        q = np.array(raw_q[:k]) / sum(raw_q[:k])
        s = similarity(p, q)
        assert 0.0 < s <= 1.0 + 1e-12

    @given(st.integers(1, 12), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_kl_matrix_matches_scalar_bitwise(self, k, n, m, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(k), size=n) + 1e-6
        q = rng.dirichlet(np.ones(k), size=m) + 1e-6
        kl = kl_matrix(p, q)
        assert kl.shape == (n, m)
        for i in range(n):
            for j in range(m):
                assert math.exp(-kl[i, j]) == similarity(p[i], q[j])

    def test_kl_matrix_rejects_bad_input(self):
        with pytest.raises(DimensionMismatch):
            kl_matrix(np.full((2, 2), 0.5), np.full((1, 3), 1 / 3))
        with pytest.raises(ValueError):
            kl_matrix(np.full((1, 2), 0.5), np.array([[1.0, 0.0]]))


class TestGain:
    def test_zero_workload(self):
        assert gain(0.7, 0) == 0.0

    def test_unit_gain(self):
        assert gain(1.0, math.e - 1.0) == pytest.approx(1.0)

    def test_known_value(self):
        assert gain(0.5, 15) == pytest.approx(0.5 * math.log(16.0))

    def test_monotone_in_both(self):
        s_grid = np.linspace(0.1, 1.0, 7)
        w_grid = np.arange(0, 40, 5)
        for w in w_grid:
            vals = [gain(s, w) for s in s_grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            if w > 0:
                assert all(b > a for a, b in zip(vals, vals[1:]))
        for s in s_grid:
            vals = [gain(s, w) for w in w_grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_similarity(self):
        with pytest.raises(ValueError):
            gain(0.0, 5)
        with pytest.raises(ValueError):
            gain(1.5, 5)


class TestGainGraph:
    def build(self, scenario, sensing=None):
        sensing = sensing or SensingParams()
        residuals = [DEFAULT_RESIDUAL] * len(scenario.clients)
        return build_gain_graph(scenario, 0.9, 0.7, residuals, sensing, coupled=True)

    def test_complete_bipartite(self):
        sc = small_scenario()
        graph = self.build(sc)
        assert len(graph.edges) == 3 * 4
        assert graph.weights.shape == (3, 4)
        pairs = {(e.client_id, e.model_id) for e in graph.edges}
        assert len(pairs) == 12

    def test_zero_targets_zero_weights(self):
        sc = small_scenario(num_targets=0)
        graph = self.build(sc)
        assert np.all(graph.weights == 0.0)

    def test_weight_zero_iff_zero_workload(self):
        sc = small_scenario()
        for e in self.build(sc).edges:
            assert (e.weight == 0.0) == (e.workload == 0)
            assert e.weight >= 0.0
            assert e.similarity > 0.0

    def test_matching_mixture_wins(self):
        sc = small_scenario(num_clients=1, num_edges=1, num_targets=30)
        # Two co-located edges: one whose mixture equals the client's local
        # distribution, one skewed elsewhere.
        p_local = tuple(local_distribution(sensed_class_counts(sc)[0], 1e-3))
        skew = (0.97, 0.01, 0.01, 0.01) if p_local[0] < 0.9 else (0.01, 0.97, 0.01, 0.01)
        pos = sc.edges[0].position
        sc = Scenario(
            sc.area_m, sc.clients,
            [EdgeServer(0, pos, (p_local,)), EdgeServer(1, pos, (skew,))],
            sc.targets, sc.num_classes, sc.channel, sc.positions, sc.velocities,
        )
        graph = self.build(sc)
        w = graph.weights[0]
        if graph.edge(0, 0).workload > 0:
            assert w[0] > w[1]

    def test_pure_function(self):
        sc = small_scenario()
        g1 = self.build(sc)
        g2 = self.build(sc)
        assert np.array_equal(g1.weights, g2.weights)
        for e1, e2 in zip(g1.edges, g2.edges):
            assert e1 == e2

    def test_no_caching_drift(self):
        """Each edge weight reproduces from scratch via its stored problem."""
        sc = small_scenario()
        for e in self.build(sc).edges:
            sol = solve_workload(e.problem)
            assert sol.w_star == e.workload
            assert gain(e.similarity, sol.w_star) == pytest.approx(e.weight)

    def test_vertex_features_layout(self):
        sc = small_scenario()
        graph = self.build(sc)
        m = num_models(sc)
        assert graph.etas.shape == (len(graph.client_ids), m)
        assert np.all(graph.etas > 0.0)
        assert graph.latency_table.shape == (len(graph.client_ids), m, 4)

    @given(random_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_one_pass_matches_scalar_reference(self, sc):
        """Workload caps, similarities and sensed counts come out exactly as
        the per-client `sense_targets` and scalar `similarity` define them."""
        sensing = SensingParams()
        graph = self.build(sc, sensing)
        for i, client in enumerate(sc.clients):
            sensed = sense_targets(sc.positions[i], client.sensing_radius_m, sc.targets)
            counts = np.bincount([t.class_id for t in sensed], minlength=sc.num_classes)
            p = local_distribution(counts.astype(float), sensing.epsilon)
            assert graph.sensed_counts[i] == len(sensed)
            for m in graph.model_ids:
                e = graph.edge(i, m)
                mixtures = sc.edges[sc.model_arrays().edge_of_model[m]].model_mixtures
                q = np.array(mixtures[m % len(mixtures)])
                assert e.similarity == similarity(p, q)
                assert e.problem.w_cap == float(len(sensed) * sensing.samples_per_target)

    def test_episode_builds_no_edge_objects(self, monkeypatch):
        """A round step reads its chosen edges from the arrays: an episode
        builds no `WorkloadProblem`, while `edges` still builds every one."""
        built = []
        check = WorkloadProblem.__post_init__
        monkeypatch.setattr(WorkloadProblem, "__post_init__", lambda p: built.append(check(p)))
        sc = small_scenario()
        trace = run_episode(sc, GreedyGainPolicy(), plan_pipeline(3, 9, Mode.ZEROS),
                            PoolConfig(), SensingParams())
        assert built == [] and sum(map(sum, (r.workloads for r in trace.rounds))) > 0
        assert len(self.build(sc).edges) == len(built) == 3 * 4

    def test_serializes(self):
        import json

        graph = self.build(small_scenario())
        blob = json.dumps(
            {"weights": graph.weights.tolist(), "etas": graph.etas.tolist()}, sort_keys=True
        )
        back = json.loads(blob)
        assert np.array_equal(np.array(back["weights"]), graph.weights)
        assert np.array_equal(np.array(back["etas"]), graph.etas)

    @given(random_scenarios(), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_arrays_match_per_edge_reference(self, sc, coupled, seed):
        """The (N, M) arrays filled in the one pass over the edges equal the
        per-edge values they summarize, bit for bit."""
        rng = np.random.default_rng(seed)
        n = len(sc.clients)
        residuals = list(zip(rng.uniform(0.0, 8e6, n).tolist(), rng.uniform(0.0, 2e9, n).tolist()))
        graph = build_gain_graph(sc, 0.9, 0.7, residuals, SensingParams(), coupled)
        m_count = num_models(sc)
        assert graph.weights.shape == graph.etas.shape == (n, m_count)
        assert graph.latency_table.shape == (n, m_count, 4)
        for i, position in enumerate(sc.positions):
            for m in graph.model_ids:
                e = graph.edge(i, m)
                e_idx = sc.model_arrays().edge_of_model[m]
                assert graph.weights[i, m] == e.weight
                assert graph.etas[i, m] == spectral_efficiency(position, sc.edges[e_idx], sc.channel)
                assert graph.etas[i, m] == e.problem.eta
                expected = latency_components(e.problem, int(e.problem.w_cap))
                assert tuple(graph.latency_table[i, m].tolist()) == expected
