"""Similarity, gain, and gain-graph tests."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isccsim.gain as gain_module
from conftest import TINY_SCENARIO, random_scenarios
from isccsim import episode
from isccsim.gain import (
    DimensionMismatch,
    SensingParams,
    build_gain_graph,
    gain,
    kl_matrix,
    num_models,
    round_terms,
    similarity,
)
from isccsim.network import (
    ScenarioConfig,
    Scenario,
    EdgeServer,
    clone_scenario,
    generate_scenario,
    local_distribution,
    sense_targets,
    sensed_class_counts,
    spectral_efficiencies,
    spectral_efficiency,
    step_mobility,
)
from isccsim.episode import RoundEnv, consumption_window, run_episode
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


@pytest.mark.parametrize("field", ["tau_s", "sigma", "epsilon"])
def test_sensing_params_reject_nan(field):
    with pytest.raises(ValueError):
        SensingParams(**{field: float("nan")})


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
            assert graph.problems.values[6][i, 0] / sensing.samples_per_target == len(sensed)
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

    @pytest.mark.parametrize("mode", [Mode.ZEROS, Mode.SERIAL])
    def test_episode_solves_each_edge_once_per_round(self, monkeypatch, mode):
        """Solver calls per episode are exactly N·M·R, which is why no run
        records a solver-call counter."""
        import isccsim.gain as gain_module

        solved = []
        solve = gain_module.solve_edges
        monkeypatch.setattr(gain_module, "solve_edges",
                            lambda p: solved.append(p.values[0].size) or solve(p))
        sc = small_scenario(num_clients=5, num_models=2)
        run_episode(sc, GreedyGainPolicy(), plan_pipeline(4, 9, mode), PoolConfig(),
                    SensingParams())
        assert solved == [5 * 8] * 4

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


# -- the episode's decision-free terms, batched at reset --------------------------


def reference_graphs(scenario, schedule, pool_cfg, sensing, residuals):
    """Each round's graph the one-round way: a clone stepped one frame at a
    time to the round's generation frame, then `build_gain_graph` on it."""
    sc = clone_scenario(scenario)
    frame_s = schedule.cr_length * pool_cfg.slot_duration
    t_cons = consumption_window(schedule.cr_length, pool_cfg.slot_duration)
    graphs, frame = [], 1
    for r, budgets in enumerate(residuals, start=1):
        for _ in range(schedule.gen_frame(r) - frame):
            step_mobility(sc, frame_s)
        frame = schedule.gen_frame(r)
        graphs.append(build_gain_graph(sc, frame_s, t_cons, budgets, sensing,
                                       schedule.mode is Mode.ZEROS))
    return graphs


GRAPH_ARRAYS = ("weights", "etas", "similarities", "solutions")


@pytest.mark.parametrize("config, seed, mode", [
    *((TINY_SCENARIO, s, mode) for mode in Mode for s in range(12)),
    *((ScenarioConfig(), s, Mode.ZEROS) for s in range(4)),
    (ScenarioConfig(num_clients=1000, num_targets=2000), 101, Mode.SERIAL),
])
def test_batched_round_terms_equal_one_round_graphs(config, seed, mode):
    """Every round's gain graph from the terms `reset` computes for all
    rounds at once equals, bit for bit, the one-round graph of that round's
    scenario and budgets, and each observation's scenario is the round's."""
    scenario = generate_scenario(config, seed)
    schedule, pool_cfg, sensing = plan_pipeline(3, 9, mode), PoolConfig(), SensingParams()
    env = RoundEnv(lambda _: scenario, schedule, pool_cfg, sensing)
    obs, done, graphs, budgets, states = env.reset(), False, [], [], []
    while not done:
        graphs.append(obs.graph)
        budgets.append(env.residuals.copy())
        states.append((obs.scenario.positions.copy(), obs.scenario.velocities.copy(),
                       obs.scenario.time_s))
        obs, _, done = env.step(GreedyGainPolicy().decide(obs))
    reference = reference_graphs(scenario, schedule, pool_cfg, sensing, budgets)
    sc = clone_scenario(scenario)
    for graph, expected, (positions, velocities, time_s) in zip(graphs, reference, states):
        for name in GRAPH_ARRAYS:
            assert getattr(graph, name).tobytes() == getattr(expected, name).tobytes(), name
    frame_s = schedule.cr_length * pool_cfg.slot_duration
    for r, (positions, velocities, time_s) in enumerate(states, start=1):
        while sc.time_s < time_s:
            step_mobility(sc, frame_s)
        assert positions.tobytes() == sc.positions.tobytes()
        assert velocities.tobytes() == sc.velocities.tobytes() and time_s == sc.time_s
    for _ in range(schedule.total_frames - schedule.gen_frame(schedule.num_rounds) + 1):
        step_mobility(sc, frame_s)
    assert env.scenario.positions.tobytes() == sc.positions.tobytes()
    assert env.scenario.time_s == sc.time_s


@given(random_scenarios(extreme=True), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_stacked_sensing_and_channel_equal_one_pass_each(sc, rounds, seed):
    """Sensing and the channel of R position sets stacked as rows equal one
    pass per position set, bit for bit, wherever the stacking moves a client
    between blocks."""
    rng = np.random.default_rng(seed)
    scale = max(float(np.abs(sc.positions).max()), 1.0)
    positions = np.stack([sc.positions] + [
        sc.positions + scale * rng.uniform(-0.3, 0.3, sc.positions.shape)
        for _ in range(rounds - 1)])
    counts = sensed_class_counts(sc, positions)
    etas = spectral_efficiencies(sc, positions)
    terms = round_terms(sc, positions, SensingParams())
    for r, xy in enumerate(positions):
        one = replace(sc, positions=xy)
        assert counts[r].tobytes() == sensed_class_counts(one).tobytes()
        assert etas[r].tobytes() == spectral_efficiencies(one).tobytes()
        alone = round_terms(one, xy[None], SensingParams())[0]
        for name in ("similarities", "etas", "w_cap"):
            assert getattr(terms[r], name).tobytes() == getattr(alone, name).tobytes(), name


@pytest.mark.parametrize("mode", list(Mode))
def test_episode_senses_once_and_builds_one_graph_per_round(monkeypatch, mode):
    """One episode senses all its rounds in one call, builds each round's
    graph once and steps mobility once per frame."""
    calls = {"sense": 0, "graph": 0, "move": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(gain_module, "sensed_class_counts",
                        counted("sense", gain_module.sensed_class_counts))
    monkeypatch.setattr(episode, "build_gain_graph", counted("graph", episode.build_gain_graph))
    monkeypatch.setattr(episode, "step_mobility", counted("move", episode.step_mobility))
    schedule = plan_pipeline(4, 9, mode)
    run_episode(generate_scenario(TINY_SCENARIO, 3), GreedyGainPolicy(), schedule, PoolConfig(),
                SensingParams())
    assert calls == {"sense": 1, "graph": 4, "move": schedule.total_frames}


def test_decision_free_check_raises_at_reset_naming_its_round(monkeypatch):
    """A similarity outside (0, 1] in round 2 stops the episode before its
    first decision, and the error names round 2."""
    n = TINY_SCENARIO.num_clients
    kl = gain_module._kl

    def negative_in_round_2(p, q):
        out = kl(p, q)
        out[n:2 * n] = -1.0
        return out

    monkeypatch.setattr(gain_module, "_kl", negative_in_round_2)
    env = RoundEnv(lambda _: generate_scenario(TINY_SCENARIO, 0), plan_pipeline(3, 9, Mode.ZEROS),
                   PoolConfig(), SensingParams())
    with pytest.raises(ValueError, match="round 2: similarity outside"):
        env.reset()
