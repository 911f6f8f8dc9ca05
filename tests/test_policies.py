"""Baseline matching policies and the exhaustive oracle."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isccsim.episode import RoundEnv, run_episode
from isccsim.gain import SensingParams
from isccsim.network import ScenarioConfig, SensingMode, generate_scenario
from isccsim.policies import (
    BASELINE_POLICIES,
    FixedSequencePolicy,
    GreedyGainPolicy,
    InstanceTooLarge,
    MlCcPolicy,
    MlCPolicy,
    MlSccPolicy,
    MpTscPolicy,
    RandomPolicy,
    exhaustive_optimal,
    make_policy,
)
from isccsim.pool import PoolConfig
from isccsim.schedule import Mode, plan_pipeline


def stub_obs(weights=None, table=None):
    weights = None if weights is None else np.asarray(weights, dtype=float)
    table = None if table is None else np.asarray(table, dtype=float)
    m = weights.shape[1] if weights is not None else table.shape[1]
    graph = SimpleNamespace(weights=weights, latency_table=table, model_ids=list(range(m)))
    return SimpleNamespace(graph=graph, round_index=1)


def tiny_setup(seed, num_clients=3, num_rounds=2):
    cfg = ScenarioConfig(
        area_m=200.0,
        num_clients=num_clients,
        num_targets=12,
        num_edges=2,
        num_classes=3,
        num_models=1,
        v_max_mps=5.0,
        vs_radius_m=80.0,
        ws_radius_m=120.0,
    )
    scenario = generate_scenario(cfg, seed)
    schedule = plan_pipeline(num_rounds, 9, Mode.ZEROS)
    return scenario, schedule, PoolConfig(), SensingParams()


def observe(scenario, schedule, pool_cfg, sensing):
    env = RoundEnv(lambda _i: scenario, schedule, pool_cfg, sensing)
    return env.reset()


# -- greedy ---------------------------------------------------------------


def test_greedy_picks_largest_weight():
    obs = stub_obs(weights=[[0.1, 0.9, 0.3], [0.7, 0.2, 0.05]])
    assert GreedyGainPolicy().decide(obs) == [1, 0]


def test_greedy_tie_takes_lowest_index():
    obs = stub_obs(weights=[[0.4, 0.4, 0.1]])
    assert GreedyGainPolicy().decide(obs) == [0]


def test_greedy_invariant_under_weight_rescaling():
    base = np.array([[0.2, 0.5, 0.4], [0.9, 0.1, 0.6]])
    first = GreedyGainPolicy().decide(stub_obs(weights=base))
    second = GreedyGainPolicy().decide(stub_obs(weights=3.7 * base))
    assert first == second


# -- latency heuristics -----------------------------------------------------


def test_ml_c_scores_communication_only():
    # Model 1 has the cheaper links but a huge compute time.
    table = np.zeros((1, 2, 4))
    table[0, 0] = [0.0, 0.3, 0.1, 0.3]  # comm 0.6
    table[0, 1] = [0.0, 0.2, 5.0, 0.2]  # comm 0.4
    assert MlCPolicy().decide(stub_obs(table=table)) == [1]
    assert MlCcPolicy().decide(stub_obs(table=table)) == [0]


def test_ml_scc_adds_sensing_term():
    table = np.zeros((1, 2, 4))
    table[0, 0] = [4.0, 0.2, 0.2, 0.2]
    table[0, 1] = [0.1, 0.3, 0.3, 0.3]
    assert MlCcPolicy().decide(stub_obs(table=table)) == [0]
    assert MlSccPolicy().decide(stub_obs(table=table)) == [1]


def test_latency_tie_takes_lowest_index():
    table = np.full((2, 3, 4), 0.25)
    assert MlCPolicy().decide(stub_obs(table=table)) == [0, 0]


def test_ties_take_lowest_index_in_every_row():
    weights = [[0.3, 0.5, 0.5], [0.7, 0.7, 0.7], [0.0, 0.1, 0.1], [0.2, 0.1, 0.2]]
    assert GreedyGainPolicy().decide(stub_obs(weights=weights)) == [1, 0, 1, 0]
    table = np.zeros((4, 3, 4))
    table[:, :, 1] = np.array(weights)
    assert MlCPolicy().decide(stub_obs(table=table)) == [0, 0, 0, 1]


@pytest.mark.parametrize("mode", [Mode.ZEROS, Mode.SERIAL])
@pytest.mark.parametrize("num_models", [1, 2])
def test_decisions_match_per_row_loop_on_reference_scenarios(mode, num_models):
    """One argmax/argmin over the model axis picks what a per-client loop
    over the rows picks, as Python ints, on every round."""
    cfg = ScenarioConfig(num_models=num_models)
    for seed in range(3):
        env = RoundEnv(lambda _i: generate_scenario(cfg, seed), plan_pipeline(5, 9, mode),
                       PoolConfig(), SensingParams())
        obs, done = env.reset(), False
        while not done:
            greedy = GreedyGainPolicy().decide(obs)
            assert greedy == [int(np.argmax(row)) for row in obs.graph.weights]
            assert all(type(a) is int for a in greedy)
            for cls in (MlCPolicy, MlCcPolicy, MlSccPolicy):
                score = obs.graph.latency_table[:, :, list(cls.components)].sum(axis=2)
                picks = cls().decide(obs)
                assert picks == [int(np.argmin(row)) for row in score]
                assert all(type(a) is int for a in picks)
            obs, _, done = env.step(greedy)


# -- heuristics on real observations ----------------------------------------


def test_mp_tsc_is_matching_blind():
    obs = observe(*tiny_setup(seed=7))
    assert MpTscPolicy().decide(obs) == [0, 0, 0]


def test_ml_cc_equals_ml_c_with_uniform_cycle_cost():
    # One model variant per edge: every model shares the client's kappa,
    # so the compute term cancels out of the comparison.
    obs = observe(*tiny_setup(seed=3))
    assert MlCcPolicy().decide(obs) == MlCPolicy().decide(obs)


def test_ml_scc_equals_ml_cc_for_pure_vs_population():
    scenario, schedule, pool_cfg, sensing = tiny_setup(seed=5)
    scenario.clients = [
        dataclasses.replace(c, sensing_mode=SensingMode.VS) for c in scenario.clients
    ]
    obs = observe(scenario, schedule, pool_cfg, sensing)
    assert MlSccPolicy().decide(obs) == MlCcPolicy().decide(obs)


@given(
    st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 4), st.integers(1, 3),
    st.sampled_from([Mode.ZEROS, Mode.SERIAL]),
)
@settings(max_examples=40, deadline=None)
def test_latency_baselines_coincide_on_generated_scenarios(seed, n, edges, variants, mode):
    """ml-c, ml-cc and ml-scc pick the same models on every round of a
    generated scenario: t_sens does not depend on the model, and variant 0
    has the fewest bits and cycles, so it wins every latency term."""
    cfg = ScenarioConfig(num_clients=n, num_targets=4 * n, num_edges=edges, num_models=variants)
    env = RoundEnv(lambda _i: generate_scenario(cfg, seed), plan_pipeline(3, 9, mode),
                   PoolConfig(), SensingParams())
    obs, done = env.reset(), False
    while not done:
        picks = [cls().decide(obs) for cls in (MlCPolicy, MlCcPolicy, MlSccPolicy)]
        assert picks[0] == picks[1] == picks[2]
        obs, _, done = env.step(RandomPolicy(seed).decide(obs))


def test_random_policy_is_replayable_and_in_range():
    obs = observe(*tiny_setup(seed=11))
    policy = RandomPolicy(seed=4)
    first = policy.decide(obs)
    assert policy.decide(obs) == first
    assert all(0 <= a < 2 for a in first)
    assert RandomPolicy(seed=4).decide(obs) == first


def test_random_policy_varies_with_round():
    obs = observe(*tiny_setup(seed=11))
    policy = RandomPolicy(seed=0)
    draws = set()
    for r in range(1, 30):
        fake = SimpleNamespace(
            graph=obs.graph, scenario=obs.scenario, round_index=r
        )
        draws.add(tuple(policy.decide(fake)))
    assert len(draws) > 1


def test_fixed_sequence_replays_rows():
    obs = observe(*tiny_setup(seed=2))
    policy = FixedSequencePolicy([[1, 0, 1], [0, 1, 0]])
    assert policy.decide(obs) == [1, 0, 1]


def test_all_baselines_complete_an_episode():
    scenario, schedule, pool_cfg, sensing = tiny_setup(seed=9)
    for name, cls in BASELINE_POLICIES.items():
        trace = run_episode(scenario, cls(), schedule, pool_cfg, sensing)
        assert trace.violations == [], name
        assert trace.cumulative_gain >= 0.0, name


# -- exhaustive oracle -------------------------------------------------------


def test_exhaustive_single_round_matches_greedy():
    scenario, schedule, pool_cfg, sensing = tiny_setup(
        seed=1, num_clients=1, num_rounds=1
    )
    result = exhaustive_optimal(scenario, schedule, pool_cfg, sensing, num_models=2)
    assert result.sequences_tried == 2
    trace = run_episode(scenario, GreedyGainPolicy(), schedule, pool_cfg, sensing)
    assert result.gain == pytest.approx(trace.cumulative_gain)


def test_exhaustive_counts_sequences():
    scenario, schedule, pool_cfg, sensing = tiny_setup(
        seed=1, num_clients=1, num_rounds=3
    )
    result = exhaustive_optimal(scenario, schedule, pool_cfg, sensing, num_models=2)
    assert result.sequences_tried == 8


def test_exhaustive_decisions_are_complete_assignments():
    scenario, schedule, pool_cfg, sensing = tiny_setup(
        seed=6, num_clients=2, num_rounds=2
    )
    result = exhaustive_optimal(scenario, schedule, pool_cfg, sensing, num_models=2)
    assert len(result.decisions) == 2
    for row in result.decisions:
        assert len(row) == 2
        assert all(0 <= a < 2 for a in row)


def test_exhaustive_never_loses_to_greedy():
    for seed in range(50):
        scenario, schedule, pool_cfg, sensing = tiny_setup(
            seed=seed, num_clients=1, num_rounds=2
        )
        best = exhaustive_optimal(scenario, schedule, pool_cfg, sensing, num_models=2)
        trace = run_episode(scenario, GreedyGainPolicy(), schedule, pool_cfg, sensing)
        assert best.gain >= trace.cumulative_gain - 1e-12, seed


def test_exhaustive_rejects_oversized_instances():
    scenario, schedule, pool_cfg, sensing = tiny_setup(
        seed=0, num_clients=4, num_rounds=4
    )
    with pytest.raises(InstanceTooLarge):
        exhaustive_optimal(scenario, schedule, pool_cfg, sensing, num_models=4)


# -- registry ----------------------------------------------------------------


def test_make_policy_builds_each_baseline():
    for name in [*BASELINE_POLICIES, "random"]:
        assert make_policy(name, seed=1).name == name


def test_make_policy_unknown_name_lists_valid_ones():
    with pytest.raises(ValueError) as err:
        make_policy("gredy")
    assert "greedy" in str(err.value)
    assert "sac" in str(err.value)
