"""State encoding, hand-rolled backprop, and the soft actor-critic learner."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_scenarios
from isccsim.encoding import LayoutMismatch, default_norms, encode_state, layout_length
from isccsim.episode import RoundEnv
from isccsim.gain import SensingParams, build_gain_graph
from isccsim.mlp import Mlp, gradient_check, scalar_gradient_check
from isccsim.network import ScenarioConfig, generate_scenario, spectral_efficiency
from isccsim.policies import RandomPolicy
from isccsim.sac import (
    ReplayBuffer,
    SacAgent,
    SacConfig,
    SacPolicy,
    load_policy,
    log_softmax,
    train,
)
from isccsim.pool import PoolConfig
from isccsim.schedule import Mode, plan_pipeline


def tiny_env(num_clients=2, num_rounds=2, seed_base=0, stride=0):
    cfg = ScenarioConfig(
        area_m=200.0,
        num_clients=num_clients,
        num_targets=10,
        num_edges=2,
        num_classes=3,
        num_models=1,
        v_max_mps=5.0,
        vs_radius_m=80.0,
        ws_radius_m=120.0,
    )
    schedule = plan_pipeline(num_rounds, 9, Mode.ZEROS)
    factory = lambda i: generate_scenario(cfg, seed_base + stride * i)
    return RoundEnv(factory, schedule, PoolConfig(), SensingParams())


def fresh_agent(env, rng_seed=0, **overrides):
    obs = env.reset()
    n = len(obs.scenario.clients)
    m = len(obs.graph.model_ids)
    config = SacConfig(**overrides)
    agent = SacAgent(obs.state.size, n, m, config,
                     np.random.default_rng(rng_seed))
    return agent, obs


def probe_batch(agent, rng, size=8):
    return {
        "states": rng.random((size, agent.state_dim)),
        "actions": rng.integers(0, agent.num_models,
                                size=(size, agent.num_clients)),
        "rewards": rng.random(size),
        "next_states": rng.random((size, agent.state_dim)),
        "dones": rng.integers(0, 2, size=size).astype(float),
    }


def randomize(agent, rng, scale=0.5):
    for net in (agent.actor, agent.critic1, agent.critic2,
                agent.target1, agent.target2):
        net.set_flat(rng.normal(0.0, scale, size=net.num_params))


# -- state encoding -----------------------------------------------------------


def test_layout_length_formula():
    assert layout_length(3, 4) == 36


def test_zero_residuals_encode_to_zero_features():
    env = tiny_env()
    obs = env.reset()
    state = encode_state(
        obs.scenario, [(0.0, 0.0)] * len(obs.scenario.clients),
        obs.graph, env.norms,
    )
    n, m = len(obs.scenario.clients), len(obs.graph.model_ids)
    blocks = state[: n * (4 + m)].reshape(n, 4 + m)
    assert np.all(blocks[:, :2] == 0.0)


def test_permuting_models_permutes_feature_blocks():
    env = tiny_env()
    obs = env.reset()
    graph = obs.graph
    m = len(graph.model_ids)
    perm = list(reversed(range(m)))
    problems = dataclasses.replace(
        graph.problems, values=graph.problems.values[:, :, perm], vs=graph.problems.vs[:, perm]
    )
    swapped = dataclasses.replace(
        graph,
        weights=graph.weights[:, perm],
        etas=problems.values[2],
        similarities=graph.similarities[:, perm],
        solutions=graph.solutions[:, :, perm],
        problems=problems,
    )
    fracs = [(0.5, 0.5)] * len(obs.scenario.clients)
    base = encode_state(obs.scenario, fracs, graph, env.norms)
    moved = encode_state(obs.scenario, fracs, swapped, env.norms)
    n = len(obs.scenario.clients)
    split = n * (4 + m)
    b0, b1 = base[:split].reshape(n, 4 + m), moved[:split].reshape(n, 4 + m)
    assert np.array_equal(b0[:, :4], b1[:, :4])
    assert np.array_equal(b0[:, 4:][:, perm], b1[:, 4:])
    assert np.array_equal(base[split:].reshape(n, m)[:, perm], moved[split:].reshape(n, m))


def reference_encoding(scenario, fracs, graph, norms):
    """The state vector concatenated one client block at a time from
    per-edge values (spectral efficiency, edge weight)."""
    blocks = []
    for i, position in enumerate(scenario.positions):
        etas = [
            spectral_efficiency(position, scenario.edges[scenario.model_arrays().edge_of_model[m]],
                                scenario.channel)
            for m in graph.model_ids
        ]
        blocks.append(np.concatenate([
            list(fracs[i]),
            position / scenario.area_m,
            np.array(etas) / norms.eta_norm,
        ]))
    weights = np.array([
        [graph.edge(i, m).weight for m in graph.model_ids] for i in range(len(scenario.clients))
    ]).reshape(-1) / norms.gain_norm
    return np.concatenate(blocks + [weights]).astype(np.float64)


@given(random_scenarios(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_encoding_matches_per_client_reference(sc, seed):
    rng = np.random.default_rng(seed)
    n = len(sc.clients)
    sensing = SensingParams()
    residuals = [(float(b), 1e9) for b in rng.uniform(0.0, 8e6, n)]
    graph = build_gain_graph(sc, 0.9, 0.7, residuals, sensing, coupled=True)
    fracs = [(float(f), float(c)) for f, c in rng.random((n, 2))]
    norms = default_norms(sc.channel, max(1, len(sc.targets)), sensing.samples_per_target)
    state = encode_state(sc, fracs, graph, norms)
    expected = reference_encoding(sc, fracs, graph, norms)
    assert state.dtype == expected.dtype
    assert state.tobytes() == expected.tobytes()


# -- actor forward ------------------------------------------------------------


def test_fresh_actor_is_uniform_with_full_entropy():
    env = tiny_env()
    agent, obs = fresh_agent(env)
    probs, logp = agent.policy(obs.state.reshape(1, -1))
    m = agent.num_models
    assert np.allclose(probs, 1.0 / m)
    entropy = -(probs * logp).sum(axis=2)
    assert np.allclose(entropy, np.log(m))


def test_action_distributions_sum_to_one():
    env = tiny_env()
    agent, _ = fresh_agent(env)
    randomize(agent, np.random.default_rng(1), scale=2.0)
    states = np.random.default_rng(2).random((5, agent.state_dim))
    probs, _ = agent.policy(states)
    assert np.allclose(probs.sum(axis=2), 1.0, atol=1e-9)


def test_softmax_shift_invariance():
    from isccsim.sac import log_softmax

    logits = np.random.default_rng(3).normal(size=(4, 6))
    assert np.allclose(log_softmax(logits), log_softmax(logits + 11.25))


def test_entropy_stays_within_bounds():
    env = tiny_env()
    agent, _ = fresh_agent(env)
    randomize(agent, np.random.default_rng(4), scale=5.0)
    states = np.random.default_rng(5).random((32, agent.state_dim))
    probs, logp = agent.policy(states)
    entropy = -(probs * logp).sum(axis=2)
    assert np.all(entropy >= -1e-12)
    assert np.all(entropy <= np.log(agent.num_models) + 1e-12)


def test_sampling_is_reproducible():
    env = tiny_env()
    agent, obs = fresh_agent(env)
    randomize(agent, np.random.default_rng(6))
    a1 = agent.act(obs.state, np.random.default_rng(9))
    a2 = agent.act(obs.state, np.random.default_rng(9))
    assert a1 == a2


# -- update rule --------------------------------------------------------------


def test_critic_target_reduces_to_reward_when_undiscounted():
    env = tiny_env()
    agent, _ = fresh_agent(env, gamma=0.0)
    batch = probe_batch(agent, np.random.default_rng(7))
    targets = agent.critic_targets(batch)
    assert np.allclose(targets, batch["rewards"][:, None])


def test_critic_target_soft_entropy_bonus():
    # Uniform policy and zero target critics isolate the entropy term:
    # y = r + gamma * alpha * ln M on non-terminal transitions.
    env = tiny_env()
    agent, _ = fresh_agent(env, gamma=0.5)
    batch = probe_batch(agent, np.random.default_rng(8))
    batch["dones"][:] = 0.0
    targets = agent.critic_targets(batch)
    expected = batch["rewards"][:, None] + 0.5 * agent.alpha * np.log(agent.num_models)
    assert np.allclose(targets, expected, atol=1e-12)


def test_actor_loss_limits_to_negative_max_q():
    env = tiny_env()
    agent, _ = fresh_agent(env)
    m = agent.num_models
    # Constant logits force a near-deterministic policy on action 0, and
    # constant critic heads make min-Q known exactly.
    agent.actor.biases[-1][:] = np.array([60.0] + [0.0] * (m - 1))
    q_vals = np.tile(np.array([3.25] + [1.0] * (m - 1)), agent.num_clients)
    agent.critic1.biases[-1][:] = q_vals
    agent.critic2.biases[-1][:] = q_vals + 0.5
    agent.log_alpha = -60.0
    batch = probe_batch(agent, np.random.default_rng(10))
    loss, _, _ = agent.actor_loss(batch)
    assert loss == pytest.approx(-3.25, abs=1e-8)


def test_zero_learning_rate_leaves_parameters_unchanged():
    env = tiny_env()
    agent, _ = fresh_agent(env, lr_actor=0.0, lr_critic=0.0, lr_alpha=0.0,
                           batch_size=8)
    randomize(agent, np.random.default_rng(11))
    before = [net.get_flat().copy() for net in
              (agent.actor, agent.critic1, agent.critic2)]
    log_alpha_before = agent.log_alpha
    losses = agent.update(probe_batch(agent, np.random.default_rng(12)))
    assert all(np.isfinite(v) for v in losses.values())
    after = [net.get_flat() for net in
             (agent.actor, agent.critic1, agent.critic2)]
    for b, a in zip(before, after):
        assert np.array_equal(b, a)
    assert agent.log_alpha == log_alpha_before


def test_update_moves_targets_by_polyak_fraction():
    env = tiny_env()
    agent, _ = fresh_agent(env, batch_size=8)
    randomize(agent, np.random.default_rng(13))
    agent.target1 = agent.critic1.clone()
    critic_before = agent.critic1.get_flat().copy()
    agent.update(probe_batch(agent, np.random.default_rng(14)))
    expected = (1 - 0.005) * critic_before + 0.005 * agent.critic1.get_flat()
    assert np.allclose(agent.target1.get_flat(), expected, atol=1e-12)


def test_temperature_stays_positive_and_adapts():
    env = tiny_env()
    agent, _ = fresh_agent(env, batch_size=8, lr_alpha=0.1)
    randomize(agent, np.random.default_rng(15), scale=3.0)
    rng = np.random.default_rng(16)
    for _ in range(5):
        agent.update(probe_batch(agent, rng))
    assert agent.alpha > 0.0
    assert agent.log_alpha != 0.0


def test_config_rejects_bad_discount_and_tau():
    with pytest.raises(ValueError):
        SacConfig(gamma=1.0).validate()
    with pytest.raises(ValueError):
        SacConfig(tau=0.0).validate()
    with pytest.raises(ValueError):
        SacConfig(batch_size=64, replay_capacity=32).validate()


def test_agent_rejects_mismatched_state_layout():
    with pytest.raises(LayoutMismatch):
        SacAgent(37, 3, 4, SacConfig(), np.random.default_rng(0))


# -- gradient verification -----------------------------------------------------


def test_linear_quadratic_gradients_are_exact():
    rng = np.random.default_rng(20)
    net = Mlp((3, 2), rng)
    x = rng.normal(size=(4, 3))
    target = rng.normal(size=(4, 2))

    def loss_fn():
        out, cache = net.forward(x)
        diff = out - target
        return float((diff * diff).mean()), net.backward(cache, 2 * diff / diff.size)

    err = gradient_check(net, loss_fn, np.random.default_rng(21),
                         sample_fraction=1.0)
    assert err <= 1e-8


def test_corrupted_gradient_is_flagged():
    rng = np.random.default_rng(22)
    net = Mlp((3, 2), rng)
    x = rng.normal(size=(4, 3))
    target = rng.normal(size=(4, 2))

    def bad_loss_fn():
        out, cache = net.forward(x)
        diff = out - target
        grads_w, grads_b = net.backward(cache, 2 * diff / diff.size)
        return float((diff * diff).mean()), ([2.0 * g for g in grads_w], grads_b)

    err = gradient_check(net, bad_loss_fn, np.random.default_rng(23),
                         sample_fraction=1.0)
    assert err > 1e-2


def test_actor_gradients_match_finite_differences():
    env = tiny_env()
    agent, _ = fresh_agent(env)
    randomize(agent, np.random.default_rng(24))
    batch = probe_batch(agent, np.random.default_rng(25))

    def loss_fn():
        loss, grads, _ = agent.actor_loss(batch)
        return loss, grads

    err = gradient_check(agent.actor, loss_fn, np.random.default_rng(26))
    assert err <= 1e-4


def random_agent(n, m, hidden, seed):
    """An agent for N clients and M models with random actor and critics."""
    state_dim = n * (4 + m) + n * m
    agent = SacAgent(state_dim, n, m, SacConfig(hidden=hidden),
                     np.random.default_rng(seed))
    randomize(agent, np.random.default_rng(seed + 1))
    return agent


def reference_actor_loss(agent, batch):
    """`actor_loss` with the first layer on the materialised `actor_inputs`
    rows, i.e. `actor.forward(actor_inputs(states))` and `actor.backward`."""
    ref = copy.copy(agent)
    ref._first_layer = lambda states, w, b: agent.actor_inputs(states) @ w + b
    ref._first_layer_grad = lambda states, delta: agent.actor_inputs(states).T @ delta
    return ref.actor_loss(batch)


def assert_close(got, expected, rtol=1e-12):
    """Elementwise agreement relative to the largest reference magnitude."""
    scale = max(float(np.abs(expected).max(initial=0.0)), 1e-300)
    assert got.shape == expected.shape
    assert float(np.abs(got - expected).max(initial=0.0)) <= rtol * scale


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 4), b=st.integers(1, 9),
       hidden=st.integers(1, 12), seed=st.integers(0, 2**31))
@example(n=5, m=3, b=1, hidden=7, seed=0)  # the single row `act` passes
def test_factorised_actor_matches_materialised_rows(n, m, b, hidden, seed):
    agent = random_agent(n, m, hidden, seed)
    batch = probe_batch(agent, np.random.default_rng(seed + 2), size=b)
    states = batch["states"]

    logits, _ = agent.actor.forward(agent.actor_inputs(states))
    factorised, _ = agent.actor.forward(states, first_layer=agent._first_layer)
    assert_close(factorised, logits)
    probs, logp = agent.policy(states)
    expected_logp = log_softmax(logits).reshape(b, n, m)
    assert_close(logp, expected_logp)
    assert_close(probs, np.exp(expected_logp))

    loss, (grads_w, grads_b), entropy = agent.actor_loss(batch)
    ref_loss, (ref_w, ref_b), ref_entropy = reference_actor_loss(agent, batch)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
    assert entropy == pytest.approx(ref_entropy, rel=1e-12, abs=1e-12)
    for got, expected in zip(grads_w + grads_b, ref_w + ref_b):
        assert_close(got, expected)


def test_factorised_actor_reads_weights_replaced_by_set_flat(tmp_path):
    env = tiny_env()
    agent, _ = fresh_agent(env)
    assert agent.num_models > 1
    states = np.random.default_rng(40).random((4, agent.state_dim))
    uniform, _ = agent.policy(states)

    agent.actor.set_flat(np.random.default_rng(41).normal(0.0, 0.5, agent.actor.num_params))
    probs, _ = agent.policy(states)
    logits, _ = agent.actor.forward(agent.actor_inputs(states))
    assert not np.allclose(probs, uniform)
    assert_close(probs, np.exp(log_softmax(logits)).reshape(probs.shape))

    path = tmp_path / "policy.bin"
    agent.save(str(path))
    twin = SacAgent.load(str(path))
    assert np.array_equal(twin.policy(states)[0], probs)


def test_critic_gradients_match_finite_differences():
    env = tiny_env()
    agent, _ = fresh_agent(env)
    randomize(agent, np.random.default_rng(27))
    batch = probe_batch(agent, np.random.default_rng(28))
    targets = agent.critic_targets(batch)

    def loss_fn():
        return agent.critic_loss(agent.critic1, batch, targets)

    err = gradient_check(agent.critic1, loss_fn, np.random.default_rng(29))
    assert err <= 1e-4


def test_temperature_gradient_matches_finite_differences():
    env = tiny_env()
    agent, _ = fresh_agent(env)
    err = scalar_gradient_check(
        agent.log_alpha, lambda la: agent.temperature_loss(la, entropy=0.31)
    )
    assert err <= 1e-4


# -- replay buffer --------------------------------------------------------------


def test_buffer_ring_overwrites_oldest():
    buf = ReplayBuffer(capacity=4, state_dim=2, num_clients=1)
    for k in range(7):
        buf.push([k, k], [0], float(k), [k, k], False)
    assert buf.size == 4
    assert sorted(buf.rewards.tolist()) == [3.0, 4.0, 5.0, 6.0]


def test_buffer_sampling_is_reproducible():
    buf = ReplayBuffer(capacity=16, state_dim=2, num_clients=1)
    for k in range(10):
        buf.push([k, 0], [0], float(k), [k, 0], False)
    a = buf.sample(np.random.default_rng(30), 6)
    b = buf.sample(np.random.default_rng(30), 6)
    assert np.array_equal(a["rewards"], b["rewards"])
    assert np.array_equal(a["states"], b["states"])


def test_team_reward_matches_trace_gains():
    env = tiny_env()
    obs = env.reset()
    policy = RandomPolicy(seed=3)
    done = False
    while not done:
        action = policy.decide(obs)
        obs, reward, done = env.step(action)
        assert reward == pytest.approx(sum(env.trace.rounds[-1].gains))


# -- training loop ---------------------------------------------------------------


def test_zero_steps_returns_uniform_policy():
    env = tiny_env()
    result = train(env, SacConfig(total_steps=0, hidden=8))
    probs, _ = result.agent.policy(
        np.random.default_rng(31).random((3, result.agent.state_dim))
    )
    assert np.allclose(probs, 1.0 / result.agent.num_models)
    assert result.curve == []
    assert result.steps == 0


def test_same_seed_gives_identical_curves():
    config = SacConfig(total_steps=24, warmup_steps=6, batch_size=4,
                       replay_capacity=64, hidden=8, seed=5,
                       eval_interval_episodes=10_000)
    r1 = train(tiny_env(), config)
    r2 = train(tiny_env(), config)
    assert r1.curve == r2.curve
    assert np.array_equal(r1.agent.actor.get_flat(), r2.agent.actor.get_flat())


def test_curve_rows_have_contract_fields():
    config = SacConfig(total_steps=10, warmup_steps=4, batch_size=4,
                       replay_capacity=32, hidden=8,
                       eval_interval_episodes=10_000)
    result = train(tiny_env(), config)
    assert result.steps == 10
    for row in result.curve:
        assert set(row) == {"episode", "steps", "cumulative_gain",
                            "actor_loss", "critic_loss", "alpha", "entropy"}
        assert all(np.isfinite(v) for v in row.values())


def test_policy_rejects_foreign_layout():
    env = tiny_env()
    result = train(env, SacConfig(total_steps=0, hidden=8))
    other = tiny_env(num_clients=3)
    obs = other.reset()
    with pytest.raises(LayoutMismatch):
        result.policy.decide(obs)


def test_save_load_roundtrip(tmp_path):
    env = tiny_env()
    config = SacConfig(total_steps=16, warmup_steps=4, batch_size=4,
                       replay_capacity=32, hidden=8,
                       eval_interval_episodes=10_000)
    result = train(env, config)
    path = tmp_path / "policy.bin"
    result.agent.save(str(path), norms=env.norms)
    twin = load_policy(str(path))
    states = np.random.default_rng(33).random((4, result.agent.state_dim))
    p0, _ = result.agent.policy(states)
    p1, _ = twin.agent.policy(states)
    assert np.array_equal(p0, p1)
    assert twin.agent.log_alpha == result.agent.log_alpha


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a policy")
    with pytest.raises(ValueError):
        load_policy(str(path))
