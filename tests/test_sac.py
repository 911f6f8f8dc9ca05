"""State encoding, hand-rolled backprop, and the soft actor-critic learner."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_scenarios
from isccsim import episode
from isccsim.encoding import (
    EncodingNorms,
    LayoutMismatch,
    default_norms,
    encode_state,
    layout_length,
)
from isccsim.episode import RoundEnv, run_episode
from isccsim.gain import SensingParams, build_gain_graph
from isccsim.mlp import Mlp, gradient_check, interleave, scalar_gradient_check
from isccsim.network import ScenarioConfig, generate_scenario, spectral_efficiency
from isccsim.policies import FixedSequencePolicy, GreedyGainPolicy, RandomPolicy, make_policy
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


# -- the state on demand ------------------------------------------------------


@pytest.mark.parametrize("policy", ["greedy", "ml-c", "random", "fixed"])
def test_heuristic_episodes_never_encode_the_state(policy, monkeypatch):
    def refuse(*args):
        raise AssertionError("state encoded")

    monkeypatch.setattr(episode, "encode_state", refuse)
    env = tiny_env(num_clients=3, num_rounds=3)
    decider = FixedSequencePolicy([[0, 1, 0]] * 3) if policy == "fixed" else make_policy(policy, 4)
    trace = run_episode(env.scenario_factory(0), decider, env.schedule, env.pool_cfg, env.sensing)
    assert len(trace.rounds) == 3


@pytest.fixture
def eager_states(monkeypatch):
    """What `encode_state` gives for each observation when it is made, by its
    graph's id; the graph is kept so that no id is reused."""
    states = {}
    observe = RoundEnv._observe

    def observe_and_encode(self):
        obs = observe(self)
        fracs = self.bank.residual_fraction().T
        states[id(obs.graph)] = (obs.graph, encode_state(self.scenario, fracs, obs.graph, self.norms))
        return obs

    monkeypatch.setattr(RoundEnv, "_observe", observe_and_encode)
    return states


def test_learned_policy_reads_the_state_as_observed(monkeypatch, eager_states):
    """Training, its evaluations and a `SacPolicy` episode read, bit for bit,
    the vectors eager encoding gave when each observation was made."""
    reads = []
    encode = episode.encode_state

    def spy(scenario, fracs, graph, norms):
        reads.append((graph, encode(scenario, fracs, graph, norms)))
        return reads[-1][1]

    monkeypatch.setattr(episode, "encode_state", spy)
    env = tiny_env(num_clients=3, num_rounds=3)
    config = SacConfig(total_steps=12, warmup_steps=4, batch_size=4, replay_capacity=32,
                       hidden=8, eval_interval_episodes=2)
    result = train(env, config)
    run_episode(env.scenario_factory(0), SacPolicy(result.agent), env.schedule, env.pool_cfg,
                env.sensing)
    assert len(reads) > 12
    for graph, state in reads:
        assert np.array_equal(state, eager_states[id(graph)][1])


def test_state_read_after_the_env_stepped_is_the_observed_one(eager_states):
    env = tiny_env(num_clients=3, num_rounds=3)
    obs = env.reset()
    positions, fracs = env.scenario.positions.copy(), env.bank.residual_fraction()
    env.step(GreedyGainPolicy().decide(obs))
    assert not np.array_equal(env.scenario.positions, positions)
    assert not np.array_equal(env.bank.residual_fraction(), fracs)
    assert np.array_equal(obs.state, eager_states[id(obs.graph)][1])


def test_state_checks_run_when_the_state_is_read(monkeypatch):
    monkeypatch.setattr(episode, "default_norms",
                        lambda *args, **kwargs: EncodingNorms(eta_norm=math.nan, gain_norm=1.0))
    obs = tiny_env().reset()
    with pytest.raises(ValueError, match="non-finite state feature"):
        obs.state
    monkeypatch.undo()
    build = episode.build_gain_graph
    monkeypatch.setattr(episode, "build_gain_graph",
                        lambda *args: dataclasses.replace(build(*args), model_ids=[0]))
    obs = tiny_env().reset()
    with pytest.raises(LayoutMismatch):
        obs.state


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


def assert_close(got, expected, rtol=1e-12):
    """Elementwise agreement relative to the largest reference magnitude."""
    scale = max(float(np.abs(expected).max(initial=0.0)), 1e-300)
    assert got.shape == expected.shape
    assert float(np.abs(got - expected).max(initial=0.0)) <= rtol * scale


def client_major(agent, states):
    """(B, D) states -> (B, N, block + M): each client's block, then its weights."""
    b, n = states.shape[0], agent.num_clients
    split = n * agent.block
    return np.concatenate([states[:, :split].reshape(b, n, agent.block),
                           states[:, split:].reshape(b, n, agent.num_models)], axis=2)


def from_client_major(agent, rows):
    """Inverse of `client_major`: (B, N, block + M) -> (B, D) states."""
    b = rows.shape[0]
    return np.concatenate([rows[:, :, :agent.block].reshape(b, -1),
                           rows[:, :, agent.block:].reshape(b, -1)], axis=1)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), m=st.integers(1, 4), b=st.integers(1, 9),
       hidden=st.integers(1, 12), seed=st.integers(0, 2**31))
@example(n=5, m=3, b=1, hidden=7, seed=0)  # the single row `act` passes
def test_client_policy_reads_only_its_own_rows(n, m, b, hidden, seed):
    agent = random_agent(n, m, hidden, seed)
    rng = np.random.default_rng(seed + 2)
    states = rng.random((b, agent.state_dim))
    i = int(rng.integers(n))
    rows = client_major(agent, states)
    others = np.arange(n) != i
    rows[:, others] = rng.random(rows[:, others].shape)
    changed = from_client_major(agent, rows)
    assert not np.array_equal(changed, states)

    probs, logp = agent.policy(states)
    probs_changed, logp_changed = agent.policy(changed)
    assert np.array_equal(probs_changed[:, i], probs[:, i])
    assert np.array_equal(logp_changed[:, i], logp[:, i])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), m=st.integers(1, 4), b=st.integers(1, 9),
       hidden=st.integers(1, 12), seed=st.integers(0, 2**31))
def test_permuting_clients_permutes_policy_rows(n, m, b, hidden, seed):
    agent = random_agent(n, m, hidden, seed)
    rng = np.random.default_rng(seed + 2)
    states = rng.random((b, agent.state_dim))
    perm = rng.permutation(n)
    permuted = from_client_major(agent, client_major(agent, states)[:, perm])

    probs, logp = agent.policy(states)
    probs_perm, logp_perm = agent.policy(permuted)
    assert_close(logp_perm, logp[:, perm])
    assert_close(probs_perm, probs[:, perm])


def test_actor_reads_weights_replaced_by_set_flat(tmp_path):
    env = tiny_env()
    agent, _ = fresh_agent(env)
    assert agent.num_models > 1
    states = np.random.default_rng(40).random((4, agent.state_dim))
    uniform, _ = agent.policy(states)

    agent.actor.set_flat(np.random.default_rng(41).normal(0.0, 0.5, agent.actor.num_params))
    probs, _ = agent.policy(states)
    assert not np.allclose(probs, uniform)

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


# -- in-place arithmetic ---------------------------------------------------------
# The network and loss code updates its own temporaries in place. These
# references are the allocating formulas it replaced; results must match
# them bit for bit, and no caller-owned array may be written.


def reference_forward(net, x):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    acts = [x]
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        h = z if i == last else np.tanh(z)
        acts.append(h)
    return h, acts


def reference_backward(net, acts, grad_out):
    grads_w = [np.empty(0)] * len(net.weights)
    grads_b = [np.empty(0)] * len(net.biases)
    delta = np.asarray(grad_out, dtype=np.float64)
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (1.0 - acts[i] ** 2)
    return grads_w, grads_b


def reference_log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def reference_actor_loss(agent, batch):
    states = batch["states"]
    b = states.shape[0]
    n, m = agent.num_clients, agent.num_models
    logits, cache = reference_forward(agent.actor, agent.actor_inputs(states))
    logp = reference_log_softmax(logits)
    probs = np.exp(logp)
    q1 = reference_forward(agent.critic1, states)[0].reshape(b, n, m)
    q2 = reference_forward(agent.critic2, states)[0].reshape(b, n, m)
    q = np.minimum(q1, q2).reshape(b * n, m)
    g = agent.alpha * logp - q
    per_row = (probs * g).sum(axis=1)
    loss = float(per_row.mean())
    grad_logits = probs * (g - per_row[:, None]) / per_row.size
    entropy = float(-(probs * logp).sum(axis=1).mean())
    return loss, reference_backward(agent.actor, cache, grad_logits), entropy


def random_net(sizes, seed):
    """A net with every weight and bias random, so no layer adds zeros."""
    rng = np.random.default_rng(seed)
    net = Mlp(sizes, rng)
    net.set_flat(rng.normal(0.0, 0.8, net.num_params))
    return net


def assert_all_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


NET_SIZES = [(5, 3), (5, 7, 3), (5, 7, 6, 3)]


@pytest.mark.parametrize("sizes", NET_SIZES)
@pytest.mark.parametrize("rows", [1, 2, 37])
def test_mlp_matches_allocating_formulas_bit_for_bit(sizes, rows):
    net = random_net(sizes, [60, len(sizes), rows])
    rng = np.random.default_rng([61, len(sizes), rows])
    x = rng.normal(0.0, 2.0, (rows, sizes[0]))
    out, acts = net.forward(x)
    ref_out, ref_acts = reference_forward(net, x)
    assert np.array_equal(out, ref_out)
    assert_all_equal(acts, ref_acts)

    grad_out = rng.normal(size=out.shape)
    grads = net.backward(acts, grad_out)
    assert_all_equal(interleave(*grads), interleave(*reference_backward(net, ref_acts, grad_out)))


@pytest.mark.parametrize("sizes", NET_SIZES)
def test_mlp_forward_of_one_vector_matches_allocating_formulas(sizes):
    net = random_net(sizes, [62, len(sizes)])
    x = np.random.default_rng([63, len(sizes)]).normal(size=sizes[0])
    out, acts = net.forward(x)
    ref_out, ref_acts = reference_forward(net, x)
    assert out.shape == (1, sizes[-1])
    assert np.array_equal(out, ref_out)
    assert_all_equal(acts, ref_acts)


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (7, 4), (3, 5, 6), (400, 4)])
def test_log_softmax_matches_allocating_formula_bit_for_bit(shape):
    """On random logits, on ties at the row max (signed zeros among them) and
    on magnitudes up to 1e300, the row max folded over the columns gives the
    max(axis=-1) formula exactly."""
    rng = np.random.default_rng([64, *shape])
    for logits in (rng.normal(0.0, 30.0, shape),
                   rng.choice([-1.5, -0.0, 0.0, 2.0, 2.0], shape),
                   rng.normal(0.0, 1.0, shape) * 10.0 ** rng.integers(-300, 300, shape)):
        kept = logits.copy()
        assert np.array_equal(log_softmax(logits), reference_log_softmax(logits))
        assert np.array_equal(logits, kept)


@pytest.mark.parametrize("hidden", [1, 9])
def test_actor_loss_matches_allocating_formulas_bit_for_bit(hidden):
    agent = random_agent(4, 3, hidden, seed=65)
    agent.log_alpha = -0.7
    batch = probe_batch(agent, np.random.default_rng(66), size=6)
    loss, grads, entropy = agent.actor_loss(batch)
    ref_loss, ref_grads, ref_entropy = reference_actor_loss(agent, batch)
    assert (loss, entropy) == (ref_loss, ref_entropy)
    assert_all_equal(interleave(*grads), interleave(*ref_grads))


@pytest.mark.parametrize("sizes", NET_SIZES)
def test_mlp_writes_no_caller_array(sizes):
    """forward leaves x unchanged; backward leaves grad_out and every array
    of the activations cache unchanged, so the cache can be reused."""
    net = random_net(sizes, [67, len(sizes)])
    rng = np.random.default_rng([68, len(sizes)])
    x = rng.normal(size=(9, sizes[0]))
    x_kept = x.copy()
    out, acts = net.forward(x)
    assert np.array_equal(x, x_kept)
    acts_kept = [a.copy() for a in acts]
    grad_out = rng.normal(size=out.shape)
    grad_kept = grad_out.copy()
    first = net.backward(acts, grad_out)
    assert np.array_equal(grad_out, grad_kept)
    assert_all_equal(acts, acts_kept)
    assert np.array_equal(x, x_kept)
    assert_all_equal(interleave(*net.backward(acts, grad_out)), interleave(*first))


def scratch_buffers(scratch):
    return [a for layer in scratch for a in layer if a is not None]


def scratch_nbytes(scratch):
    """Bytes of the distinct arrays under a scratch set's arrays and views."""
    owners = {}
    for a in scratch_buffers(scratch):
        owner = a if a.base is None else a.base
        owners[id(owner)] = owner.nbytes
    return sum(owners.values())


def scratch_formula_nbytes(sizes, rows):
    """Each layer's output plus one product buffer as wide as the widest
    hidden layer, in float64."""
    return 8 * rows * (sum(sizes[1:]) + max(sizes[1:-1], default=0))


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=2, max_size=5),
       rows=st.integers(1, 40), seed=st.integers(0, 2**31))
def test_mlp_scratch_path_matches_allocating_path(sizes, rows, seed):
    """forward/backward writing into `Mlp.scratch` buffers give the outputs,
    cache and gradients of the path without them, bit for bit, read nothing
    stale from the buffers, and write no array of the caller's. Backward
    overwrites only the hidden activations, which the set owns, and a new
    forward into the set makes it ready for the next backward."""
    net = random_net(tuple(sizes), seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 2.0, (rows, sizes[0]))
    grad_out = rng.normal(size=(rows, sizes[-1]))
    kept = [x.copy(), grad_out.copy()] + [p.copy() for p in net.params()]
    _, acts = net.forward(x)
    acts_kept = [a.copy() for a in acts]
    grads = interleave(*net.backward(acts, grad_out))

    scratch = net.scratch(rows)
    buffers = scratch_buffers(scratch)
    for a in buffers:
        a.fill(np.nan)
    s_out, s_acts = net.forward(x, scratch)
    assert s_out is scratch[-1][0]
    assert s_acts[0] is x
    assert all(a is layer[0] for a, layer in zip(s_acts[1:], scratch))
    assert_all_equal(s_acts, acts)
    s_grads = interleave(*net.backward(s_acts, grad_out, scratch))
    assert_all_equal(s_grads, grads)
    assert np.array_equal(s_acts[0], acts[0])
    assert np.array_equal(s_acts[-1], acts[-1])
    assert_all_equal([x, grad_out] + net.params(), kept)
    assert not any(np.shares_memory(g, a) for g in s_grads for a in buffers)

    net.forward(x, scratch)
    assert_all_equal(interleave(*net.backward(s_acts, grad_out, scratch)), grads)
    # A cache from a forward without the set is read, never written.
    assert_all_equal(interleave(*net.backward(acts, grad_out, scratch)), grads)
    assert_all_equal(acts, acts_kept)


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=2, max_size=5),
       rows=st.integers(1, 40))
def test_mlp_scratch_holds_outputs_and_one_product_buffer(sizes, rows):
    net = Mlp(tuple(sizes), np.random.default_rng(0))
    assert scratch_nbytes(net.scratch(rows)) == scratch_formula_nbytes(sizes, rows)


def test_default_actor_scratch_footprint():
    net = Mlp((12, 64, 64, 4), np.random.default_rng(0))
    assert scratch_nbytes(net.scratch(12_800)) == 20_070_400


def test_update_reuses_its_scratch_and_act_leaves_it_alone():
    """Updates after the first write the actor's large arrays into the same
    buffers, and an `act` between two updates changes nothing they compute."""
    rng = np.random.default_rng(71)
    agent, twin = random_agent(4, 3, 9, seed=72), random_agent(4, 3, 9, seed=72)
    first, second = probe_batch(agent, rng, size=6), probe_batch(agent, rng, size=6)
    assert agent.update(first) == twin.update(first)
    buffers = scratch_buffers(agent._scratch)
    rows = first["states"].shape[0] * agent.num_clients
    assert scratch_nbytes(agent._scratch) == scratch_formula_nbytes(agent.actor.sizes, rows)

    agent.act(second["states"][0], np.random.default_rng(73))
    actor_before = agent.actor.clone()
    assert agent.update(second) == twin.update(second)
    again = scratch_buffers(agent._scratch)
    assert len(again) == len(buffers) and all(a is b for a, b in zip(again, buffers))
    # The last forward of the update, actor_loss's, is in the output buffer.
    logits = actor_before.forward(agent.actor_inputs(second["states"]))[0]
    assert np.array_equal(agent._scratch[-1][0], logits)
    for net, twin_net in zip(agent._stacks(), twin._stacks()):
        assert np.array_equal(net.get_flat(), twin_net.get_flat())
    assert agent.log_alpha == twin.log_alpha


def test_update_writes_no_batch_array():
    agent = random_agent(4, 3, 9, seed=69)
    batch = probe_batch(agent, np.random.default_rng(70), size=6)
    kept = {k: v.copy() for k, v in batch.items()}
    agent.update(batch)
    assert batch.keys() == kept.keys()
    for key, value in kept.items():
        assert np.array_equal(batch[key], value)


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
        SacPolicy(result.agent).decide(obs)


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


# -- exact bytes ----------------------------------------------------------------

# SHA-256 of a short training run's flat parameters (every network of
# `_stacks`, in order) and of its curve as canonical JSON, recorded before
# the episode's decision-free terms moved to `reset`: the state encoding on
# the rounds' positions, the replay and the updates must not move one byte.
PINNED_TRAINING = (
    "26adc034ed1b31d85660e8859c1edad66071dc0388c9c53929bc0f5f50429ec7",
    "b308578518bcfbef2290af2adbe5e5b93acd9d2d193a6d973a3558a5f6f74df9",
)


def test_short_training_bytes_are_pinned():
    """SAC at N=50 in ZEROS mode, 40 steps: 32 of warm-up, then 8 updates."""
    env = RoundEnv(lambda i: generate_scenario(ScenarioConfig(), i),
                   plan_pipeline(5, 9, Mode.ZEROS), PoolConfig(), SensingParams())
    result = train(env, SacConfig(total_steps=40, warmup_steps=32, batch_size=32))
    flat = np.concatenate([net.get_flat() for net in result.agent._stacks()])
    curve = json.dumps(result.curve, sort_keys=True, separators=(",", ":"))
    assert (hashlib.sha256(flat.tobytes()).hexdigest(),
            hashlib.sha256(curve.encode()).hexdigest()) == PINNED_TRAINING
