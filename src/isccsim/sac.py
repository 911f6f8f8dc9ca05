"""Discrete soft actor-critic for multi-client model selection.

Centralized training, decentralized execution: one parameter-shared actor maps
each client's own slice of the global state (its block and its gain weights)
to a distribution over models, while twin centralized critics score every
(client, model) pair from the global state alone. Clients never interact, so
a client's best model depends on its own observation only, and the actor is
equivariant in the style of Deep Sets without a pooled context term: permuting
the clients permutes the policy's rows. Updates use the team reward, soft
value targets, and an adaptive temperature driven toward a fixed entropy
floor. All math is float64 numpy; gradients are hand-derived and validated
against finite differences."""

from __future__ import annotations

import dataclasses
import json
import logging
import struct
from dataclasses import dataclass, field

import numpy as np

from .encoding import EncodingNorms, LayoutMismatch, layout_length
from .episode import RoundEnv, run_episode
from .mlp import Adam, Mlp, interleave, polyak_update
from .policies import Policy

log = logging.getLogger("isccsim.sac")

PARAMS_MAGIC = b"ISCCSAC1"


class NonFiniteLoss(RuntimeError):
    """Raised when an update produces NaN or infinity; carries diagnostics
    and, out of `train`, the curve rows of the episodes finished before it."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics
        self.curve: list[dict] = []


@dataclass(frozen=True)
class SacConfig:
    gamma: float = 0.99
    tau: float = 0.005
    lr_actor: float = 3e-4
    lr_critic: float = 3e-4
    lr_alpha: float = 3e-4
    batch_size: int = 256
    replay_capacity: int = 100_000
    target_entropy_factor: float = 0.98
    warmup_steps: int = 1000
    updates_per_step: int = 1
    hidden: int = 64
    total_steps: int = 20_000
    eval_interval_episodes: int = 25
    target_gain: float | None = None
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.batch_size < 1 or self.replay_capacity < self.batch_size:
            raise ValueError("replay capacity must hold at least one batch")
        for name in ("total_steps", "warmup_steps", "lr_actor", "lr_critic", "lr_alpha", "seed"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.updates_per_step < 1:
            raise ValueError(f"updates_per_step must be at least 1, got {self.updates_per_step}")
        # Above 1 the entropy target exceeds log M, which no policy reaches.
        if not 0.0 <= self.target_entropy_factor <= 1.0:
            raise ValueError("target_entropy_factor must be in [0, 1], "
                             f"got {self.target_entropy_factor}")
        if self.hidden < 1 or self.eval_interval_episodes < 1:
            raise ValueError("hidden and eval_interval_episodes must be at least 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SacConfig":
        return cls(**data)


class ReplayBuffer:
    """Fixed-capacity ring buffer of transitions, stored as flat arrays."""

    def __init__(self, capacity: int, state_dim: int, num_clients: int):
        self.capacity = capacity
        self.states = np.zeros((capacity, state_dim))
        self.actions = np.zeros((capacity, num_clients), dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, state_dim))
        self.dones = np.zeros(capacity)
        self.size = 0
        self._head = 0

    def push(self, state, action, reward, next_state, done) -> None:
        i = self._head
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.dones[i] = float(done)
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int) -> dict:
        idx = rng.integers(0, self.size, size=batch_size)
        return {
            "states": self.states[idx],
            "actions": self.actions[idx],
            "rewards": self.rewards[idx],
            "next_states": self.next_states[idx],
            "dones": self.dones[idx],
        }


def log_softmax(logits: np.ndarray) -> np.ndarray:
    # The row max as a fold of np.maximum over the few model columns: exact
    # in any order, and much cheaper than max(axis=-1) over a short axis.
    top = logits[..., :1].copy()
    for j in range(1, logits.shape[-1]):
        np.maximum(top, logits[..., j : j + 1], out=top)
    shifted = logits - top
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


class SacAgent:
    """Networks, optimizers and the update rule."""

    def __init__(self, state_dim: int, num_clients: int, num_models: int,
                 config: SacConfig, rng: np.random.Generator):
        config.validate()
        self.state_dim = state_dim
        self.num_clients = num_clients
        self.num_models = num_models
        self.config = config
        self.block = 4 + num_models
        expected = layout_length(num_clients, num_models)
        if state_dim != expected:
            raise LayoutMismatch(
                f"state of length {state_dim} does not decompose into "
                f"{num_clients} clients x {num_models} models (need {expected})"
            )
        h = config.hidden
        # Zero output layers: the starting policy is exactly uniform and the
        # starting value estimates are exactly zero.
        self.actor = Mlp((self.block + num_models, h, h, num_models), rng, zero_output=True)
        self.critic1 = Mlp((state_dim, h, h, num_clients * num_models), rng,
                           zero_output=True)
        self.critic2 = Mlp((state_dim, h, h, num_clients * num_models), rng,
                           zero_output=True)
        self.target1 = self.critic1.clone()
        self.target2 = self.critic2.clone()
        self.log_alpha = 0.0
        self.target_entropy = config.target_entropy_factor * np.log(num_models)
        self.opt_actor = Adam(config.lr_actor)
        self.opt_critic1 = Adam(config.lr_critic)
        self.opt_critic2 = Adam(config.lr_critic)
        self.opt_alpha = Adam(config.lr_alpha)
        self._alpha_param = np.zeros(1)
        # The actor's large arrays in `update`, reused from one update to the
        # next: freed each time, the memory would go back to the OS and be
        # faulted in again.
        self._scratch: list[tuple] | None = None

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha))

    # -- state plumbing ----------------------------------------------------

    def actor_inputs(self, states: np.ndarray) -> np.ndarray:
        """(B, D) global states -> (B*N, block + M) per-client rows: each
        client's block, then its M gain weights."""
        states = np.atleast_2d(states)
        b, n = states.shape[0], self.num_clients
        split = n * self.block
        rows = np.concatenate([states[:, :split].reshape(b, n, self.block),
                               states[:, split:].reshape(b, n, self.num_models)],
                              axis=2)
        return rows.reshape(b * n, -1)

    def policy(self, states: np.ndarray, scratch: list[tuple] | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        """Per-client action distributions: (B, N, M) probs and log-probs."""
        logits, _ = self.actor.forward(self.actor_inputs(states), scratch)
        logp = log_softmax(logits).reshape(-1, self.num_clients, self.num_models)
        return np.exp(logp), logp

    def act(self, state: np.ndarray, rng: np.random.Generator | None = None,
            greedy: bool = False) -> list[int]:
        probs, _ = self.policy(state.reshape(1, -1))
        probs = probs[0]
        if greedy or rng is None:
            return [int(a) for a in probs.argmax(axis=1)]
        cum = probs.cumsum(axis=1)
        cum[:, -1] = 1.0 + 1e-12
        draws = rng.random((self.num_clients, 1))
        return [int(a) for a in (cum > draws).argmax(axis=1)]

    # -- losses (pure in the parameters, reusable for finite differences) ---

    def critic_targets(self, batch: dict, scratch: list[tuple] | None = None) -> np.ndarray:
        """Soft one-step targets y (B, N), no gradient flows through these."""
        nxt = batch["next_states"]
        b = nxt.shape[0]
        n, m = self.num_clients, self.num_models
        probs, logp = self.policy(nxt, scratch)
        q1 = self.target1.forward(nxt)[0].reshape(b, n, m)
        q2 = self.target2.forward(nxt)[0].reshape(b, n, m)
        soft_q = np.minimum(q1, q2) - self.alpha * logp
        value = (probs * soft_q).sum(axis=2)
        cont = self.config.gamma * (1.0 - batch["dones"])[:, None]
        return batch["rewards"][:, None] + cont * value

    def critic_loss(self, critic: Mlp, batch: dict, targets: np.ndarray):
        states = batch["states"]
        b = states.shape[0]
        n, m = self.num_clients, self.num_models
        out, cache = critic.forward(states)
        cols = np.arange(n)[None, :] * m + batch["actions"]
        rows = np.arange(b)[:, None]
        diff = out[rows, cols] - targets
        loss = float(np.mean(diff * diff))
        grad_out = np.zeros_like(out)
        grad_out[rows, cols] = 2.0 * diff / diff.size
        return loss, critic.backward(cache, grad_out)

    def actor_loss(self, batch: dict, scratch: list[tuple] | None = None):
        """Expected (alpha*log pi - min Q) under the current policy.

        With z the logits, d/dz of sum_a pi_a (alpha log pi_a - q_a) reduces
        to pi * (g - E_pi[g]) for g = alpha log pi - q: the extra alpha term
        from differentiating log pi sums to zero across actions.
        """
        states = batch["states"]
        b = states.shape[0]
        n, m = self.num_clients, self.num_models
        logits, cache = self.actor.forward(self.actor_inputs(states), scratch)
        logp = log_softmax(logits)
        probs = np.exp(logp)
        q1 = self.critic1.forward(states)[0].reshape(b, n, m)
        q2 = self.critic2.forward(states)[0].reshape(b, n, m)
        q = np.minimum(q1, q2).reshape(b * n, m)
        g = self.alpha * logp
        g -= q
        per_row = (probs * g).sum(axis=1)
        loss = float(per_row.mean())
        # grad_logits = probs * (g - E_pi[g]) / rows, built in g's buffer.
        g -= per_row[:, None]
        g *= probs
        g /= per_row.size
        entropy = float(-(probs * logp).sum(axis=1).mean())
        grads = self.actor.backward(cache, g, scratch)
        return loss, grads, entropy

    def temperature_loss(self, log_alpha: float, entropy: float):
        """Pushes alpha up when entropy dips below the target, down otherwise."""
        gap = entropy - self.target_entropy
        return log_alpha * gap, gap

    # -- one gradient step ---------------------------------------------------

    def update(self, batch: dict) -> dict:
        rows = batch["states"].shape[0] * self.num_clients
        if self._scratch is None or self._scratch[0][0].shape[0] != rows:
            self._scratch = self.actor.scratch(rows)
        targets = self.critic_targets(batch, self._scratch)
        loss1, grads1 = self.critic_loss(self.critic1, batch, targets)
        loss2, grads2 = self.critic_loss(self.critic2, batch, targets)
        self.opt_critic1.step(self.critic1.params(), interleave(*grads1))
        self.opt_critic2.step(self.critic2.params(), interleave(*grads2))

        actor_loss, actor_grads, entropy = self.actor_loss(batch, self._scratch)
        self.opt_actor.step(self.actor.params(), interleave(*actor_grads))

        alpha_loss, alpha_grad = self.temperature_loss(self.log_alpha, entropy)
        self._alpha_param[0] = self.log_alpha
        self.opt_alpha.step([self._alpha_param], [np.array([alpha_grad])])
        self.log_alpha = float(self._alpha_param[0])

        polyak_update(self.target1, self.critic1, self.config.tau)
        polyak_update(self.target2, self.critic2, self.config.tau)

        losses = {
            "critic_loss": 0.5 * (loss1 + loss2),
            "actor_loss": actor_loss,
            "alpha_loss": alpha_loss,
            "alpha": self.alpha,
            "entropy": entropy,
        }
        if not all(np.isfinite(v) for v in losses.values()):
            diag = dict(losses)
            diag["max_abs_target"] = float(np.abs(targets).max())
            diag["max_abs_actor_param"] = float(np.abs(self.actor.get_flat()).max())
            raise NonFiniteLoss("non-finite value during update", diag)
        return losses

    # -- serialization -------------------------------------------------------

    def _stacks(self) -> list[Mlp]:
        return [self.actor, self.critic1, self.critic2, self.target1, self.target2]

    def save(self, path: str, norms: EncodingNorms | None = None,
             extra: dict | None = None) -> None:
        header = {
            "state_dim": self.state_dim,
            "num_clients": self.num_clients,
            "num_models": self.num_models,
            "config": self.config.to_dict(),
            "norms": norms.to_dict() if norms is not None else None,
            "log_alpha": self.log_alpha,
            "sizes": [list(net.sizes) for net in self._stacks()],
        }
        if extra:
            header["extra"] = extra
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        flat = np.concatenate([net.get_flat() for net in self._stacks()])
        with open(path, "wb") as fh:
            fh.write(PARAMS_MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            fh.write(flat.astype("<f8").tobytes())

    @classmethod
    def load(cls, path: str) -> "SacAgent":
        with open(path, "rb") as fh:
            magic = fh.read(len(PARAMS_MAGIC))
            if magic != PARAMS_MAGIC:
                raise ValueError(f"{path} is not a saved policy file")
            (blob_len,) = struct.unpack("<Q", fh.read(8))
            header = json.loads(fh.read(blob_len).decode("utf-8"))
            flat = np.frombuffer(fh.read(), dtype="<f8")
        config = SacConfig.from_dict(header["config"])
        rng = np.random.default_rng(0)
        agent = cls(header["state_dim"], header["num_clients"],
                    header["num_models"], config, rng)
        sizes = [list(s) for s in header["sizes"]]
        expected = [list(net.sizes) for net in agent._stacks()]
        if sizes != expected:
            raise ValueError(f"saved layer sizes {sizes} do not match this build's "
                             f"{expected}; retrain the policy")
        k = 0
        for net in agent._stacks():
            net.set_flat(flat[k : k + net.num_params])
            k += net.num_params
        if k != flat.size:
            raise ValueError("trailing bytes in saved policy file")
        agent.log_alpha = float(header["log_alpha"])
        return agent


class SacPolicy(Policy):
    """Greedy execution of a trained actor."""

    name = "sac"

    def __init__(self, agent: SacAgent):
        self.agent = agent

    def decide(self, obs) -> list[int]:
        vec = obs.state
        if vec.size != self.agent.state_dim:
            raise LayoutMismatch(
                f"trained for state length {self.agent.state_dim}, "
                f"episode produced {vec.size}"
            )
        return self.agent.act(vec, greedy=True)


@dataclass
class TrainResult:
    agent: SacAgent
    curve: list[dict] = field(default_factory=list)
    steps: int = 0
    stopped_early: bool = False
    best_eval_gain: float = float("-inf")


CURVE_FIELDS = ("episode", "steps", "cumulative_gain", "actor_loss",
                "critic_loss", "alpha", "entropy")


def train(env: RoundEnv, config: SacConfig) -> TrainResult:
    """Run soft actor-critic on a round environment until the step budget or
    an eval-gain target is hit. Fully deterministic for a fixed config seed."""
    seq = np.random.SeedSequence(config.seed)
    rng_init, rng_act, rng_sample = [np.random.default_rng(s) for s in seq.spawn(3)]

    obs = env.reset()
    num_clients = len(obs.scenario.clients)
    num_models = len(obs.graph.model_ids)
    state_dim = obs.state.size
    agent = SacAgent(state_dim, num_clients, num_models, config, rng_init)
    buffer = ReplayBuffer(config.replay_capacity, state_dim, num_clients)

    result = TrainResult(agent=agent)
    # Before the first update the actor is the untouched uniform policy.
    losses = {"actor_loss": 0.0, "critic_loss": 0.0, "alpha": agent.alpha,
              "entropy": float(np.log(num_models))}
    episode = 0
    steps = 0
    while steps < config.total_steps:
        if episode > 0:
            obs = env.reset()
        episode_gain = 0.0
        done = False
        while not done and steps < config.total_steps:
            state = obs.state.copy()
            if steps < config.warmup_steps:
                action = [int(a) for a in
                          rng_act.integers(0, num_models, size=num_clients)]
            else:
                action = agent.act(state, rng_act)
            obs, reward, done = env.step(action)
            next_state = np.zeros_like(state) if done else obs.state.copy()
            buffer.push(state, action, reward, next_state, done)
            steps += 1
            episode_gain += reward
            if steps >= config.warmup_steps and buffer.size >= config.batch_size:
                for _ in range(config.updates_per_step):
                    try:
                        losses = agent.update(buffer.sample(rng_sample, config.batch_size))
                    except NonFiniteLoss as err:
                        err.curve = result.curve
                        raise
        result.curve.append({
            "episode": episode,
            "steps": steps,
            "cumulative_gain": episode_gain,
            "actor_loss": losses["actor_loss"],
            "critic_loss": losses["critic_loss"],
            "alpha": losses["alpha"],
            "entropy": losses["entropy"],
        })
        episode += 1
        due = episode % config.eval_interval_episodes == 0
        if (due or steps >= config.total_steps) and steps >= config.warmup_steps:
            eval_gain = evaluate(env, agent)
            result.best_eval_gain = max(result.best_eval_gain, eval_gain)
            log.info("episode %d steps %d eval gain %.4f alpha %.4f",
                     episode, steps, eval_gain, agent.alpha)
            if config.target_gain is not None and eval_gain >= config.target_gain:
                result.stopped_early = True
                break
    result.steps = steps
    return result


def evaluate(env: RoundEnv, agent: SacAgent) -> float:
    """Greedy rollout on a fresh copy of the environment's first scenario."""
    return run_episode(
        env.scenario_factory(0), SacPolicy(agent), env.schedule, env.pool_cfg, env.sensing
    ).cumulative_gain


def load_policy(path: str) -> SacPolicy:
    return SacPolicy(SacAgent.load(path))
