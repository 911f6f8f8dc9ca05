"""Matching policies: gain-greedy, latency and sensing heuristics, random,
fixed-sequence, and the exhaustive oracle for tiny instances."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .episode import Observation, run_episode
from .gain import SensingParams
from .network import Scenario
from .pool import PoolConfig
from .schedule import RoundSchedule


# The most decision sequences exhaustive_optimal will simulate.
EXHAUSTIVE_LIMIT = 10**6


class InstanceTooLarge(ValueError):
    pass


class Policy:
    """Decision contract: an assignment of one model index per client."""

    name = "policy"

    def decide(self, obs: Observation) -> list[int]:
        raise NotImplementedError


class GreedyGainPolicy(Policy):
    """Each client takes the model with the largest gain-graph weight."""

    name = "greedy"

    def decide(self, obs: Observation) -> list[int]:
        return np.argmax(obs.graph.weights, axis=1).tolist()


class _LatencyPolicy(Policy):
    """Argmin of a subset of the full-load latency components per client.

    On scenarios from `generate_scenario` the three latency baselines pick
    the same models: a client's t_sens does not depend on the model, and a
    model variant m scales bits by (1 + 0.2m) and cycles by (1 + 0.5m), so
    variant 0 wins every term and the best-communication edge's variant 0
    also minimizes the sums. They differ only on scenarios built otherwise.
    """

    components: tuple[int, ...] = ()

    def decide(self, obs: Observation) -> list[int]:
        # latency_table[:, :, k] order: t_sens, t_dl, t_cp, t_ul.
        score = obs.graph.latency_table[:, :, list(self.components)].sum(axis=2)
        return np.argmin(score, axis=1).tolist()


class MlCPolicy(_LatencyPolicy):
    """Minimum communication latency."""

    name = "ml-c"
    components = (1, 3)


class MlCcPolicy(_LatencyPolicy):
    """Minimum communication plus computing latency."""

    name = "ml-cc"
    components = (1, 2, 3)


class MlSccPolicy(_LatencyPolicy):
    """Minimum sensing plus communication plus computing latency."""

    name = "ml-scc"
    components = (0, 1, 2, 3)


class MpTscPolicy(Policy):
    """Maximum product of sensed-target count and sensing capacity.

    A client's sensed-target count and its sensing capacity (t_gen / tau_s
    samples for vision, B * rho * t_gen / sigma for wireless) do not depend
    on the model, so the product ties across all models and its argmax is
    always model 0: sensing-aware but matching-blind.
    """

    name = "mp-tsc"

    def decide(self, obs: Observation) -> list[int]:
        return [0] * len(obs.scenario.clients)


class RandomPolicy(Policy):
    """Uniform model choice; the stream is derived per round so decide is
    side-effect-free and replayable."""

    name = "random"

    def __init__(self, seed: int):
        self.seed = seed

    def decide(self, obs: Observation) -> list[int]:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, obs.round_index]))
        m = len(obs.graph.model_ids)
        return [int(a) for a in rng.integers(0, m, size=len(obs.scenario.clients))]


class FixedSequencePolicy(Policy):
    """Replays a predetermined assignment per round."""

    name = "fixed"

    def __init__(self, per_round: list[list[int]]):
        self.per_round = per_round

    def decide(self, obs: Observation) -> list[int]:
        return list(self.per_round[obs.round_index - 1])


@dataclass(frozen=True)
class OracleResult:
    decisions: tuple[tuple[int, ...], ...]  # per round
    gain: float
    sequences_tried: int


def exhaustive_optimal(
    scenario: Scenario,
    schedule: RoundSchedule,
    pool_cfg: PoolConfig,
    sensing: SensingParams,
    num_models: int,
) -> OracleResult:
    """Enumerate every decision sequence and simulate each one.

    Ties resolve to the lexicographically smallest sequence because the
    enumeration is lexicographic and replacement is strict.
    """
    n = len(scenario.clients)
    r = schedule.num_rounds
    count = num_models ** (n * r)
    if count > EXHAUSTIVE_LIMIT:
        raise InstanceTooLarge(f"{num_models}^({n}*{r}) = {count} sequences")

    best_gain = -1.0
    best_seq: tuple[int, ...] = ()
    for seq in itertools.product(range(num_models), repeat=n * r):
        per_round = [list(seq[k * n : (k + 1) * n]) for k in range(r)]
        trace = run_episode(
            scenario, FixedSequencePolicy(per_round), schedule, pool_cfg, sensing
        )
        if trace.cumulative_gain > best_gain:
            best_gain = trace.cumulative_gain
            best_seq = seq
    decisions = tuple(
        tuple(best_seq[k * n : (k + 1) * n]) for k in range(r)
    )
    return OracleResult(decisions=decisions, gain=best_gain, sequences_tried=count)


BASELINE_POLICIES = {
    "greedy": GreedyGainPolicy,
    "ml-c": MlCPolicy,
    "ml-cc": MlCcPolicy,
    "ml-scc": MlSccPolicy,
    "mp-tsc": MpTscPolicy,
}


def make_policy(name: str, seed: int = 0):
    """Instantiate a non-learned policy by CLI name."""
    if name in BASELINE_POLICIES:
        return BASELINE_POLICIES[name]()
    if name == "random":
        return RandomPolicy(seed)
    raise ValueError(
        f"unknown policy {name!r}; valid: "
        + ", ".join(sorted([*BASELINE_POLICIES, "random", "sac", "exhaustive"]))
    )
