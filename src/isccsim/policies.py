"""Matching policies: gain-greedy, latency and sensing heuristics, random,
fixed-sequence, and the exhaustive oracle for tiny instances."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .episode import Observation, run_episode
from .gain import SensingParams
from .network import Scenario, SensingMode
from .pool import PoolConfig
from .schedule import RoundSchedule


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
        weights = obs.graph.weight_matrix()
        return [int(np.argmax(row)) for row in weights]


class _LatencyPolicy(Policy):
    """Argmin of a subset of the full-load latency components per client."""

    components: tuple[int, ...] = ()

    def decide(self, obs: Observation) -> list[int]:
        # latency_table[:, :, k] order: t_sens, t_dl, t_cp, t_ul.
        score = obs.latency_table[:, :, list(self.components)].sum(axis=2)
        return [int(np.argmin(row)) for row in score]


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

    Both factors are model-independent here, so the score ties across
    models and the tie rule picks the lowest index: sensing-aware but
    matching-blind.
    """

    name = "mp-tsc"

    def decide(self, obs: Observation) -> list[int]:
        choices = []
        num_m = len(obs.graph.model_ids)
        for i, client in enumerate(obs.scenario.clients):
            if client.sensing_mode is SensingMode.VS:
                capacity = (
                    np.inf if obs.sensing.tau_s == 0.0 else obs.t_gen / obs.sensing.tau_s
                )
            else:
                b_hz = obs.residuals[i][0]
                capacity = (
                    np.inf if obs.sensing.sigma == 0.0
                    else b_hz * obs.sensing.rho * obs.t_gen / obs.sensing.sigma
                )
            score = np.full(num_m, obs.sensed_counts[i] * capacity)
            choices.append(int(np.argmax(score)))
        return choices


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
    limit: int = 10**6,
) -> OracleResult:
    """Enumerate every decision sequence and simulate each one.

    Ties resolve to the lexicographically smallest sequence because the
    enumeration is lexicographic and replacement is strict.
    """
    n = len(scenario.clients)
    r = schedule.num_rounds
    count = num_models ** (n * r)
    if count > limit:
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
