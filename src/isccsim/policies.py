"""Matching policies: gain-greedy, latency and sensing heuristics, random,
fixed-sequence, and the exact optimum by per-client dynamic programming."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .episode import (
    EpisodeTrace,
    InvariantBroken,
    Observation,
    consumption_window,
    kinematics_at,
    plan_round,
    run_episode,
)
from .gain import SensingParams, build_gain_graph, round_terms
from .network import Scenario, clone_scenario
from .pool import PoolBank, PoolConfig
from .schedule import Mode, RoundSchedule


# The most gain-graph rows exhaustive_optimal will build for one round: the
# clients times the most distinct states one client holds.
EXHAUSTIVE_LIMIT = 10**6


class InstanceTooLarge(ValueError):
    pass


class Policy:
    """Decision contract: an assignment of one model index per client."""

    name = "policy"

    def decide(self, obs: Observation) -> list[int]:
        raise NotImplementedError


class GreedyGainPolicy(Policy):
    """Each client takes the model with the largest gain-graph weight.

    Optimal in serial mode, where every frame starts empty: a round's gain
    graph then does not depend on earlier decisions, and each client's pool
    is its own, so the per-client maximum of each round is the optimum.
    """

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
    trace: EpisodeTrace = field(compare=False)  # the decisions' episode


def exhaustive_optimal(
    scenario: Scenario,
    schedule: RoundSchedule,
    pool_cfg: PoolConfig,
    sensing: SensingParams,
    num_models: int,
) -> OracleResult:
    """The decision sequence of largest cumulative gain, by a forward dynamic
    program per client (Bellman's principle of optimality).

    Clients never interact: a client's pool, claims and gain-graph row depend
    on its own decisions only, and mobility on none. Round r's row depends on
    the client's kinematics and on the residual bandwidth it observes: the
    empty frame's, or in overlapped mode what the previous round's
    consumption load leaves, a function of that round's state and action. So
    (round, residual bandwidth) is a sufficient state, and the best path into
    each distinct state covers all M^(N·R) sequences, the `sequences_tried`
    reported. The rounds' positions and decision-free gain terms are computed
    once, as `RoundEnv.reset` computes them; a round builds one gain graph
    per layer of the clients' k-th states from its terms, a client short of
    states repeating its last, and a round whose consumption the next round
    sees plans only that consumption load (`plan_round`'s `carry_only`).
    Paths into one state keep the larger cumulative gain, on a tie the
    lexicographically smaller prefix, as one rollout per sequence in product
    order would.

    The decisions are re-simulated once, and that trace and its cumulative
    gain are reported; a client-round gain that differs from the program's
    raises `InvariantBroken`. A round of more than `EXHAUSTIVE_LIMIT` graph
    rows raises `InstanceTooLarge`. In serial mode every frame starts empty, so
    `GreedyGainPolicy` is optimal.
    """
    n, rounds = len(scenario.clients), schedule.num_rounds
    if len(scenario.model_arrays().mixtures) != num_models:
        raise ValueError(f"the scenario has {len(scenario.model_arrays().mixtures)} models")
    t_gen = schedule.cr_length * pool_cfg.slot_duration
    t_cons = consumption_window(schedule.cr_length, pool_cfg.slot_duration)
    client_ids = np.repeat([c.client_id for c in scenario.clients], num_models)
    vs = np.repeat(scenario.model_arrays().vs[:, 0], num_models)
    empty = PoolBank(pool_cfg, n).rect_bandwidth_hz().tolist()
    # Per client: residual bandwidth -> the best path into it, as (negated
    # cumulative gain, prefix, per-round gains), so the best path is the least.
    states = [{b: (0.0, (), ())} for b in empty]
    frames = [schedule.gen_frame(r) for r in range(1, rounds + 1)]
    terms = round_terms(scenario, kinematics_at(clone_scenario(scenario), frames, t_gen)[0],
                        sensing)
    for r in range(1, rounds + 1):
        layers = [list(s.items()) for s in states]
        width = max(map(len, layers), default=1)
        if n * width > EXHAUSTIVE_LIMIT:
            raise InstanceTooLarge(f"round {r} needs {n} x {width} = {n * width} graph rows")
        # The next round sees this round's consumption load only where it
        # generates in the consumption frame; otherwise every path merges.
        carry = r < rounds and schedule.gen_frame(r + 1) == schedule.cons_frame(r)
        merged = [{} for _ in range(n)]
        for k in range(width):
            rows = [layer[min(k, len(layer) - 1)] for layer in layers]
            residuals = [(b, pool_cfg.compute_cps) for b, _ in rows]
            graph = build_gain_graph(scenario, t_gen, t_cons, residuals, sensing,
                                     schedule.mode is Mode.ZEROS, terms[r - 1])
            weights = graph.weights.tolist()
            nxt = [[b] * num_models for b in empty]
            if carry:
                bank = PoolBank(pool_cfg, n * num_models)
                solutions = graph.solutions.reshape(len(graph.solutions), -1)
                plan = plan_round(r, client_ids, vs, solutions, bank, carry_only=True)
                if bank.place(plan.cons[0], bad=plan.bad).any():  # only freq moves `nxt`
                    raise InvariantBroken(f"round {r}: a plan does not fit an empty frame")
                nxt = bank.rect_bandwidth_hz().reshape(n, num_models).tolist()
            for i, layer in enumerate(layers):
                if k >= len(layer):
                    continue
                cost, prefix, gains = layer[k][1]
                for m, w in enumerate(weights[i]):
                    path = (cost - w, (*prefix, m), (*gains, w))
                    if path < merged[i].setdefault(nxt[i][m], path):
                        merged[i][nxt[i][m]] = path
        states = merged

    best = [next(iter(s.values())) for s in states]
    decisions = tuple(tuple(p[1][r] for p in best) for r in range(rounds))
    trace = run_episode(scenario, FixedSequencePolicy([list(d) for d in decisions]),
                        schedule, pool_cfg, sensing)
    for rec in trace.rounds:
        if rec.gains != [p[2][rec.round_index - 1] for p in best]:
            raise InvariantBroken(
                f"round {rec.round_index}: re-simulated gains differ from the dynamic program's"
            )
    return OracleResult(decisions, trace.cumulative_gain, num_models ** (n * rounds), trace)


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
