"""The isccsim workloads, their correctness checks and the spans traced in them.

Every workload is a closed loop with one caller: an operation starts when the
previous one has finished. Inputs are made from the benchmark seed only; the
program receives the generated scenarios and configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from isccsim import encoding, episode, gain, mlp, network, policies, pool, sac, schedule, workload
from isccsim.gain import SensingParams
from isccsim.network import ScenarioConfig, SensingMode
from isccsim.pool import PoolConfig
from isccsim.schedule import Mode

from bench_trace import Span, SpanStore, SpanTotals

POOL = PoolConfig()
SENSING = SensingParams()

# The N=1000 scaling point: targets grow with clients as in the reference (T = 2N).
EPISODE_SCENARIO = ScenarioConfig(num_clients=1000, num_targets=2000)
EPISODE_ROUNDS = 5

# The reference scenario (N=50, T=100, M=4): state length D = 600.
TRAIN_SCENARIO = ScenarioConfig()
TRAIN_ROUNDS = 5
TRAIN_STATE_DIM = 600
# Warm-up equals the batch size, so every step after warm-up runs an update;
# the 256 warm-up steps are the fewest that fill one default batch.
TRAIN_OVERRIDES = {"total_steps": 272, "warmup_steps": 256, "eval_interval_episodes": 4}
# Disjoint scenario streams per benchmark seed: episode i uses seed*stride + i.
TRAIN_SEED_STRIDE = 1000

# The acceptance suite's tiny instance: 3 clients, 2 edges x 1 model, 3 rounds,
# so the exhaustive oracle simulates 2^(3*3) = 512 sequences per scenario.
TINY_SCENARIO = ScenarioConfig(
    area_m=200.0, num_clients=3, num_targets=10, num_edges=2, num_classes=3,
    num_models=1, v_max_mps=5.0, vs_radius_m=80.0, ws_radius_m=120.0,
)
TINY_ROUNDS = 3
ORACLE_SCENARIOS_PER_SEED = 12
# The baselines `isccsim oracle` compares with the optimum, in its order.
ORACLE_BASELINES = ("greedy", "ml-c", "ml-cc", "ml-scc", "mp-tsc", "random")
# Same dominance slack as `isccsim oracle`.
DOMINANCE_RTOL = 1e-12


@dataclass(frozen=True)
class Outcome:
    """What one operation produced, checked outside the timed region."""

    key: str             # names the input, so repeats can be compared
    client_rounds: int   # simulated (client, round) pairs in the operation
    gain: float          # headline simulated gain, for display
    record: dict         # simulated outputs only; hashed into the digest
    problems: list[str]  # failed correctness checks


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list]      # benchmark seed -> inputs
    op: Callable[[Any], Any]          # one timed operation on one input
    check: Callable[[Any, Any], Outcome]


@dataclass(frozen=True)
class ScenarioInput:
    seed: int
    scenario: network.Scenario
    schedule: schedule.RoundSchedule

    @property
    def key(self) -> str:
        return f"scenario-seed={self.seed}"


@dataclass(frozen=True)
class TrainInput:
    seed: int
    factory: Callable[[int], network.Scenario]
    schedule: schedule.RoundSchedule
    config: sac.SacConfig

    @property
    def key(self) -> str:
        return f"train-seed={self.seed}"


# -- shared checks ---------------------------------------------------------------


def claim_row(c: pool.Claim) -> list:
    return [c.client_id, c.round_index, c.process.value, c.grid.value,
            list(c.slot_range), list(c.lanes), c.amount_per_cell]


def trace_record(trace: episode.EpisodeTrace) -> dict:
    return {
        "cumulative_gain": trace.cumulative_gain,
        "rounds": [
            {"decisions": r.decisions, "gains": r.gains,
             "workloads": r.workloads, "feasible": r.feasible}
            for r in trace.rounds
        ],
        "claims": [claim_row(c) for c in trace.all_claims()],
        "violations": len(trace.violations),
    }


def episode_problems(label: str, trace: episode.EpisodeTrace, audit: dict) -> list[str]:
    problems = []
    if not audit["ok"]:
        problems.append(f"{label}: audit failed: {audit['failures'][:3]}")
    if trace.violations:
        problems.append(f"{label}: {len(trace.violations)} CSTC violations")
    if sum(trace.rewards) != trace.cumulative_gain:
        problems.append(
            f"{label}: rewards sum to {sum(trace.rewards)!r}, "
            f"cumulative gain is {trace.cumulative_gain!r}"
        )
    return problems


# -- episode-n1000-serial ---------------------------------------------------------


def episode_build(seed: int) -> list[ScenarioInput]:
    sched = schedule.plan_pipeline(EPISODE_ROUNDS, POOL.num_slots, Mode.SERIAL)
    return [ScenarioInput(seed, network.generate_scenario(EPISODE_SCENARIO, seed), sched)]


def episode_op(inp: ScenarioInput):
    trace = episode.run_episode(
        inp.scenario, policies.GreedyGainPolicy(), inp.schedule, POOL, SENSING
    )
    return trace, episode.audit_trace(trace, inp.schedule, POOL)


def episode_check(inp: ScenarioInput, raw) -> Outcome:
    trace, audit = raw
    record = {
        "seed": inp.seed,
        "makespan_slots": schedule.makespan(inp.schedule),
        "episode": trace_record(trace),
        "audit": {"frames": audit["frames_checked"],
                  "max_cell_utilization": audit["max_cell_utilization"]},
    }
    return Outcome(
        key=inp.key,
        client_rounds=len(inp.scenario.clients) * inp.schedule.num_rounds,
        gain=trace.cumulative_gain,
        record=record,
        problems=episode_problems(inp.key, trace, audit),
    )


# -- train-n50 ---------------------------------------------------------------------


def train_build(seed: int) -> list[TrainInput]:
    def factory(i: int) -> network.Scenario:
        return network.generate_scenario(TRAIN_SCENARIO, TRAIN_SEED_STRIDE * seed + i)

    sched = schedule.plan_pipeline(TRAIN_ROUNDS, POOL.num_slots, Mode.ZEROS)
    config = sac.SacConfig(seed=seed, **TRAIN_OVERRIDES)
    config.validate()
    return [TrainInput(seed, factory, sched, config)]


def train_op(inp: TrainInput):
    env = episode.RoundEnv(inp.factory, inp.schedule, POOL, SENSING)
    return env, sac.train(env, inp.config)


def train_check(inp: TrainInput, raw) -> Outcome:
    env, result = raw
    final_eval = sac.evaluate(env, result.agent)
    problems = []
    if not math.isfinite(final_eval):
        problems.append(f"{inp.key}: final eval gain {final_eval!r} is not finite")
    if result.steps != inp.config.total_steps:
        problems.append(f"{inp.key}: ran {result.steps} of {inp.config.total_steps} steps")
    if result.agent.state_dim != TRAIN_STATE_DIM:
        problems.append(f"{inp.key}: state length {result.agent.state_dim}, "
                        f"expected {TRAIN_STATE_DIM}")
    record = {
        "seed": inp.seed,
        "steps": result.steps,
        "curve": result.curve,
        "best_eval_gain": result.best_eval_gain,
        "final_eval_gain": final_eval,
        "log_alpha": result.agent.log_alpha,
    }
    return Outcome(
        key=inp.key,
        client_rounds=result.steps * result.agent.num_clients,
        gain=final_eval,
        record=record,
        problems=problems,
    )


# -- oracle-tiny -------------------------------------------------------------------


def oracle_build(seed: int) -> list[ScenarioInput]:
    sched = schedule.plan_pipeline(TINY_ROUNDS, POOL.num_slots, Mode.ZEROS)
    first = ORACLE_SCENARIOS_PER_SEED * seed
    return [
        ScenarioInput(s, network.generate_scenario(TINY_SCENARIO, s), sched)
        for s in range(first, first + ORACLE_SCENARIOS_PER_SEED)
    ]


def oracle_op(inp: ScenarioInput):
    sc = inp.scenario
    best = policies.exhaustive_optimal(sc, inp.schedule, POOL, SENSING, gain.num_models(sc))
    traces = [
        (name, episode.run_episode(sc, policies.make_policy(name, seed=inp.seed),
                                   inp.schedule, POOL, SENSING))
        for name in ORACLE_BASELINES
    ]
    return best, traces


def oracle_check(inp: ScenarioInput, raw) -> Outcome:
    best, traces = raw
    problems = []
    baselines = {}
    for name, trace in traces:
        audit = episode.audit_trace(trace, inp.schedule, POOL)
        problems += episode_problems(f"{inp.key} {name}", trace, audit)
        if trace.cumulative_gain > best.gain + DOMINANCE_RTOL * abs(best.gain):
            problems.append(f"{inp.key}: {name} gain {trace.cumulative_gain!r} "
                            f"beats the optimum {best.gain!r}")
        baselines[name] = trace_record(trace)
    record = {
        "seed": inp.seed,
        "makespan_slots": schedule.makespan(inp.schedule),
        "optimal_gain": best.gain,
        "optimal_decisions": best.decisions,
        "sequences_tried": best.sequences_tried,
        "baselines": baselines,
    }
    rollouts = best.sequences_tried + len(traces)
    return Outcome(
        key=inp.key,
        client_rounds=rollouts * len(inp.scenario.clients) * inp.schedule.num_rounds,
        gain=best.gain,
        record=record,
        problems=problems,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("episode-n1000-serial", episode_build, episode_op, episode_check),
        Workload("train-n50", train_build, train_op, train_check),
        Workload("oracle-tiny", oracle_build, oracle_op, oracle_check),
    )
}


# -- spans and per-layer metrics -----------------------------------------------------


def _solve_counts(store: SpanStore, args: tuple, sol) -> None:
    problem = args[0]
    if problem.coupled and problem.mode is SensingMode.WS:
        store.count("workload.solve_workload.coupled_calls")
    if not sol.feasible:
        store.count("workload.solve_workload.infeasible")


def _edge_counts(store: SpanStore, args: tuple, graph) -> None:
    store.count("gain.edges_solved", len(graph.edges))
    store.count("gain.edges_feasible", sum(e.solution.feasible for e in graph.edges))


def _assignment_counts(store: SpanStore, args: tuple, result) -> None:
    feasible = args[0].trace.rounds[-1].feasible
    store.count("episode.assignments", len(feasible))
    store.count("episode.assignments_feasible", sum(feasible))


def _audit_counts(store: SpanStore, args: tuple, audit: dict) -> None:
    store.maximum("pool.peak_cell_util", audit["max_cell_utilization"])


def _pour_misses(store: SpanStore, args: tuple, groups) -> None:
    if groups is None:
        store.count("pool.pour.misses")


def _violation_counts(store: SpanStore, args: tuple, violations) -> None:
    store.count("schedule.violations", len(violations))


def _sequence_counts(store: SpanStore, args: tuple, result) -> None:
    store.count("policies.exhaustive_optimal.sequences", result.sequences_tried)


def _actor_input_bytes(store: SpanStore, args: tuple, rows) -> None:
    store.count("sac.actor_inputs.bytes", rows.nbytes)


POLICY_CLASSES = (
    policies.GreedyGainPolicy, policies.MlCPolicy, policies.MlCcPolicy,
    policies.MlSccPolicy, policies.MpTscPolicy, policies.RandomPolicy,
    policies.FixedSequencePolicy, sac.SacPolicy,
)

Pool = pool.UniversalResourcePool

SPANS = (
    Span("network.generate_scenario", network, "generate_scenario"),
    Span("network.sense_targets", network, "sense_targets"),
    Span("network.spectral_efficiency", network, "spectral_efficiency"),
    Span("network.step_mobility", network, "step_mobility"),
    Span("workload.solve_workload", workload, "solve_workload", after=_solve_counts),
    Span("workload.latency_components", workload, "latency_components"),
    Span("gain.build_gain_graph", gain, "build_gain_graph", after=_edge_counts),
    Span("gain.similarity", gain, "similarity"),
    Span("encoding.encode_state", encoding, "encode_state"),
    Span("episode.reset", episode.RoundEnv, "reset"),
    Span("episode.step", episode.RoundEnv, "step", after=_assignment_counts),
    Span("episode.claims_for_solution", episode, "claims_for_solution",
         rejects=(pool.CapacityExceeded,)),
    Span("episode.audit_trace", episode, "audit_trace", after=_audit_counts),
    Span("pool.try_allocate", Pool, "try_allocate", rejects=(pool.CapacityExceeded,)),
    Span("pool.release_round", Pool, "release_round"),
    Span("pool.pour", Pool, "_pour", after=_pour_misses),
    Span("pool.residual_fraction", Pool, "residual_fraction"),
    Span("pool.rect_bandwidth_hz", Pool, "rect_bandwidth_hz"),
    Span("pool.build", PoolConfig, "build"),
    Span("schedule.validate_cstc", schedule, "validate_cstc", after=_violation_counts),
    *(Span(f"policies.decide.{cls.name}", cls, "decide") for cls in POLICY_CLASSES),
    Span("policies.exhaustive_optimal", policies, "exhaustive_optimal", after=_sequence_counts),
    Span("mlp.forward", mlp.Mlp, "forward"),
    Span("mlp.backward", mlp.Mlp, "backward"),
    Span("mlp.adam_step", mlp.Adam, "step"),
    Span("mlp.polyak_update", mlp, "polyak_update"),
    Span("sac.actor_inputs", sac.SacAgent, "actor_inputs", after=_actor_input_bytes),
    Span("sac.update", sac.SacAgent, "update"),
    Span("sac.act", sac.SacAgent, "act"),
    Span("sac.replay_sample", sac.ReplayBuffer, "sample"),
    Span("sac.evaluate", sac, "evaluate"),
)

# Spans whose call count is reported (per operation).
COUNTED_SPANS = (
    "network.sense_targets", "workload.solve_workload", "gain.similarity",
    "encoding.encode_state", "episode.claims_for_solution", "pool.try_allocate",
    "pool.release_round", "pool.pour", "pool.build", "schedule.validate_cstc",
    "mlp.forward", "sac.actor_inputs", "sac.update",
)
# Counters reported per operation: (name, unit, better).
PER_OP_COUNTERS = (
    ("workload.solve_workload.coupled_calls", "count", "lower"),
    ("workload.solve_workload.infeasible", "count", "lower"),
    ("episode.claims_for_solution.rejected", "count", "lower"),
    ("pool.try_allocate.rejected", "count", "lower"),
    ("pool.pour.misses", "count", "lower"),
    ("schedule.violations", "count", "lower"),
    ("policies.exhaustive_optimal.sequences", "count", "lower"),
    ("sac.actor_inputs.bytes", "B", "lower"),
)
# Useful outcomes over attempts, over the whole traced run.
RATIOS = {
    "gain.feasible_edge_frac": ("gain.edges_feasible", "gain.edges_solved"),
    "episode.feasible_assignment_frac": ("episode.assignments_feasible", "episode.assignments"),
}
MAXIMA = ("pool.peak_cell_util",)

# Run-level metrics that the harness computes from setup and tracing.
RUN_LEVEL = (
    ("setup.build_s", "s", "lower"),
    ("setup.generate_scenario.self_s", "s", "lower"),
    ("tracing.op_wall_s", "s", "lower"),
    ("tracing.setup_s_overhead", "frac", "lower"),
    ("tracing.op_s_overhead", "frac", "lower"),
    ("tracing.client_rounds_per_s_overhead", "frac", "lower"),
    ("tracing.peak_rss_mb_overhead", "MiB", "lower"),
)

PER_LAYER = (
    *((f"{s.name}.self_s", "s", "lower") for s in SPANS),
    ("other.self_s", "s", "lower"),
    *((f"{name}.calls", "count", "lower") for name in COUNTED_SPANS),
    *PER_OP_COUNTERS,
    *((name, "frac", "higher") for name in RATIOS),
    *((name, "frac", "higher") for name in MAXIMA),
    *RUN_LEVEL,
)


def layer_metrics(totals: SpanTotals, counters: dict[str, float], n_ops: int,
                  wall_s: float) -> dict[str, float]:
    """Per-operation self times, calls and counts, plus whole-run ratios.

    ``wall_s`` is the summed wall time of the ``n_ops`` traced operations;
    ``other.self_s`` is the part of it no span covers, so the self times
    add up to ``wall_s / n_ops``.
    """
    out = {f"{s.name}.self_s": totals.self_s.get(s.name, 0.0) / n_ops for s in SPANS}
    out["other.self_s"] = (wall_s - totals.top_level_s) / n_ops
    for name in COUNTED_SPANS:
        out[f"{name}.calls"] = totals.calls.get(name, 0) / n_ops
    for name, _unit, _better in PER_OP_COUNTERS:
        out[name] = counters.get(name, 0.0) / n_ops
    for name, (num, den) in RATIOS.items():
        out[name] = counters.get(num, 0.0) / counters[den] if counters.get(den) else 0.0
    for name in MAXIMA:
        out[name] = counters.get(name, 0.0)
    return out
