"""Round-by-round episode mechanics.

Each client owns one per-frame resource pool. Under the overlapped mode a
frame holds the current round's sensing claims next to the previous
round's download/compute/upload claims; the solver's coupled flag models
the resulting bandwidth contention. Consumption claims are planned at
decision time and emitted into the following frame, where they always fit
because they were sized against that frame's guaranteed-free budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoding import StateEncoding, default_norms, encode_state
from .gain import GainGraph, SensingParams, build_gain_graph, num_models
from .network import Scenario, clone_scenario, step_mobility
from .pool import (
    CapacityExceeded,
    Claim,
    GridKind,
    PoolConfig,
    Process,
    UniversalResourcePool,
)
from .schedule import Mode, RoundSchedule, ScheduleError, Violation, slots_needed, validate_cstc
from .workload import WorkloadProblem, WorkloadSolution, latency_components
from .network import SensingMode


@dataclass
class Observation:
    """Everything a policy may look at when deciding round r."""

    round_index: int
    num_rounds: int
    scenario: Scenario
    graph: GainGraph
    residuals: list[tuple[float, float]]           # (B Hz, F cycles/s) per client
    residual_fractions: list[tuple[float, float]]  # used for state encoding
    sensed_counts: list[int]
    latency_table: np.ndarray  # (N, M, 4): t_sens, t_dl, t_cp, t_ul at W=W_cap
    state: StateEncoding
    t_gen: float
    sensing: SensingParams


@dataclass
class RoundRecord:
    round_index: int
    decisions: list[int]
    gains: list[float]
    workloads: list[int]
    feasible: list[bool]
    claims: list[Claim]


@dataclass
class EpisodeTrace:
    mode: Mode
    num_rounds: int
    cr_length: int
    rounds: list[RoundRecord] = field(default_factory=list)
    utilization: list[dict] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)

    @property
    def cumulative_gain(self) -> float:
        return float(sum(sum(rec.gains) for rec in self.rounds))

    @property
    def rewards(self) -> list[float]:
        return [float(sum(rec.gains)) for rec in self.rounds]

    def all_claims(self) -> list[Claim]:
        return [c for rec in self.rounds for c in rec.claims]


def consumption_window(cr_length: int, slot_duration: float) -> float:
    """Usable consumption seconds inside one frame.

    Two slots are held back: ceil-quantizing three strictly ordered phases
    onto the slot grid can stretch the plan by up to two slots.
    """
    return max(0, cr_length - 2) * slot_duration


def plan_cons_slots(
    sol: WorkloadSolution, slot_duration: float
) -> tuple[int, int, int]:
    """Slot boundaries (a, b, c): DL in [0,a), COMP in [a,b), UL in [b,c).

    Adjacent present phases get strictly disjoint, ordered slot ranges.
    """
    a = slots_needed(sol.t_dl, slot_duration)
    b = max(a + 1, slots_needed(sol.t_dl + sol.t_cp, slot_duration)) if sol.t_cp > 0 else a
    total = sol.t_dl + sol.t_cp + sol.t_ul
    c = max(b + 1, slots_needed(total, slot_duration)) if sol.t_ul > 0 else b
    return a, b, c


def claims_for_solution(
    client_id: int,
    round_index: int,
    problem: WorkloadProblem,
    sol: WorkloadSolution,
    pool: UniversalResourcePool,
    pool_cfg: PoolConfig,
) -> tuple[list[Claim], list[Claim]]:
    """Turn a solution into (generation claims, consumption claims).

    Generation claims are poured against the live pool; consumption claims
    against a scratch pool standing in for the next, initially empty frame.
    Raises CapacityExceeded if anything fails to fit, which the caller
    records as an infeasible pair.
    """
    if not sol.feasible or sol.w_star == 0:
        return [], []
    dt = pool_cfg.slot_duration
    length = pool_cfg.num_slots

    gen: list[Claim] = []
    s1 = slots_needed(sol.t_sens, dt)
    if s1 > 0:
        if problem.mode is SensingMode.VS:
            gen.append(
                Claim(client_id, round_index, Process.SENS, GridKind.NONE, (0, s1), (), 0.0)
            )
        else:
            groups = pool.pour_bandwidth((0, s1), sol.b_sens_hz)
            if groups is None:
                raise CapacityExceeded("sensing bandwidth does not fit")
            gen.extend(
                Claim(client_id, round_index, Process.SENS, GridKind.TIME_FREQ,
                      (0, s1), lanes, amount)
                for lanes, amount in groups
            )

    a, b, c = plan_cons_slots(sol, dt)
    if c > length:
        raise CapacityExceeded(f"consumption plan needs {c} slots, frame has {length}")
    cons: list[Claim] = []
    scratch = pool_cfg.build()
    for process, rng, hz in (
        (Process.COMM_DL, (0, a), sol.b_comm_hz),
        (Process.COMM_UL, (b, c), sol.b_comm_hz),
    ):
        if rng[1] <= rng[0]:
            continue
        groups = scratch.pour_bandwidth(rng, hz)
        if groups is None:
            raise CapacityExceeded(f"{process.value} bandwidth does not fit")
        for lanes, amount in groups:
            claim = Claim(client_id, round_index, process, GridKind.TIME_FREQ, rng, lanes, amount)
            scratch.try_allocate(claim)
            cons.append(claim)
    if b > a:
        groups = scratch.pour_compute((a, b), sol.f_cps)
        if groups is None:
            raise CapacityExceeded("compute does not fit")
        for lanes, amount in groups:
            claim = Claim(client_id, round_index, Process.COMP, GridKind.TIME_COMP,
                          (a, b), lanes, amount)
            scratch.try_allocate(claim)
            cons.append(claim)
    # Keep serial order DL -> COMP -> UL in the recorded claim list.
    cons.sort(key=lambda cl: cl.slot_range[0])
    return gen, cons


class RoundEnv:
    """Step-level environment: one step = one round's matching decision."""

    def __init__(
        self,
        scenario_factory,
        schedule: RoundSchedule,
        pool_cfg: PoolConfig,
        sensing: SensingParams,
    ):
        if pool_cfg.num_slots != schedule.cr_length:
            raise ScheduleError("pool horizon must equal the frame length")
        self.scenario_factory = scenario_factory
        self.schedule = schedule
        self.pool_cfg = pool_cfg
        self.sensing = sensing
        self.episode_index = -1
        self.scenario: Scenario | None = None
        self.trace: EpisodeTrace | None = None

    def spawn_eval(self) -> "RoundEnv":
        """Independent copy pinned to the first scenario (episode index 0)."""
        first = self.scenario_factory(0)
        return RoundEnv(lambda _i: first, self.schedule, self.pool_cfg, self.sensing)

    # -- episode lifecycle ---------------------------------------------------

    def reset(self) -> Observation:
        self.episode_index += 1
        self.scenario = clone_scenario(self.scenario_factory(self.episode_index))
        self.norms = default_norms(
            self.scenario.channel,
            max_targets=max(1, len(self.scenario.targets)),
            samples_per_target=self.sensing.samples_per_target,
        )
        self.pools = {c.client_id: self.pool_cfg.build() for c in self.scenario.clients}
        self.pending: dict[int, list[Claim]] = {c.client_id: [] for c in self.scenario.clients}
        self.round_index = 1
        self.trace = EpisodeTrace(
            self.schedule.mode, self.schedule.num_rounds, self.schedule.cr_length
        )
        if self.schedule.mode is Mode.ZEROS:
            self._emit_pending()  # no-op on round 1, keeps the frame cadence uniform
        return self._observe()

    def step(self, assignment: list[int]) -> tuple[Observation | None, float, bool]:
        """Apply one round's decision; returns (next_obs, team reward, done)."""
        if self.trace is None:
            raise RuntimeError("call reset() first")
        obs = self._current_obs
        n = len(self.scenario.clients)
        m = len(obs.graph.model_ids)
        if len(assignment) != n or any(not 0 <= a < m for a in assignment):
            raise ValueError(f"assignment must give each of {n} clients a model in [0,{m})")

        r = self.round_index
        gains, workloads, feasible, claims = [], [], [], []
        for i, client in enumerate(self.scenario.clients):
            edge = obs.graph.edge(client.client_id, assignment[i])
            pool = self.pools[client.client_id]
            try:
                gen, cons = claims_for_solution(
                    client.client_id, r, edge.problem, edge.solution, pool, self.pool_cfg
                )
                for claim in gen:
                    pool.try_allocate(claim)
                self.pending[client.client_id].extend(cons)
                ok = edge.solution.feasible
                claims.extend(gen)
                claims.extend(cons)
            except CapacityExceeded:
                pool.release_round(r)
                ok = False
            gains.append(edge.weight if ok and edge.workload > 0 else 0.0)
            workloads.append(edge.workload if ok else 0)
            feasible.append(ok)
        self.trace.rounds.append(
            RoundRecord(r, list(assignment), gains, workloads, feasible, claims)
        )
        reward = float(sum(gains))

        if self.schedule.mode is Mode.ZEROS:
            self._close_frame(frame=r, rounds_to_release=(r - 1, r))
            done = r == self.schedule.num_rounds
            self.round_index += 1
            if done:
                self._flush_final_frame()
                return None, reward, True
            self._emit_pending()
        else:
            # Serial: the generation frame closes, then a dedicated
            # consumption frame runs before the next decision.
            self._close_frame(frame=2 * r - 1, rounds_to_release=(r,))
            self._emit_pending()
            self._close_frame(frame=2 * r, rounds_to_release=(r,))
            done = r == self.schedule.num_rounds
            self.round_index += 1
            if done:
                self.trace.violations = validate_cstc(self.schedule, self.trace.all_claims())
                return None, reward, True
        return self._observe(), reward, False

    # -- internals -------------------------------------------------------

    def _emit_pending(self) -> None:
        for client_id, queued in self.pending.items():
            pool = self.pools[client_id]
            for claim in queued:
                try:
                    pool.try_allocate(claim)
                except CapacityExceeded:
                    # Cannot happen for claims planned against an empty
                    # frame; recorded defensively rather than aborting.
                    self._void_round(client_id, claim.round_index)
                    break
            queued.clear()

    def _void_round(self, client_id: int, round_index: int) -> None:
        self.pools[client_id].release_round(round_index)
        for rec in self.trace.rounds:
            if rec.round_index == round_index:
                i = [c.client_id for c in self.scenario.clients].index(client_id)
                rec.gains[i] = 0.0
                rec.workloads[i] = 0
                rec.feasible[i] = False

    def _close_frame(self, frame: int, rounds_to_release: tuple[int, ...]) -> None:
        freq, comp = [], []
        for pool in self.pools.values():
            f_frac, c_frac = pool.residual_fraction()
            freq.append(1.0 - f_frac)
            comp.append(1.0 - c_frac)
        self.trace.utilization.append(
            {
                "frame": frame,
                "freq_used": float(np.mean(freq)),
                "comp_used": float(np.mean(comp)),
            }
        )
        for pool in self.pools.values():
            for rnd in rounds_to_release:
                pool.release_round(rnd)
        step_mobility(self.scenario, self.schedule.cr_length * self.pool_cfg.slot_duration)

    def _flush_final_frame(self) -> None:
        self._emit_pending()
        self._close_frame(
            frame=self.schedule.num_rounds + 1,
            rounds_to_release=(self.schedule.num_rounds,),
        )
        self.trace.violations = validate_cstc(self.schedule, self.trace.all_claims())

    def _observe(self) -> Observation:
        sc = self.scenario
        length = self.schedule.cr_length
        dt = self.pool_cfg.slot_duration
        t_gen = length * dt
        t_cons = consumption_window(length, dt)
        coupled = self.schedule.mode is Mode.ZEROS

        residuals, fracs = [], []
        for client in sc.clients:
            pool = self.pools[client.client_id]
            residuals.append((pool.rect_bandwidth_hz((0, length)), pool.compute_cps))
            fracs.append(pool.residual_fraction())
        graph = build_gain_graph(sc, t_gen, t_cons, residuals, self.sensing, coupled)

        m = len(graph.model_ids)
        table = np.zeros((len(sc.clients), m, 4))
        for i, client in enumerate(sc.clients):
            for j in range(m):
                edge = graph.edge(client.client_id, j)
                table[i, j] = latency_components(edge.problem, int(edge.problem.w_cap))
        state = encode_state(sc, fracs, graph, self.norms)
        self._current_obs = Observation(
            round_index=self.round_index,
            num_rounds=self.schedule.num_rounds,
            scenario=sc,
            graph=graph,
            residuals=residuals,
            residual_fractions=fracs,
            sensed_counts=graph.sensed_counts,
            latency_table=table,
            state=state,
            t_gen=t_gen,
            sensing=self.sensing,
        )
        return self._current_obs


def run_episode(
    scenario: Scenario,
    policy,
    schedule: RoundSchedule,
    pool_cfg: PoolConfig,
    sensing: SensingParams,
) -> EpisodeTrace:
    """Run one full episode; the caller's scenario is left untouched."""
    env = RoundEnv(lambda _: scenario, schedule, pool_cfg, sensing)
    obs = env.reset()
    done = False
    while not done:
        obs, _, done = env.step(policy.decide(obs))
    return env.trace


def audit_trace(
    trace: EpisodeTrace, schedule: RoundSchedule, pool_cfg: PoolConfig
) -> dict:
    """Replay a trace's claims frame by frame on fresh pools.

    Confirms no cell was ever over capacity and that releasing every round
    restores the empty-pool residuals.
    """
    by_frame: dict[int, list[Claim]] = {}
    for claim in trace.all_claims():
        by_frame.setdefault(schedule.frame_of(claim), []).append(claim)

    failures: list[str] = []
    max_util = 0.0
    for frame in sorted(by_frame):
        pools: dict[int, UniversalResourcePool] = {}
        rounds: dict[int, set[int]] = {}
        for claim in by_frame[frame]:
            pool = pools.get(claim.client_id)
            if pool is None:
                pool = pools[claim.client_id] = pool_cfg.build()
            rounds.setdefault(claim.client_id, set()).add(claim.round_index)
            try:
                pool.try_allocate(claim)
            except CapacityExceeded:
                failures.append(
                    f"frame {frame} client {claim.client_id} round {claim.round_index} "
                    f"{claim.process.value} over capacity"
                )
        for client_id, pool in pools.items():
            for grid in (pool.time_freq, pool.time_comp):
                if grid.used.size:
                    max_util = max(max_util, float(grid.used.max() / grid.cell_capacity))
            for rnd in rounds[client_id]:
                pool.release_round(rnd)
            freq_left = np.abs(pool.time_freq.used).max() if pool.time_freq.used.size else 0.0
            comp_left = np.abs(pool.time_comp.used).max() if pool.time_comp.used.size else 0.0
            if freq_left > 1e-9 * pool.time_freq.cell_capacity or comp_left > 1e-9 * pool.time_comp.cell_capacity:
                failures.append(f"frame {frame} client {client_id} release left residue")
    return {
        "ok": not failures,
        "frames_checked": len(by_frame),
        "max_cell_utilization": max_util,
        "failures": failures,
    }
