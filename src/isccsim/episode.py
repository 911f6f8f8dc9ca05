"""Round-by-round episode mechanics.

Each client owns one per-frame resource pool, a row of the episode's
``PoolBank``. The episode walks the frames of its ``RoundSchedule``, which
alone places each round's phases on frames. Under the overlapped mode a
frame holds the current round's sensing claims next to the previous
round's download/compute/upload claims; the solver's coupled flag models
the resulting bandwidth contention.
Consumption claims are planned at decision time against an empty frame and
emitted into the following frame, which is empty when they arrive, so they
always fit. Generation claims are poured onto the residuals the solver was
given, so they fit too: any planned claim that does not is a program fault
and raises ``InvariantBroken``. A round's gains are the chosen edges' weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoding import default_norms, encode_state
from .gain import GainGraph, SensingParams, build_gain_graph
from .network import Scenario, SensingMode, clone_scenario, step_mobility
from .pool import (
    CapacityExceeded,
    Claim,
    GridKind,
    PoolBank,
    PoolConfig,
    Process,
    UniversalResourcePool,
    pour_lanes,
)
from .schedule import Mode, RoundSchedule, ScheduleError, Violation, slots_needed, validate_cstc
from .workload import WorkloadSolution


class InvariantBroken(RuntimeError):
    """A state the episode mechanics rule out occurred: a program fault."""


@dataclass
class Observation:
    """Everything a policy may look at when deciding round r."""

    round_index: int
    scenario: Scenario
    graph: GainGraph
    state: np.ndarray  # the fixed-layout vector of `encode_state`


@dataclass
class RoundRecord:
    round_index: int
    decisions: list[int]
    gains: list[float]
    workloads: list[int]
    feasible: list[bool]
    claims: list[Claim]
    infeasible_edges: int = 0  # gain-graph edges the round's decision saw infeasible


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
    def infeasible_edges(self) -> int:
        return sum(rec.infeasible_edges for rec in self.rounds)

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
    mode: SensingMode,
    sol: WorkloadSolution,
    pool: UniversalResourcePool,
) -> tuple[list[Claim], list[Claim]]:
    """Turn a solution into (generation claims, consumption claims).

    Generation claims are poured against the live pool. Consumption claims
    are planned against the next frame, which starts empty: DL and UL take
    disjoint slot ranges and COMP the other grid, so each is poured onto
    full lanes and none changes another's pour. Raises CapacityExceeded if
    anything fails to fit.
    """
    if not sol.feasible or sol.w_star == 0:
        return [], []
    dt = pool.slot_duration
    length = pool.num_slots

    gen: list[Claim] = []
    s1 = slots_needed(sol.t_sens, dt)
    if s1 > 0:
        if mode is SensingMode.VS:
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
    freq, comp = pool.time_freq, pool.time_comp
    cons: list[Claim] = []
    # Serial order DL -> COMP -> UL, as recorded in the claim list.
    for process, grid, rng, demand, full in (
        (Process.COMM_DL, GridKind.TIME_FREQ, (0, a), sol.b_comm_hz * dt, freq),
        (Process.COMP, GridKind.TIME_COMP, (a, b), sol.f_cps * dt, comp),
        (Process.COMM_UL, GridKind.TIME_FREQ, (b, c), sol.b_comm_hz * dt, freq),
    ):
        if rng[1] <= rng[0]:
            continue
        groups = pour_lanes([full.cell_capacity] * full.num_lanes, demand)
        if groups is None:
            raise CapacityExceeded(f"{process.value} does not fit")
        cons.extend(
            Claim(client_id, round_index, process, grid, rng, lanes, amount)
            for lanes, amount in groups
        )
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

    # -- episode lifecycle ---------------------------------------------------

    def reset(self) -> Observation:
        self.episode_index += 1
        self.scenario = clone_scenario(self.scenario_factory(self.episode_index))
        self.norms = default_norms(
            self.scenario.channel,
            max_targets=max(1, len(self.scenario.targets)),
            samples_per_target=self.sensing.samples_per_target,
        )
        self.bank = PoolBank(self.pool_cfg, len(self.scenario.clients))
        self.pending: list[list[Claim]] = [[] for _ in self.scenario.clients]
        self.round_index = 1
        self.frame = 1
        self.trace = EpisodeTrace(
            self.schedule.mode, self.schedule.num_rounds, self.schedule.cr_length
        )
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
        graph = obs.graph
        solutions, gains = graph.chosen(assignment)
        claims: list[Claim] = []
        try:
            for i, client in enumerate(self.scenario.clients):
                pool = self.bank.pools[i]
                gen, cons = claims_for_solution(
                    client.client_id, r, client.sensing_mode, solutions[i], pool
                )
                for claim in gen:
                    pool.try_allocate(claim)
                self.pending[i].extend(cons)
                claims.extend(gen)
                claims.extend(cons)
        except CapacityExceeded as err:
            raise _misplaced(client.client_id, r, err) from err
        self.trace.rounds.append(RoundRecord(
            r, list(assignment), gains, [s.w_star for s in solutions],
            [s.feasible for s in solutions], claims, graph.infeasible_edges,
        ))
        reward = float(sum(gains))

        # Close each frame and open the next with the pending consumption
        # claims, until the next round's generation frame opens or, after
        # the last round, the schedule's last frame has closed.
        sched = self.schedule
        done = r == sched.num_rounds
        opens = sched.total_frames + 1 if done else sched.for_round(r + 1).gen_frame
        while self.frame < opens:
            self._close_frame()
            self.frame += 1
            self._emit_pending()
        self.round_index += 1
        if done:
            self.trace.violations = validate_cstc(sched, self.trace.all_claims())
            return None, reward, True
        return self._observe(), reward, False

    # -- internals -------------------------------------------------------

    def _emit_pending(self) -> None:
        for pool, queued in zip(self.bank.pools, self.pending):
            try:
                for claim in queued:
                    pool.try_allocate(claim)
            except CapacityExceeded as err:
                raise _misplaced(claim.client_id, claim.round_index, err) from err
            queued.clear()

    def _close_frame(self) -> None:
        f_frac, c_frac = self.bank.residual_fraction()
        self.trace.utilization.append(
            {
                "frame": self.frame,
                "freq_used": float(np.mean(1.0 - f_frac)),
                "comp_used": float(np.mean(1.0 - c_frac)),
            }
        )
        rounds = self.schedule.rounds_in_frame(self.frame)
        for pool in self.bank.pools:
            for rnd in rounds:
                pool.release_round(rnd)
        step_mobility(self.scenario, self.schedule.cr_length * self.pool_cfg.slot_duration)

    def _observe(self) -> Observation:
        sc = self.scenario
        length = self.schedule.cr_length
        dt = self.pool_cfg.slot_duration
        coupled = self.schedule.mode is Mode.ZEROS

        residuals = np.empty((len(sc.clients), 2))
        residuals[:, 0] = self.bank.rect_bandwidth_hz()
        residuals[:, 1] = self.bank.empty.compute_cps
        f_frac, c_frac = self.bank.residual_fraction()
        fracs = list(zip(f_frac.tolist(), c_frac.tolist()))
        graph = build_gain_graph(
            sc, length * dt, consumption_window(length, dt), residuals, self.sensing, coupled
        )
        state = encode_state(sc, fracs, graph, self.norms)
        self._current_obs = Observation(self.round_index, sc, graph, state)
        return self._current_obs


def _misplaced(client_id: int, round_index: int, err: CapacityExceeded) -> InvariantBroken:
    """A claim planned to fit its frame did not: the planning or the pools are wrong."""
    return InvariantBroken(
        f"claim of client {client_id} round {round_index} does not fit its frame: {err}"
    )


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
    """Replay a trace's claims frame by frame on one bank of pools.

    Confirms no cell was ever over capacity and that releasing every round
    restores the empty-pool residuals.
    """
    by_frame: dict[int, list[Claim]] = {}
    rows: dict[int, int] = {}
    for claim in trace.all_claims():
        by_frame.setdefault(schedule.frame_of(claim), []).append(claim)
        rows.setdefault(claim.client_id, len(rows))
    bank = PoolBank(pool_cfg, len(rows))
    client_of_row = list(rows)

    failures: list[str] = []
    max_util = 0.0
    for frame in sorted(by_frame):
        rounds: dict[int, set[int]] = {}
        for claim in by_frame[frame]:
            rounds.setdefault(claim.client_id, set()).add(claim.round_index)
            try:
                bank.pools[rows[claim.client_id]].try_allocate(claim)
            except CapacityExceeded:
                failures.append(
                    f"frame {frame} client {claim.client_id} round {claim.round_index} "
                    f"{claim.process.value} over capacity"
                )
        max_util = max(max_util, bank.peak_use())
        for client_id, client_rounds in rounds.items():
            for rnd in client_rounds:
                bank.pools[rows[client_id]].release_round(rnd)
        failures.extend(
            f"frame {frame} client {client_of_row[row]} release left residue"
            for row in bank.residue_rows()
        )
        bank.time_freq.fill(0.0)
        bank.time_comp.fill(0.0)
    return {
        "ok": not failures,
        "frames_checked": len(by_frame),
        "max_cell_utilization": max_util,
        "failures": failures,
    }
