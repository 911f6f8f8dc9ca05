"""Round-by-round episode mechanics.

Each client owns one per-frame resource pool, a row of the episode's
``PoolBank``. The open frame's loads are kept in placement order and
released in that order when it closes; the ``RoundSchedule`` alone places
rounds on frames. Under the overlapped mode a frame holds the previous
round's download/compute/upload claims, then the current round's sensing
claims; the solver's coupled flag models the resulting bandwidth contention.
Consumption claims are planned at decision time against an empty frame and
placed on the following frame, which is empty when they arrive, so they
always fit. Generation claims are poured onto the residuals the solver was
given, so they fit too: any planned claim that does not is a program fault
and raises ``InvariantBroken``. A round's gains are the chosen edges' weights.

A round is planned for every client at once (`plan_round`): its claims
become one bank load per phase and its pours, so placing and releasing them
are array operations over all clients, and the episode's pours become one
`ClaimTable` when the episode ends (`tabulate_claims`).
`claims_for_solution` is the one-client reference definition.

Mobility, sensing, the channel and the similarities depend on the round
alone, never on a decision. `reset` steps the clients through every frame of
the episode and computes those terms for all rounds in one pass
(`round_terms`); each round's gain graph then only adds the budgets the pool
leaves. A round's scenario is handed to the policy as it is at the round,
but the positions of later rounds are already fixed: a policy that writes
`obs.scenario.positions` changes no later round.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .encoding import default_norms, encode_state
from .gain import GainGraph, SensingParams, build_gain_graph, round_terms
from .network import Scenario, SensingMode, clone_scenario, step_mobility
from .pool import (
    GRID_KINDS,
    LEGAL_GRIDS,
    PROCESS_ORDER,
    CapacityExceeded,
    Claim,
    ClaimTable,
    GridKind,
    OutOfHorizon,
    PoolBank,
    PoolConfig,
    Process,
    UniversalResourcePool,
    lane_runs,
    pour_lanes,
    pour_rows,
)
from .schedule import Mode, RoundSchedule, ScheduleError, Violation, slots_needed, validate_cstc
from .workload import WorkloadSolution


class InvariantBroken(RuntimeError):
    """A state the episode mechanics rule out occurred: a program fault."""


@dataclass
class Observation:
    """Everything a policy may look at when deciding round r.

    `state`, the fixed-layout vector of `encode_state`, is encoded on its
    first read, from the positions and pool residuals as they were when the
    round was observed; only the learned policy reads it. `scenario` is the
    environment's, as it is at this round; writing its positions changes
    neither the state nor any later round, whose positions `reset` fixed.
    """

    round_index: int
    scenario: Scenario
    graph: GainGraph
    encode: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def state(self) -> np.ndarray:
        return self.encode()


@dataclass
class RoundRecord:
    round_index: int
    decisions: list[int]
    gains: list[float]
    workloads: list[int]
    feasible: list[bool]
    pours: RoundPours
    infeasible_edges: int = 0  # gain-graph edges the round's decision saw infeasible

    @property
    def table(self) -> ClaimTable:
        """The round's claims, client-major: generation, then DL, COMP, UL."""
        return tabulate_claims([self.pours])

    @property
    def claims(self) -> list[Claim]:
        return self.table.claims()


@dataclass
class EpisodeTrace:
    rounds: list[RoundRecord] = field(default_factory=list)
    utilization: list[dict] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    # The rounds' pours and their table, as `claim_table` last built it.
    _table: tuple = field(default=((), None), init=False, repr=False, compare=False)

    @property
    def cumulative_gain(self) -> float:
        return float(sum(sum(rec.gains) for rec in self.rounds))

    @property
    def infeasible_edges(self) -> int:
        return sum(rec.infeasible_edges for rec in self.rounds)

    @property
    def rewards(self) -> list[float]:
        return [float(sum(rec.gains)) for rec in self.rounds]

    def claim_table(self) -> ClaimTable:
        """Every round's claims in one table, built again only once the
        rounds' pours change."""
        pours = tuple(rec.pours for rec in self.rounds)
        built, table = self._table
        if len(built) != len(pours) or any(a is not b for a, b in zip(built, pours)):
            table = tabulate_claims(list(pours))
            self._table = (pours, table)
        return table

    def all_claims(self) -> list[Claim]:
        return self.claim_table().claims()


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


# Process codes: positions in `PROCESS_ORDER`, the compulsory serial order.
_SENS, _DL, _COMP, _UL = range(4)
_TIME_FREQ, _TIME_COMP, _NONE = (GRID_KINDS.index(g) for g in GridKind)
_GRID_OF = np.array([_TIME_FREQ, _TIME_FREQ, _TIME_COMP, _TIME_FREQ])  # by process code
_DEMAND_ROW = np.array([1, 2, 3, 2])  # the solution row of each process's rate
_PROCESS_NAMES = {code: p.value for code, p in enumerate(PROCESS_ORDER)}


@dataclass(frozen=True)
class RoundPours:
    """One round's claims as `plan_round` poured them, tabulated on demand."""

    round_index: int
    client_ids: np.ndarray  # (N,)
    cells: np.ndarray       # (4N, lanes): each (client, process)'s pour; camera sensing is -1 on lane 0
    start: np.ndarray       # (N, 4): each (client, process)'s first slot
    end: np.ndarray         # (N, 4): and the slot after its last


def tabulate_claims(rounds: list[RoundPours]) -> ClaimTable:
    """The rounds' claims in one table, round by round and client-major, a
    client's claims in process order: one `lane_runs` pass over the stacked
    pours. Each group of equal lanes is a claim; a camera sensing mark is a
    time-only claim with no lanes and no amount."""
    if not rounds:
        return ClaimTable.of([])
    cells = np.concatenate([p.cells for p in rounds])
    runs, l0, l1 = lane_runs(cells)
    row, process = np.divmod(runs, 4)
    amount = cells[runs, l0]
    timed = amount < 0.0
    return ClaimTable(
        np.concatenate([p.client_ids for p in rounds])[row],
        np.repeat([p.round_index for p in rounds], [len(p.client_ids) for p in rounds])[row],
        process, _GRID_OF[process] + timed * (_NONE - _TIME_FREQ),
        np.concatenate([p.start for p in rounds]).ravel()[runs],
        np.concatenate([p.end for p in rounds]).ravel()[runs],
        l0, l1 - timed, np.maximum(amount, 0.0),
    )


@dataclass(frozen=True)
class RoundPlan:
    """One round's claims for every client, as bank loads and as pours."""

    gen: np.ndarray | None                      # (N, slots, freq lanes) sensing load
    cons: tuple[np.ndarray, np.ndarray | None]  # (freq, comp) DL/UL and COMP load
    pours: RoundPours | None
    bad: np.ndarray                             # (N,) rows whose plan does not fit a frame


def plan_round(round_index: int, client_ids: np.ndarray, vs: np.ndarray,
               solutions: np.ndarray, bank: PoolBank, carry_only: bool = False) -> RoundPlan:
    """`claims_for_solution` for every row of a (9, N) solution array at once.

    Slot counts, pours and lane groups run the scalar code's float operations
    row by row, so the pours tabulate to exactly the per-client claims in
    client order, and the loads put exactly their amounts on their cells.
    Sensing is poured onto the bank's live residual over slots [0, s1),
    consumption onto full lanes. A row without a feasible, nonzero workload
    claims nothing; a plan that does not fit flags its row in `bad`.
    `carry_only` plans only what an overlapped next round sees, the
    frequency consumption load and `bad` of the consumption pours: no
    sensing pour, no generation or compute load and no pours.
    """
    n, length, freq_lanes = bank.time_freq.shape
    comp_lanes = bank.time_comp.shape[2]
    dt = bank.cfg.slot_duration
    active = (solutions[-1] == 1.0) & (solutions[0] != 0.0)

    # (N, 4) arrays by process code. `slots_needed` of t_sens, t_dl,
    # t_dl + t_cp and t_dl + t_cp + t_ul, then `plan_cons_slots`: process p
    # holds slots [start[:, p], end[:, p]). A phase of zero time adds
    # nothing to the sum, so its end is the one before it.
    ends = np.where(active[:, None], solutions[4:8].T, 0.0)
    has = ends[:, _COMP:] > 0.0
    ends[:, _COMP] += ends[:, _DL]
    ends[:, _UL] += ends[:, _COMP]
    end = np.where(ends > 0.0, np.ceil(ends / dt - 1e-9), 0.0).astype(np.int64)
    if (end[:, _SENS] > length).any():
        raise OutOfHorizon(f"sensing needs {end[:, _SENS].max()} slots, frame has {length}")
    end[:, _COMP] = np.maximum(end[:, _DL] + has[:, 0], end[:, _COMP])
    end[:, _UL] = np.maximum(end[:, _COMP] + has[:, 1], end[:, _UL])
    start = np.zeros((n, 4), dtype=np.int64)
    start[:, _COMP:] = end[:, _DL:_UL]
    present = end > start

    # One pour per process over stacked rows: sensing on the live residual,
    # capacity less each lane's peak usage over slots [0, s1) (exact, rounding
    # being monotone; inf if no slots), the rest on the bank's full lanes. A
    # pour the scalar code skips gets no demand.
    slot = bank.slot
    avail = bank.full_lanes
    if carry_only:
        present[:, _SENS] = False
    else:
        peak = np.where((slot[:, None] < end[:, _SENS])[:, :, None],
                        bank.time_freq.transpose(1, 0, 2), -np.inf).max(axis=0)
        avail = avail.copy()
        avail[:, _SENS, :freq_lanes] = np.maximum(bank.cfg.freq_cell_capacity - peak, 0.0)
        camera = vs & present[:, _SENS]
        present[:, _SENS] ^= camera
    demand = np.where(present, solutions.take(_DEMAND_ROW, axis=0).T * dt, 0.0)
    cells, ok = pour_rows(avail.reshape(4 * n, -1), demand.ravel())
    bad = ~ok.reshape(n, 4).all(axis=1) | (end[:, _UL] > length)

    # Each load puts its pours' cells on their slots; DL and UL take disjoint
    # slots of one load.
    inside = ((slot >= start[:, :, None]) & (slot < end[:, :, None]))[..., None]
    phase = cells.reshape(n, 4, 1, -1)
    freq = np.where(inside[:, _DL], phase[:, _DL, :, :freq_lanes],
                    np.where(inside[:, _UL], phase[:, _UL, :, :freq_lanes], 0.0))
    if carry_only:
        return RoundPlan(None, (freq, None), None, bad)
    gen = np.where(inside[:, _SENS], phase[:, _SENS, :, :freq_lanes], 0.0)
    comp = np.where(inside[:, _COMP], phase[:, _COMP, :, :comp_lanes], 0.0)

    # Camera sensing is a time-only claim: it is marked as a group of lane 0
    # with amount -1, which `tabulate_claims` gives no lanes and no amount.
    cells[::4, 0] -= camera
    return RoundPlan(gen, (freq, comp), RoundPours(round_index, client_ids, cells, start, end), bad)


def _decisions(assignment, n: int, m: int) -> list[int]:
    """A round's decision as plain ints, each a model index in [0, m)."""
    decisions = assignment.tolist() if isinstance(assignment, np.ndarray) else list(assignment)
    types = set(map(type, decisions))
    if types != {int}:
        if any(t is bool or not issubclass(t, (int, np.integer)) for t in types):
            raise ValueError(f"assignment entries must be integer model indices, got {types}")
        decisions = list(map(int, decisions))
    if len(decisions) != n or decisions and not 0 <= min(decisions) <= max(decisions) < m:
        raise ValueError(f"assignment must give each of {n} clients a model in [0,{m})")
    return decisions


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
        """Start the next episode and observe its first round.

        The clients are stepped through every frame of the episode here, and
        each round's sensing, similarities and channel computed in one pass,
        so a failing check of those terms (a similarity outside (0, 1])
        raises here, naming its round. The checks that involve the pool's
        budgets (`EdgeArrays`) run when each round is observed.
        """
        self.episode_index += 1
        self.scenario = clone_scenario(self.scenario_factory(self.episode_index))
        # Where each round is observed, and where the last frame's close leaves the clients.
        sched = self.schedule
        frames = [sched.gen_frame(r) for r in range(1, sched.num_rounds + 1)]
        self.positions, self.velocities, self.times = kinematics_at(
            self.scenario, frames + [sched.total_frames + 1],
            sched.cr_length * self.pool_cfg.slot_duration)
        self.terms = round_terms(self.scenario, self.positions[:-1], self.sensing)
        self.norms = default_norms(
            self.scenario.channel,
            max_targets=max(1, len(self.scenario.targets)),
            samples_per_target=self.sensing.samples_per_target,
        )
        self.client_ids = np.array([c.client_id for c in self.scenario.clients], dtype=np.int64)
        models = self.scenario.model_arrays()
        self.vs = models.vs[:, 0]
        # Each client's first edge in the gain graph's flat (N*M) edge order.
        self.first_edge = np.arange(len(self.client_ids)) * len(models.edge_of_model)
        # Each round's (bandwidth, compute) budgets; only the bandwidth changes.
        self.residuals = np.full((len(self.client_ids), 2), self.pool_cfg.compute_cps)
        self.bank = PoolBank(self.pool_cfg, len(self.client_ids))
        self.placed: list[tuple] = []  # the open frame's (freq, comp) loads, in placement order
        self.round_index = 1
        self.frame = 1
        self.trace = EpisodeTrace()
        return self._observe()

    def step(self, assignment: list[int]) -> tuple[Observation | None, float, bool]:
        """Apply one round's decision; returns (next_obs, team reward, done)."""
        if self.trace is None:
            raise RuntimeError("call reset() first")
        if self.round_index > self.schedule.num_rounds:
            raise RuntimeError("the episode is done; call reset() to start the next")
        graph = self._current_obs.graph
        decisions = _decisions(assignment, len(self.client_ids), len(graph.model_ids))

        r = self.round_index
        edges = self.first_edge + decisions
        solutions = graph.solutions.reshape(len(graph.solutions), -1).take(edges, axis=1)
        gains = graph.weights.take(edges).tolist()
        plan = plan_round(r, self.client_ids, self.vs, solutions, self.bank)
        self._place(r, (plan.gen, None), plan.bad)

        # The consumption frame stays open only for the next round's generation.
        self._close_frame()
        self._place(r, plan.cons)
        sched = self.schedule
        done = r == sched.num_rounds
        if done or sched.gen_frame(r + 1) != self.frame:
            self._close_frame()
        self.trace.rounds.append(RoundRecord(
            r, decisions, gains, solutions[0].astype(int).tolist(),
            (solutions[-1] == 1.0).tolist(), plan.pours, graph.infeasible_edges,
        ))
        reward = float(sum(gains))
        self.round_index += 1
        if done:
            self._move(sched.num_rounds)
            self.trace.violations = validate_cstc(sched, self.trace.claim_table())
            return None, reward, True
        return self._observe(), reward, False

    # -- internals -------------------------------------------------------

    def _place(self, round_index: int, load: tuple, planned_bad: np.ndarray | None = None) -> None:
        """Put a round's load on the open frame; a row that does not fit is a program fault."""
        bad = self.bank.place(*load, planned_bad)
        if bad.any():
            raise InvariantBroken(
                f"claim of client {self.client_ids[bad.argmax()]} round {round_index} "
                "does not fit its frame"
            )
        self.placed.append(load)

    def _close_frame(self) -> None:
        """Record the open frame's use, release its loads in order and open the next."""
        fractions = self.bank.residual_fraction()
        # np.mean's sum and division, of each grid's row.
        freq_used, comp_used = ((1.0 - fractions).sum(axis=1) / fractions.shape[1]).tolist()
        self.trace.utilization.append(
            {"frame": self.frame, "freq_used": freq_used, "comp_used": comp_used}
        )
        for load in self.placed:
            self.bank.release(*load)
        self.placed = []
        self.frame += 1

    def _move(self, k: int) -> None:
        """Put the scenario's clients where `reset` found them at round k + 1
        (after the last frame for k = R)."""
        sc = self.scenario
        np.copyto(sc.positions, self.positions[k])
        np.copyto(sc.velocities, self.velocities[k])
        sc.time_s = self.times[k]

    def _observe(self) -> Observation:
        sc, bank, norms = self.scenario, self.bank, self.norms
        length = self.schedule.cr_length
        dt = self.pool_cfg.slot_duration
        coupled = self.schedule.mode is Mode.ZEROS
        r = self.round_index - 1
        self._move(r)

        free = bank.free()
        self.residuals[:, 0] = bank.rect_bandwidth_hz(free[0])
        graph = build_gain_graph(sc, length * dt, consumption_window(length, dt), self.residuals,
                                 self.sensing, coupled, self.terms[r])
        positions = self.positions[r]  # the episode's own, never handed to a policy

        def encode() -> np.ndarray:
            return encode_state(replace(sc, positions=positions),
                                bank.residual_fraction(free).T, graph, norms)

        self._current_obs = Observation(self.round_index, sc, graph, encode)
        return self._current_obs


def kinematics_at(
    scenario: Scenario, frames: list[int], frame_s: float
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """The clients' (F, N, 2) positions and velocities and the clock at the
    start of each of the ascending 1-based `frames`: `step_mobility` once per
    frame of `frame_s` seconds, as each frame closes. Moves `scenario` to
    the start of the last of them."""
    positions = np.empty((len(frames),) + scenario.positions.shape)
    velocities = np.empty_like(positions)
    times = []
    frame = 1
    for k, first in enumerate(frames):
        for _ in range(first - frame):
            step_mobility(scenario, frame_s)
        frame = first
        positions[k], velocities[k] = scenario.positions, scenario.velocities
        times.append(scenario.time_s)
    return positions, velocities, times


def run_episode(
    scenario: Scenario,
    policy,
    schedule: RoundSchedule,
    pool_cfg: PoolConfig,
    sensing: SensingParams,
) -> EpisodeTrace:
    """Run one full episode; the caller's scenario is left untouched.

    An exception raised during the episode carries the trace of the rounds
    finished before it as its `trace` attribute.
    """
    env = RoundEnv(lambda _: scenario, schedule, pool_cfg, sensing)
    obs = env.reset()
    done = False
    try:
        while not done:
            obs, _, done = env.step(policy.decide(obs))
    except Exception as err:
        err.trace = env.trace
        raise
    return env.trace


def _cells(rows, s0, s1, l0, l1, num_slots: int, num_lanes: int):
    """Flat bank indices of each claim's cells (claim by claim, slot by slot,
    lane by lane) and each claim's cell count. Each slot of a claim is a run
    of indices counting up; its runs step by a slot's lanes from its first cell."""
    slots, width = s1 - s0, l1 - l0
    first = (rows * num_slots + s0) * num_lanes + l0 - num_lanes * (np.cumsum(slots) - slots)
    start = np.repeat(first, slots)
    start += np.arange(0, num_lanes * len(start), num_lanes)
    run = np.repeat(width, slots)
    start -= np.cumsum(run) - run
    cells = np.repeat(start, run)
    cells += np.arange(len(cells))
    return cells, slots * width


def audit_trace(
    trace: EpisodeTrace, schedule: RoundSchedule, pool_cfg: PoolConfig
) -> dict:
    """Replay a trace's claim table frame by frame on one bank.

    Each frame adds every claim to its cells in claim order, then takes them
    off again and checks that the bank is empty. Amounts are >= 0 and float
    addition is monotone, so a cell ends the frame within `fit_bound` exactly
    when every claim on it fitted on top of the ones before, and the frame's
    peak is its final usage. A claim outside its grid, on a grid its process
    may not claim, with an unknown process or grid code or with a negative
    amount is a failure and is not placed.
    """
    claims = trace.claim_table()
    frames = schedule.claim_frames(claims)
    ids, rows = np.unique(claims.client_id, return_inverse=True)
    bank = PoolBank(pool_cfg, len(ids))
    _, _, process, grid, s0, s1, l0, l1, amount = claims.columns()
    # A claim's process may claim its grid (unknown codes are clipped onto
    # the border of `LEGAL_GRIDS`). A time-only claim has no lanes and no amount;
    # a grid claim has lanes of its grid. Every claim lies within the frame.
    code = np.clip(grid, -1, len(GRID_KINDS)) + 1
    legal = LEGAL_GRIDS[np.clip(process, -1, len(PROCESS_ORDER)) + 1, code]
    lanes = np.array([0, pool_cfg.freq_lanes, pool_cfg.comp_lanes, 0, 0])[code]
    bad = (~legal | (s0 < 0) | (s1 > pool_cfg.num_slots) | (s1 <= s0) | (l0 < 0) | (l1 > lanes)
           | ~(amount >= 0.0)
           | np.where(grid == _NONE, (l1 != l0) | (amount != 0.0), l1 <= l0))

    # Frame f holds claims order[cut[f]:cut[f + 1]] (frames start at 1) and
    # each grid's placed claims split into one slice per frame. Expanding a
    # grid's cells at once is slower: its arrays are fresh pages on every call.
    order = np.argsort(frames, kind="stable")
    sorted_frames, sorted_bad, sorted_grid = frames[order], bad[order], grid[order]
    cut = np.flatnonzero(np.diff(sorted_frames, prepend=0, append=-1)).tolist()
    frame_list = sorted_frames[cut[:-1]]
    grids = []
    for kind, used in ((_TIME_FREQ, bank.time_freq), (_TIME_COMP, bank.time_comp)):
        k = order[(sorted_grid == kind) & ~sorted_bad]
        grids.append((used, np.split(k, np.searchsorted(frames[k], frame_list[1:]))))

    failures: list[str] = []
    max_util = 0.0
    for f, frame in enumerate(frame_list.tolist()):
        lo, hi = cut[f], cut[f + 1]
        failures.extend(f"frame {frame} client {claims.client_id[k]} round {claims.round_index[k]} "
                        f"{_PROCESS_NAMES.get(process[k], f'process {process[k]}')} claim "
                        "outside its grid or malformed" for k in order[lo:hi][sorted_bad[lo:hi]])
        placed = []
        for used, slices in grids:
            k = slices[f]
            cells, count = _cells(rows[k], s0[k], s1[k], l0[k], l1[k], *used.shape[1:])
            placed.append((used.reshape(-1), cells, np.repeat(amount[k], count)))
            np.add.at(*placed[-1])
        max_util = max(max_util, bank.peak_use())
        for kind, over in zip((_TIME_FREQ, _TIME_COMP), bank.over_rows()):
            failures.extend(f"frame {frame} client {ids[row]} {GRID_KINDS[kind].value} "
                            "over capacity" for row in over)
        for used, cells, amounts in placed:
            np.subtract.at(used, cells, amounts)
        failures.extend(f"frame {frame} client {ids[row]} release left residue"
                        for row in bank.residue_rows())
        bank.time_freq.fill(0.0)
        bank.time_comp.fill(0.0)
    return {
        "ok": not failures,
        "frames_checked": len(frame_list),
        "max_cell_utilization": max_util,
        "failures": failures,
    }
