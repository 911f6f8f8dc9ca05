"""Pipeline planning, serial-timing validation, and episode mechanics."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EPISODE_POOLS, EPISODE_SCENARIOS, ForgedTrace, random_problem
from isccsim.episode import (
    InvariantBroken,
    RoundEnv,
    audit_trace,
    claims_for_solution,
    consumption_window,
    plan_cons_slots,
    run_episode,
)
from isccsim.gain import SensingParams
from isccsim.network import ScenarioConfig, generate_scenario, sense_targets
from isccsim.policies import GreedyGainPolicy, RandomPolicy, make_policy
from isccsim.pool import (
    CapacityExceeded,
    Claim,
    ClaimTable,
    GridKind,
    PROCESS_ORDER,
    PoolBank,
    PoolConfig,
    Process,
)
from isccsim.schedule import (
    Mode,
    ScheduleError,
    makespan,
    plan_pipeline,
    slots_needed,
    validate_cstc,
)
from isccsim.workload import WorkloadProblem, solve_workload
from isccsim.network import SensingMode


def tiny_scenario(seed=1, **kw):
    cfg = ScenarioConfig(
        num_clients=kw.pop("num_clients", 4),
        num_edges=kw.pop("num_edges", 2),
        num_targets=kw.pop("num_targets", 60),
        area_m=kw.pop("area_m", 300.0),
        vs_radius_m=100.0,
        ws_radius_m=150.0,
        **kw,
    )
    return generate_scenario(cfg, seed)


class TestPlanPipeline:
    def test_serial_placement(self):
        s = plan_pipeline(3, 9, Mode.SERIAL)
        frames = [(s.gen_frame(r), s.cons_frame(r)) for r in range(1, 4)]
        assert frames == [(1, 2), (3, 4), (5, 6)]
        assert s.total_frames == 6

    def test_zeros_placement(self):
        s = plan_pipeline(3, 9, Mode.ZEROS)
        frames = [(s.gen_frame(r), s.cons_frame(r)) for r in range(1, 4)]
        assert frames == [(1, 2), (2, 3), (3, 4)]
        assert s.total_frames == 4

    def test_single_round_equal(self):
        assert plan_pipeline(1, 9, Mode.ZEROS).total_frames == 2
        assert plan_pipeline(1, 9, Mode.SERIAL).total_frames == 2

    def test_five_rounds(self):
        assert plan_pipeline(5, 9, Mode.ZEROS).total_frames == 6
        assert plan_pipeline(5, 9, Mode.SERIAL).total_frames == 10

    def test_gen_before_cons(self):
        for mode in Mode:
            s = plan_pipeline(4, 5, mode)
            for r in range(1, 5):
                assert s.gen_frame(r) < s.cons_frame(r)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("rounds", range(1, 9))
    def test_closed_forms(self, rounds, mode):
        """The last frame is the last round's consumption frame, and each
        claim's frame is its round's frame for its phase."""
        s = plan_pipeline(rounds, 9, mode)
        assert s.total_frames == s.cons_frame(rounds)
        for r in range(1, rounds + 1):
            assert s.gen_frame(r) == (2 * r - 1 if mode is Mode.SERIAL else r)
            assert s.cons_frame(r) == s.gen_frame(r) + 1
        rnd, process = np.divmod(np.arange(4 * rounds), 4)
        rnd += 1
        zero = np.zeros_like(rnd)
        table = ClaimTable(zero, rnd, process, zero, zero, zero + 1, zero, zero + 1, zero * 1.0)
        expected = [s.gen_frame(r) if PROCESS_ORDER[p] is Process.SENS else s.cons_frame(r)
                    for r, p in zip(rnd.tolist(), process.tolist())]
        assert s.claim_frames(table).tolist() == expected
        for outside in (0, rounds + 1):
            with pytest.raises(ScheduleError):
                s.claim_frames(replace(table, round_index=np.full(len(table), outside)))

    def test_invalid_dimensions(self):
        with pytest.raises(ScheduleError):
            plan_pipeline(0, 9, Mode.ZEROS)
        with pytest.raises(ScheduleError):
            plan_pipeline(3, 1, Mode.ZEROS)

    @given(st.integers(1, 40), st.integers(2, 20))
    @settings(max_examples=80, deadline=None)
    def test_frame_counts(self, r, length):
        assert plan_pipeline(r, length, Mode.ZEROS).total_frames == r + 1
        assert plan_pipeline(r, length, Mode.SERIAL).total_frames == 2 * r
        assert makespan(plan_pipeline(r, length, Mode.ZEROS)) <= makespan(
            plan_pipeline(r, length, Mode.SERIAL)
        )


class TestMakespan:
    def test_single_round(self):
        assert makespan(plan_pipeline(1, 9, Mode.ZEROS)) == 18
        assert makespan(plan_pipeline(1, 9, Mode.SERIAL)) == 18

    def test_five_round_comparison(self):
        assert makespan(plan_pipeline(5, 9, Mode.ZEROS)) == 54
        assert makespan(plan_pipeline(5, 9, Mode.SERIAL)) == 90


class TestValidateCstc:
    def schedule(self):
        return plan_pipeline(2, 9, Mode.ZEROS)

    def test_well_formed_claims_pass(self):
        s = self.schedule()
        claims = [
            Claim(0, 1, Process.SENS, GridKind.NONE, (0, 4), (), 0.0),
            Claim(0, 1, Process.COMM_DL, GridKind.TIME_FREQ, (0, 2), (0,), 1.0),
            Claim(0, 1, Process.COMP, GridKind.TIME_COMP, (2, 5), (0,), 1.0),
            Claim(0, 1, Process.COMM_UL, GridKind.TIME_FREQ, (5, 7), (0,), 1.0),
        ]
        assert validate_cstc(s, ClaimTable.of(claims)) == []

    def test_ordering_violation(self):
        s = self.schedule()
        claims = [
            Claim(0, 1, Process.COMM_DL, GridKind.TIME_FREQ, (3, 5), (0,), 1.0),
            Claim(0, 1, Process.COMP, GridKind.TIME_COMP, (0, 3), (0,), 1.0),
        ]
        out = validate_cstc(s, ClaimTable.of(claims))
        assert len(out) == 1
        assert out[0].kind == "order"
        assert out[0].processes == ("comm_dl", "comp")

    def test_window_violation(self):
        s = self.schedule()
        claims = [Claim(0, 1, Process.SENS, GridKind.NONE, (4, 12), (), 0.0)]
        out = validate_cstc(s, ClaimTable.of(claims))
        assert [v.kind for v in out] == ["window"]

    def test_sens_may_touch_last_gen_slot(self):
        # Gen frame r ends at absolute slot 9r-1; cons frame starts at 9r.
        s = self.schedule()
        claims = [
            Claim(0, 1, Process.SENS, GridKind.NONE, (0, 9), (), 0.0),
            Claim(0, 1, Process.COMM_DL, GridKind.TIME_FREQ, (0, 1), (0,), 1.0),
        ]
        assert validate_cstc(s, ClaimTable.of(claims)) == []

    def test_independent_clients_not_cross_checked(self):
        s = self.schedule()
        claims = [
            Claim(0, 1, Process.COMM_UL, GridKind.TIME_FREQ, (0, 2), (0,), 1.0),
            Claim(1, 1, Process.COMM_DL, GridKind.TIME_FREQ, (5, 7), (0,), 1.0),
        ]
        # UL before DL, but on different clients: no violation.
        assert validate_cstc(s, ClaimTable.of(claims)) == []


class TestSlotsNeeded:
    def test_exact_boundary(self):
        assert slots_needed(0.3, 0.1) == 3
        assert slots_needed(0.30000000001, 0.1) == 3
        assert slots_needed(0.31, 0.1) == 4
        assert slots_needed(0.0, 0.1) == 0


class TestClaimConversion:
    def test_solution_claims_fit_stated_residuals(self):
        """A solution converted to claims always allocates on a pool with
        exactly the solved budgets."""
        rng = np.random.default_rng(11)
        pool_cfg = PoolConfig(num_slots=9)
        for _ in range(60):
            p = random_problem(rng)
            sol = solve_workload(p)
            if sol.w_star == 0:
                continue
            # Budget-matched pool: lanes shaped to hold B and F exactly.
            cfg = PoolConfig(
                num_slots=9,
                freq_lanes=1,
                comp_lanes=1,
                slot_duration=0.1,
                hz_per_lane=p.bandwidth_hz,
                cycles_per_lane_slot=p.compute_cps * 0.1,
            )
            # Scale windows onto the 9-slot frame.
            scaled = WorkloadProblem(
                t_gen=0.9, t_cons=0.7,
                bandwidth_hz=p.bandwidth_hz, compute_cps=p.compute_cps,
                eta=p.eta, s_dl=p.s_dl, s_ul=p.s_ul, kappa=p.kappa,
                w_cap=p.w_cap, mode=p.mode, tau_s=p.tau_s, sigma=p.sigma,
                rho=p.rho, coupled=p.coupled,
            )
            sol = solve_workload(scaled)
            if sol.w_star == 0:
                continue
            pool = cfg.build()
            gen, cons = claims_for_solution(0, 1, scaled.mode, sol, pool)
            for claim in gen:
                pool.try_allocate(claim)
            fresh = cfg.build()
            for claim in cons:
                fresh.try_allocate(claim)

    def test_empty_frame_plan_matches_scratch_pool_plan(self):
        """Consumption pours onto full lanes equal pours into a scratch pool
        that receives each claim as it is planned."""
        rng = np.random.default_rng(5)
        planned = 0
        for _ in range(400):
            lanes = int(rng.integers(1, 6))
            p = replace(random_problem(rng), t_gen=0.9, t_cons=0.7)
            cfg = PoolConfig(
                num_slots=9, freq_lanes=lanes, comp_lanes=int(rng.integers(1, 4)),
                hz_per_lane=p.bandwidth_hz / rng.uniform(0.5, lanes),
                cycles_per_lane_slot=p.compute_cps * 0.1 / rng.uniform(0.5, 3.0),
            )
            sol = solve_workload(p)
            try:
                got = claims_for_solution(0, 1, p.mode, sol, cfg.build())
            except CapacityExceeded:
                got = None
            assert got == scratch_pool_plan(0, 1, p, sol, cfg)
            planned += bool(got and got[1])
        assert planned > 100

    def test_plan_orders_and_bounds(self):
        p = WorkloadProblem(
            t_gen=0.9, t_cons=0.7, bandwidth_hz=4e6, compute_cps=1e9, eta=4.0,
            s_dl=2e6, s_ul=1e6, kappa=1e7, w_cap=60.0,
            mode=SensingMode.VS, tau_s=0.01,
        )
        sol = solve_workload(p)
        assert sol.w_star > 0
        a, b, c = plan_cons_slots(sol, 0.1)
        assert 0 < a < b < c <= 9

    def test_zero_workload_yields_no_claims(self):
        p = WorkloadProblem(
            t_gen=0.9, t_cons=0.7, bandwidth_hz=4e6, compute_cps=1e9, eta=4.0,
            s_dl=2e6, s_ul=1e6, kappa=1e7, w_cap=0.0,
            mode=SensingMode.VS, tau_s=0.01,
        )
        sol = solve_workload(p)
        pool_cfg = PoolConfig()
        gen, cons = claims_for_solution(0, 1, p.mode, sol, pool_cfg.build())
        assert gen == [] and cons == []


def scratch_pool_plan(client_id, round_index, problem, sol, cfg):
    """Reference consumption planning: pour and allocate into a scratch pool."""
    if not sol.feasible or sol.w_star == 0:
        return [], []
    pool = cfg.build()
    dt = cfg.slot_duration
    gen = []
    s1 = slots_needed(sol.t_sens, dt)
    if s1 > 0:
        if problem.mode is SensingMode.VS:
            gen.append(Claim(client_id, round_index, Process.SENS, GridKind.NONE,
                             (0, s1), (), 0.0))
        else:
            groups = pool.pour_bandwidth((0, s1), sol.b_sens_hz)
            if groups is None:
                return None
            gen.extend(Claim(client_id, round_index, Process.SENS, GridKind.TIME_FREQ,
                             (0, s1), lanes, amount) for lanes, amount in groups)
    a, b, c = plan_cons_slots(sol, dt)
    if c > cfg.num_slots:
        return None
    scratch = cfg.build()
    cons = []
    for process, grid, rng in (
        (Process.COMM_DL, GridKind.TIME_FREQ, (0, a)),
        (Process.COMM_UL, GridKind.TIME_FREQ, (b, c)),
        (Process.COMP, GridKind.TIME_COMP, (a, b)),
    ):
        if rng[1] <= rng[0]:
            continue
        if process is Process.COMP:
            groups = scratch.pour_compute(rng, sol.f_cps)
        else:
            groups = scratch.pour_bandwidth(rng, sol.b_comm_hz)
        if groups is None:
            return None
        for lanes, amount in groups:
            claim = Claim(client_id, round_index, process, grid, rng, lanes, amount)
            scratch.try_allocate(claim)
            cons.append(claim)
    cons.sort(key=lambda cl: cl.slot_range[0])
    return gen, cons


class TestEpisode:
    def run(self, mode, seed=1, rounds=3, policy=None, **kw):
        sc = tiny_scenario(seed, **kw)
        schedule = plan_pipeline(rounds, 9, mode)
        return run_episode(
            sc, policy or GreedyGainPolicy(), schedule, PoolConfig(), SensingParams()
        )

    def test_zeros_trace_passes_cstc(self):
        trace = self.run(Mode.ZEROS)
        assert trace.violations == []
        assert trace.cumulative_gain > 0.0

    def test_serial_trace_passes_cstc(self):
        trace = self.run(Mode.SERIAL)
        assert trace.violations == []

    def test_determinism(self):
        t1 = self.run(Mode.ZEROS, seed=7)
        t2 = self.run(Mode.ZEROS, seed=7)
        assert t1.cumulative_gain == t2.cumulative_gain
        for r1, r2 in zip(t1.rounds, t2.rounds):
            assert r1.decisions == r2.decisions
            assert r1.gains == r2.gains
            assert r1.claims == r2.claims

    def test_caller_scenario_untouched(self):
        sc = tiny_scenario(2)
        positions, velocities = sc.positions.copy(), sc.velocities.copy()
        trace = run_episode(sc, GreedyGainPolicy(), plan_pipeline(3, 9, Mode.ZEROS),
                            PoolConfig(), SensingParams())
        assert trace.rounds and np.any(sc.velocities != 0.0)
        assert np.array_equal(sc.positions, positions)
        assert np.array_equal(sc.velocities, velocities)
        assert sc.time_s == 0.0

    def test_zero_targets_zero_gain(self):
        trace = self.run(Mode.ZEROS, num_targets=0)
        assert trace.cumulative_gain == 0.0

    def test_cumulative_equals_round_sums(self):
        trace = self.run(Mode.ZEROS, seed=5, rounds=4)
        assert trace.cumulative_gain == pytest.approx(
            sum(sum(r.gains) for r in trace.rounds)
        )
        assert len(trace.rewards) == 4

    def test_adjacent_round_coupling_only(self):
        """Claims in any frame belong to at most rounds k-1 and k."""
        trace = self.run(Mode.ZEROS, rounds=5)
        schedule = plan_pipeline(5, 9, Mode.ZEROS)
        by_frame = {}
        table = trace.claim_table()
        for frame, rnd in zip(schedule.claim_frames(table).tolist(), table.round_index.tolist()):
            by_frame.setdefault(frame, set()).add(rnd)
        for frame, rounds in by_frame.items():
            assert rounds <= {frame - 1, frame}

    def test_conservation_audit(self):
        for mode in Mode:
            trace = self.run(mode, seed=3, rounds=4)
            report = audit_trace(trace, plan_pipeline(4, 9, mode), PoolConfig())
            assert report["ok"], report["failures"]
            assert report["max_cell_utilization"] <= 1.0 + 1e-9

    def test_audit_starts_each_frame_empty(self):
        """Rounding left by a release in one frame does not carry into the next."""
        cap = PoolConfig().hz_per_lane * PoolConfig().slot_duration
        # Allocating then releasing these leaves 1.46e-11 on the cell, within
        # the residue tolerance but enough to lift a full cell above 1.0.
        sens = [Claim(0, 1, Process.SENS, GridKind.TIME_FREQ, (0, 1), (0,), x)
                for x in (17722.67404746588, 82277.32556446739)]
        dl = Claim(0, 1, Process.COMM_DL, GridKind.TIME_FREQ, (0, 1), (0,), cap)
        trace = ForgedTrace(ClaimTable.of(sens + [dl]))
        report = audit_trace(trace, plan_pipeline(1, 9, Mode.SERIAL), PoolConfig())
        assert report["ok"], report["failures"]
        assert report["frames_checked"] == 2
        assert report["max_cell_utilization"] == 1.0

    def test_utilization_recorded_per_frame(self):
        """Every frame of the schedule closes once, in order, and each close
        advances mobility by one frame."""
        pool_cfg = PoolConfig()
        for mode in (Mode.ZEROS, Mode.SERIAL):
            for rounds in range(1, 6):
                sc = tiny_scenario(1)
                schedule = plan_pipeline(rounds, 9, mode)
                env = RoundEnv(lambda _: sc, schedule, pool_cfg, SensingParams())
                obs, done = env.reset(), False
                while not done:
                    obs, _, done = env.step(GreedyGainPolicy().decide(obs))
                frames = [row["frame"] for row in env.trace.utilization]
                assert frames == list(range(1, schedule.total_frames + 1))
                assert len(frames) == (rounds + 1 if mode is Mode.ZEROS else 2 * rounds)
                frame_s = schedule.cr_length * pool_cfg.slot_duration
                assert env.scenario.time_s == pytest.approx(schedule.total_frames * frame_s)
    def test_random_policy_episode_valid(self):
        trace = self.run(Mode.ZEROS, policy=RandomPolicy(3), rounds=4)
        assert trace.violations == []
        report = audit_trace(trace, plan_pipeline(4, 9, Mode.ZEROS), PoolConfig())
        assert report["ok"]

    def test_sensing_follows_mobility(self):
        """Each round senses from the clients' current positions."""
        sc = tiny_scenario(4, num_clients=6, num_targets=80, v_max_mps=150.0)
        env = RoundEnv(lambda _: sc, plan_pipeline(5, 9, Mode.SERIAL),
                       PoolConfig(), SensingParams())
        obs, done, seen = env.reset(), False, []
        while not done:
            sc_now = obs.scenario
            expected = [len(sense_targets(p, c.sensing_radius_m, sc_now.targets))
                        for p, c in zip(sc_now.positions, sc_now.clients)]
            np.testing.assert_array_equal(
                obs.graph.problems.values[6][:, 0] / SensingParams().samples_per_target, expected)
            seen.append(expected)
            obs, _, done = env.step([0] * len(sc.clients))
        assert len(seen) == 5 and any(a != b for a, b in zip(seen, seen[1:]))

    def test_consumption_claim_over_capacity_is_internal_error(self):
        """A consumption claim that does not fit its empty frame raises."""
        sc = tiny_scenario(1)
        env = RoundEnv(lambda _: sc, plan_pipeline(2, 9, Mode.SERIAL),
                       PoolConfig(), SensingParams())
        obs = env.reset()
        decisions = GreedyGainPolicy().decide(obs)
        assert obs.graph.edge(0, decisions[0]).solution.t_cp > 0
        # Client 0's compute lanes stay full through frame 1, which only
        # senses, so its COMP claim finds no room when frame 2 opens.
        env.bank.time_comp[0] = env.bank.cfg.comp_cell_capacity
        with pytest.raises(InvariantBroken, match=f"client {sc.clients[0].client_id} round 1"):
            env.step(decisions)
        assert env.frame == 2

    def test_step_after_done_raises(self):
        """A finished episode is never silently extended."""
        sc = tiny_scenario(1)
        env = RoundEnv(lambda _: sc, plan_pipeline(2, 9, Mode.ZEROS),
                       PoolConfig(), SensingParams())
        env.reset()
        done = False
        while not done:
            _, _, done = env.step([0] * len(sc.clients))
        with pytest.raises(RuntimeError, match="done"):
            env.step([0] * len(sc.clients))
        assert [r.round_index for r in env.trace.rounds] == [1, 2]

    def test_bad_assignment_rejected(self):
        sc = tiny_scenario(1)
        env = RoundEnv(lambda _: sc, plan_pipeline(2, 9, Mode.ZEROS),
                       PoolConfig(), SensingParams())
        env.reset()
        with pytest.raises(ValueError):
            env.step([0])  # too few entries
        with pytest.raises(ValueError):
            env.step([99] * len(sc.clients))

    def test_non_integer_assignment_rejected(self):
        """A bool or a float is not a model index, even where it equals one;
        numpy integers are, and the record keeps plain ints."""
        sc = tiny_scenario(1)
        env = RoundEnv(lambda _: sc, plan_pipeline(2, 9, Mode.ZEROS),
                       PoolConfig(), SensingParams())
        env.reset()
        n = len(sc.clients)
        with pytest.raises(ValueError):
            env.step([True] + [0] * (n - 1))
        with pytest.raises(ValueError):
            env.step(np.zeros(n, dtype=bool))
        with pytest.raises(ValueError):
            env.step([0.0] * n)
        with pytest.raises(ValueError):
            env.step([np.True_] + [0] * (n - 1))
        assert env.trace.rounds == []
        env.step(np.zeros(n, dtype=np.int64))
        assert env.trace.rounds[0].decisions == [0] * n
        assert all(type(d) is int for d in env.trace.rounds[0].decisions)

    def test_pool_horizon_must_match_frame(self):
        with pytest.raises(ScheduleError):
            RoundEnv(lambda _: tiny_scenario(1), plan_pipeline(2, 5, Mode.ZEROS),
                     PoolConfig(num_slots=9), SensingParams())

    def test_consumption_window_guard(self):
        assert consumption_window(9, 0.1) == pytest.approx(0.7)
        assert consumption_window(5, 0.1) == pytest.approx(0.3)
        assert consumption_window(2, 0.1) == 0.0


def placed_episode(scenario, policy, schedule, pool_cfg):
    """Run an episode step by step; return the trace and, per round, the
    (solutions, weights) its gain graph gives the decision."""
    env = RoundEnv(lambda _: scenario, schedule, pool_cfg, SensingParams())
    obs, done, chosen = env.reset(), False, []
    while not done:
        decisions = policy.decide(obs)
        edges = [obs.graph.edge(i, m) for i, m in enumerate(decisions)]
        chosen.append(([e.solution for e in edges], [e.weight for e in edges]))
        obs, _, done = env.step(decisions)
    return env.trace, chosen


def assert_rounds_read_graph(trace, chosen):
    for rec, (solutions, weights) in zip(trace.rounds, chosen, strict=True):
        assert rec.gains == weights
        assert rec.workloads == [s.w_star for s in solutions]
        assert rec.feasible == [s.feasible for s in solutions]


class TestPlacement:
    """Every planned claim is placed, or the episode raises: a round records
    exactly the chosen edges of its gain graph."""

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("pool_cfg", [
        PoolConfig(slot_duration=0.3),
        PoolConfig(comp_lanes=1, cycles_per_lane_slot=1e8, slot_duration=0.3),
    ])
    def test_full_compute_claims_fit(self, pool_cfg, mode):
        """At 0.3 s slots a full-compute rate comes back out of the
        rate-to-amount round trip 1.5e-8 cycles above the lanes' capacity;
        it still fits, so no solver-feasible pair is voided."""
        trace, chosen = placed_episode(
            generate_scenario(ScenarioConfig(), 0), GreedyGainPolicy(),
            plan_pipeline(5, pool_cfg.num_slots, mode), pool_cfg,
        )
        assert trace.cumulative_gain > 0
        assert_rounds_read_graph(trace, chosen)

    def test_generation_claim_that_does_not_fit_is_internal_error(self, monkeypatch):
        """A generation claim the pool refuses raises; the pair is not voided."""

        def refuse(bank, freq, comp=None, bad=None):
            return np.ones(len(bank.time_freq), dtype=bool)

        monkeypatch.setattr(PoolBank, "place", refuse)
        env = RoundEnv(lambda _: tiny_scenario(1), plan_pipeline(2, 9, Mode.ZEROS),
                       PoolConfig(), SensingParams())
        obs = env.reset()
        with pytest.raises(InvariantBroken):
            env.step(GreedyGainPolicy().decide(obs))
        assert env.trace.rounds == []

    @given(
        EPISODE_SCENARIOS,
        EPISODE_POOLS,
        st.sampled_from(["random", "greedy", "ml-c", "mp-tsc"]),
        st.sampled_from(list(Mode)),
        st.integers(1, 3),
        st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_episodes_place_every_claim(
        self, scenario_cfg, pool_cfg, policy, mode, rounds, seed
    ):
        schedule = plan_pipeline(rounds, pool_cfg.num_slots, mode)
        trace, chosen = placed_episode(
            generate_scenario(scenario_cfg, seed), make_policy(policy, seed), schedule, pool_cfg
        )
        report = audit_trace(trace, schedule, pool_cfg)
        assert report["ok"], report["failures"]
        assert trace.violations == []
        assert sum(trace.rewards) == trace.cumulative_gain
        assert_rounds_read_graph(trace, chosen)
