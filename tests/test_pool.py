"""Resource pool tests: allocation, residuals, release, conservation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isccsim.pool import (
    EPS,
    CapacityExceeded,
    Claim,
    ConfigurationError,
    GridKind,
    MalformedClaim,
    OutOfHorizon,
    PhantomRelease,
    PoolBank,
    PoolConfig,
    Process,
    pour_lanes,
)


def default_pool(num_slots=9):
    return PoolConfig(
        num_slots=num_slots,
        freq_lanes=4,
        comp_lanes=2,
        slot_duration=0.1,
        hz_per_lane=1e6,
        cycles_per_lane_slot=5e7,
    ).build()


def freq_claim(lanes, slot_range, amount, client=0, rnd=1, process=Process.COMM_DL):
    return Claim(client, rnd, process, GridKind.TIME_FREQ, slot_range, tuple(lanes), amount)


def comp_claim(lanes, slot_range, amount, client=0, rnd=1):
    return Claim(client, rnd, Process.COMP, GridKind.TIME_COMP, slot_range, tuple(lanes), amount)


class TestConstruction:
    def test_cell_capacities(self):
        pool = default_pool()
        # 1 MHz lane over a 0.1 s slot holds 1e5 Hz*s; compute cell holds 5e7 cycles.
        assert pool.time_freq.cell_capacity == pytest.approx(1e5)
        assert pool.time_comp.cell_capacity == pytest.approx(5e7)
        assert pool.time_freq.num_slots == 9
        assert pool.time_comp.num_slots == 9

    def test_aggregate_rates(self):
        pool = default_pool()
        assert pool.bandwidth_hz == pytest.approx(4e6)
        assert pool.compute_cps == pytest.approx(1e9)

    def test_short_horizon(self):
        pool = default_pool(num_slots=5)
        assert pool.num_slots == 5
        assert pool.time_freq.used.shape == (5, 4)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            PoolConfig(0, 4, 2, 0.1, 1e6, 5e7).build()
        with pytest.raises(ConfigurationError):
            PoolConfig(9, 4, 2, -0.1, 1e6, 5e7).build()
        with pytest.raises(ConfigurationError, match="cell capacity"):
            PoolConfig(slot_duration=1e-200, hz_per_lane=1e-200)  # the cells underflow to 0

    @pytest.mark.parametrize("field", ["slot_duration", "hz_per_lane", "cycles_per_lane_slot"])
    def test_rejects_nan_unit_scalars(self, field):
        with pytest.raises(ConfigurationError):
            PoolConfig(**{field: float("nan")})


class TestAllocate:
    def test_exact_fill(self):
        pool = default_pool()
        pool.try_allocate(freq_claim([0], (0, 9), 1e5))
        assert pool.time_freq.residual()[:, 0].max() == pytest.approx(0.0)
        # Remaining lanes untouched.
        assert pool.time_freq.residual()[:, 1].min() == pytest.approx(1e5)

    def test_over_capacity_raises_and_rolls_back(self):
        pool = default_pool()
        pool.try_allocate(freq_claim([0], (0, 9), 6e4))
        before = pool.time_freq.used.copy()
        with pytest.raises(CapacityExceeded):
            pool.try_allocate(freq_claim([0], (3, 6), 5e4))
        assert np.array_equal(pool.time_freq.used, before)
        assert len(pool.claims) == 1

    def test_disjoint_lanes_share_slots(self):
        pool = default_pool()
        pool.try_allocate(freq_claim([0, 1], (0, 5), 1e5))
        pool.try_allocate(freq_claim([2, 3], (0, 5), 1e5))
        assert pool.time_freq.residual((0, 5)).max() == pytest.approx(0.0)

    def test_partial_amounts_stack(self):
        pool = default_pool()
        pool.try_allocate(freq_claim([0], (0, 9), 4e4))
        pool.try_allocate(freq_claim([0], (0, 9), 6e4))
        assert pool.time_freq.residual()[:, 0].max() == pytest.approx(0.0)

    def test_out_of_horizon(self):
        pool = default_pool()
        with pytest.raises(OutOfHorizon):
            pool.try_allocate(freq_claim([0], (5, 10), 1.0))

    def test_comp_grid_independent_of_freq(self):
        pool = default_pool()
        pool.try_allocate(freq_claim([0, 1, 2, 3], (0, 9), 1e5))
        # Frequency saturated, compute still empty.
        pool.try_allocate(comp_claim([0, 1], (0, 9), 5e7))
        f_res, c_res = pool.residual()
        assert f_res.max() == pytest.approx(0.0)
        assert c_res.max() == pytest.approx(0.0)

    def test_time_only_claim_touches_no_cells(self):
        pool = default_pool()
        claim = Claim(0, 1, Process.SENS, GridKind.NONE, (0, 3), (), 0.0)
        pool.try_allocate(claim)
        f_res, c_res = pool.residual()
        assert f_res.min() == pytest.approx(1e5)
        assert c_res.min() == pytest.approx(5e7)
        assert claim in pool.claims

    def test_malformed_claims(self):
        pool = default_pool()
        with pytest.raises(MalformedClaim):
            pool.try_allocate(freq_claim([0], (3, 3), 1.0))  # empty range
        with pytest.raises(MalformedClaim):
            pool.try_allocate(freq_claim([0, 0], (0, 1), 1.0))  # dup lane
        with pytest.raises(MalformedClaim):
            pool.try_allocate(freq_claim([], (0, 1), 1.0))  # no lanes
        with pytest.raises(MalformedClaim):
            pool.try_allocate(freq_claim([7], (0, 1), 1.0))  # lane outside grid
        with pytest.raises(MalformedClaim):
            # compute process on the frequency grid
            pool.try_allocate(
                Claim(0, 1, Process.COMP, GridKind.TIME_FREQ, (0, 1), (0,), 1.0)
            )


class TestResidual:
    def test_full_pool_residual(self):
        pool = default_pool()
        f_res, c_res = pool.residual()
        assert f_res.shape == (9, 4)
        assert c_res.shape == (9, 2)
        assert np.all(f_res == 1e5)
        assert np.all(c_res == 5e7)

    def test_range_residual_after_claim(self):
        pool = default_pool()
        pool.try_allocate(freq_claim([1], (2, 5), 3e4))
        f_res, _ = pool.residual((0, 9))
        assert f_res[2, 1] == pytest.approx(7e4)
        assert f_res[1, 1] == pytest.approx(1e5)
        f_win, _ = pool.residual((2, 5))
        assert f_win.shape == (3, 4)
        assert np.all(f_win[:, 1] == pytest.approx(7e4))

    def test_rect_bandwidth_uses_binding_slot(self):
        pool = default_pool()
        pool.try_allocate(freq_claim([0], (4, 5), 1e5))  # one slot of lane 0 full
        # Lane 0 contributes nothing over any window containing slot 4.
        assert pool.rect_bandwidth_hz((0, 9)) == pytest.approx(3e6)
        assert pool.rect_bandwidth_hz((0, 4)) == pytest.approx(4e6)


class TestRelease:
    def test_release_restores_cells(self):
        pool = default_pool()
        pool.try_allocate(freq_claim([0, 1], (0, 4), 5e4, rnd=3))
        pool.try_allocate(comp_claim([0], (0, 4), 2e7, rnd=3))
        pool.try_allocate(freq_claim([2], (0, 4), 5e4, rnd=4))
        pool.release_round(3)
        f_res, c_res = pool.residual()
        assert np.all(f_res[:, :2] == pytest.approx(1e5))
        assert np.all(c_res == pytest.approx(5e7))
        assert f_res[0, 2] == pytest.approx(5e4)
        assert all(c.round_index == 4 for c in pool.claims)

    def test_phantom_release_raises(self):
        pool = default_pool()
        pool.claims.append(freq_claim([0, 1], (0, 4), 5e4))  # never allocated
        with pytest.raises(PhantomRelease):
            pool.release_round(1)
        pool = default_pool()
        pool.try_allocate(freq_claim([2], (0, 4), 5e4))
        with pytest.raises(PhantomRelease):
            pool.time_freq.apply(freq_claim([2], (0, 4), 6e4), -1.0)

    def test_release_noise_within_eps_clips_to_zero(self):
        pool = default_pool()
        pool.try_allocate(comp_claim([0], (0, 4), 2e7))
        pool.time_comp.apply(comp_claim([0], (0, 4), 2e7 + 1e-3), -1.0)
        assert np.all(pool.time_comp.used == 0.0)

    @given(
        st.integers(0, 8),
        st.integers(1, 9),
        st.permutations(range(4)),
        st.integers(1, 4),
        st.floats(0.0, 1e5, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_allocate_then_release_leaves_exact_zeros(self, s0, width, order, k, amount):
        pool = default_pool()
        claim = freq_claim(order[:k], (s0, min(s0 + width, 9)), amount)
        pool.try_allocate(claim)
        pool.release_round(claim.round_index)
        assert np.all(pool.time_freq.used == 0.0)

    def test_release_missing_round_is_noop(self):
        pool = default_pool()
        pool.try_allocate(freq_claim([0], (0, 4), 5e4, rnd=1))
        before = pool.time_freq.used.copy()
        pool.release_round(99)
        assert np.array_equal(pool.time_freq.used, before)
        assert len(pool.claims) == 1


class TestPour:
    def test_pour_groups_consecutive_lanes(self):
        pool = default_pool()
        groups = pool.pour_bandwidth((0, 9), 2.5e6)
        # 2.5 MHz over 0.1 s slots: two full lanes then half a lane.
        assert groups == [((0, 1), pytest.approx(1e5)), ((2,), pytest.approx(5e4))]

    def test_pour_respects_prior_claims(self):
        pool = default_pool()
        pool.try_allocate(freq_claim([0], (3, 4), 1e5))
        groups = pool.pour_bandwidth((0, 9), 3e6)
        assert groups == [((1, 2, 3), pytest.approx(1e5))]

    def test_pour_refuses_when_short(self):
        pool = default_pool()
        assert pool.pour_bandwidth((0, 9), 4.5e6) is None

    def test_poured_groups_always_allocate(self):
        pool = default_pool()
        pool.try_allocate(freq_claim([1], (0, 2), 4e4))
        hz = pool.rect_bandwidth_hz((0, 5))
        groups = pool.pour_bandwidth((0, 5), hz)
        assert groups is not None
        for lanes, amount in groups:
            pool.try_allocate(freq_claim(lanes, (0, 5), amount, rnd=7))

    def test_zero_demand(self):
        pool = default_pool()
        assert pool.pour_bandwidth((0, 9), 0.0) == []

    @pytest.mark.parametrize("lanes, cap, dt", [(1, 1e8, 0.3), (2, 5e7, 0.3)])
    def test_full_rate_round_trip_fits(self, lanes, cap, dt):
        """The amount of the lanes' full rate, lanes * cap / dt, comes back
        1.5e-8 above lanes * cap: round-off, so it fits; a real excess does not."""
        demand = (lanes * cap / dt) * dt
        assert demand > lanes * cap + EPS
        assert pour_lanes([cap] * lanes, demand) == [(tuple(range(lanes)), cap)]
        assert pour_lanes([cap] * lanes, lanes * cap * (1 + 1e-6)) is None
        assert pour_lanes([cap] * lanes, EPS / 2) == []

    def test_pour_onto_large_partly_used_cell_allocates(self):
        """Usage plus the poured residual rounds an ulp (7.5e-9) above this
        cell's capacity, which still fits."""
        pool = PoolConfig(9, 1, 1, 0.3, 195355265.17129013, 5e7).build()
        pool.try_allocate(freq_claim([0], (0, 3), 24344237.630573))
        groups = pool.pour_bandwidth((0, 3), pool.rect_bandwidth_hz((0, 3)))
        assert groups is not None
        for lanes, amount in groups:
            pool.try_allocate(freq_claim(lanes, (0, 3), amount, rnd=2))


@st.composite
def claim_batches(draw):
    num_slots = draw(st.integers(3, 10))
    claims = []
    for _ in range(draw(st.integers(1, 12))):
        s0 = draw(st.integers(0, num_slots - 1))
        s1 = draw(st.integers(s0 + 1, num_slots))
        lanes = tuple(draw(st.permutations(range(4)))[:draw(st.integers(1, 4))])
        amount = draw(st.floats(0.0, 1.5e5, allow_nan=False))
        rnd = draw(st.integers(1, 3))
        claims.append(freq_claim(lanes, (s0, s1), amount, rnd=rnd))
    return num_slots, claims


class TestConservation:
    @given(claim_batches())
    @example((9, [freq_claim((2, 0, 1), (0, 9), 4e4), freq_claim((1, 2), (3, 5), 6e4)]))
    @example((9, [freq_claim((0, 2), (0, 9), 4e4), freq_claim((3, 1), (2, 4), 5e4)]))
    @settings(max_examples=120, deadline=None)
    def test_usage_equals_sum_of_accepted_claims(self, batch):
        """Rectangle updates give the per-lane reference's usage bit for bit."""
        num_slots, claims = batch
        pool = default_pool(num_slots=num_slots)
        expected = np.zeros((num_slots, 4))
        for claim in claims:
            try:
                pool.try_allocate(claim)
            except CapacityExceeded:
                continue
            s0, s1 = claim.slot_range
            for lane in claim.lanes:
                expected[s0:s1, lane] += claim.amount_per_cell
        assert np.array_equal(pool.time_freq.used, expected)
        assert np.all(pool.time_freq.used <= pool.time_freq.cell_capacity + EPS)

    @given(claim_batches())
    @settings(max_examples=120, deadline=None)
    def test_release_all_rounds_restores_empty(self, batch):
        num_slots, claims = batch
        pool = default_pool(num_slots=num_slots)
        for claim in claims:
            try:
                pool.try_allocate(claim)
            except CapacityExceeded:
                pass
        for rnd in (1, 2, 3):
            pool.release_round(rnd)
        assert np.allclose(pool.time_freq.used, 0.0, atol=1e-6)
        assert pool.claims == []

    @given(claim_batches())
    @settings(max_examples=60, deadline=None)
    def test_rejection_is_atomic(self, batch):
        num_slots, claims = batch
        pool = default_pool(num_slots=num_slots)
        for claim in claims:
            before = pool.time_freq.used.copy()
            n_before = len(pool.claims)
            try:
                pool.try_allocate(claim)
            except CapacityExceeded:
                assert np.array_equal(pool.time_freq.used, before)
                assert len(pool.claims) == n_before

    @given(claim_batches(), st.permutations([Process.COMM_DL, Process.COMM_UL, Process.SENS]))
    @settings(max_examples=60, deadline=None)
    def test_acceptance_ignores_process_tag(self, batch, procs):
        """Which process owns a claim never changes whether it fits."""
        num_slots, claims = batch
        outcomes = []
        for tag in [None, procs[0]]:
            pool = default_pool(num_slots=num_slots)
            accepted = []
            for claim in claims:
                c = claim if tag is None else Claim(
                    claim.client_id, claim.round_index, tag, claim.grid,
                    claim.slot_range, claim.lanes, claim.amount_per_cell,
                )
                try:
                    pool.try_allocate(c)
                    accepted.append(True)
                except CapacityExceeded:
                    accepted.append(False)
            outcomes.append((accepted, pool.time_freq.used.copy()))
        assert outcomes[0][0] == outcomes[1][0]
        assert np.array_equal(outcomes[0][1], outcomes[1][1])


@st.composite
def bank_histories(draw):
    """A pool shape, N clients and a sequence of allocations and round releases."""
    cfg = PoolConfig(
        num_slots=draw(st.integers(1, 9)),
        freq_lanes=draw(st.integers(1, 5)),
        comp_lanes=draw(st.integers(1, 3)),
        slot_duration=draw(st.sampled_from([0.1, 0.05, 0.3])),
        hz_per_lane=draw(st.sampled_from([1e6, 7.3e5])),
        cycles_per_lane_slot=draw(st.sampled_from([5e7, 1.1e7])),
    )
    n = draw(st.integers(1, 6))
    steps = []
    for _ in range(draw(st.integers(0, 25))):
        client = draw(st.integers(0, n - 1))
        rnd = draw(st.integers(1, 3))
        if draw(st.integers(0, 4)) == 0:
            steps.append(("release", client, rnd))
            continue
        grid = draw(st.sampled_from([GridKind.TIME_FREQ, GridKind.TIME_COMP]))
        lanes_total = cfg.freq_lanes if grid is GridKind.TIME_FREQ else cfg.comp_lanes
        cap = cfg.hz_per_lane * cfg.slot_duration if grid is GridKind.TIME_FREQ \
            else cfg.cycles_per_lane_slot
        lanes = draw(st.permutations(range(lanes_total)))[:draw(st.integers(1, lanes_total))]
        s0 = draw(st.integers(0, cfg.num_slots - 1))
        s1 = draw(st.integers(s0 + 1, cfg.num_slots))
        amount = cap * draw(st.floats(0.0, 1.2, allow_nan=False))
        process = Process.COMM_DL if grid is GridKind.TIME_FREQ else Process.COMP
        steps.append(("alloc", client, Claim(client, rnd, process, grid, (s0, s1),
                                             tuple(lanes), amount)))
    return cfg, n, steps


def claim_load(bank, claim):
    """A claim as a bank load: its amount on its cells of its client's row."""
    grid = bank.time_freq if claim.grid is GridKind.TIME_FREQ else bank.time_comp
    load = np.zeros_like(grid)
    load[claim.client_id, slice(*claim.slot_range), list(claim.lanes)] = claim.amount_per_cell
    return (load, None) if claim.grid is GridKind.TIME_FREQ else (None, load)


class TestBank:
    @given(bank_histories())
    @settings(max_examples=200, deadline=None)
    def test_bank_reductions_equal_per_pool_methods(self, history):
        """The bank's batch operations, fed one claim at a time, and separately
        built pools agree bit for bit after any history."""
        cfg, n, steps = history
        bank = PoolBank(cfg, n)
        pools = [cfg.build() for _ in range(n)]
        placed = [[] for _ in range(n)]  # per client, (round, load) in ledger order
        for kind, client, arg in steps:
            if kind == "release":
                pools[client].release_round(arg)
                for _, load in [x for x in placed[client] if x[0] == arg]:
                    bank.release(*load)
                placed[client] = [x for x in placed[client] if x[0] != arg]
                continue
            load = claim_load(bank, arg)
            before = bank.time_freq.copy(), bank.time_comp.copy()
            try:
                pools[client].try_allocate(arg)
            except CapacityExceeded:
                assert bank.place(*load).tolist() == [i == client for i in range(n)]
                assert np.array_equal(bank.time_freq, before[0])
                assert np.array_equal(bank.time_comp, before[1])
                continue
            assert not bank.place(*load).any()
            placed[client].append((arg.round_index, load))
        for i, p in enumerate(pools):
            assert np.array_equal(bank.time_freq[i], p.time_freq.used)
            assert np.array_equal(bank.time_comp[i], p.time_comp.used)
        rect = bank.rect_bandwidth_hz()
        f_frac, c_frac = bank.residual_fraction()
        for i, p in enumerate(pools):
            assert rect[i] == p.rect_bandwidth_hz((0, cfg.num_slots))
            assert (f_frac[i], c_frac[i]) == p.residual_fraction()
        # Peak use and residue as the audit computed them pool by pool.
        peak = max(float(g.used.max() / g.cell_capacity)
                   for p in pools for g in (p.time_freq, p.time_comp))
        assert bank.peak_use() == peak
        residue = [
            i for i, p in enumerate(pools)
            if np.abs(p.time_freq.used).max() > 1e-9 * p.time_freq.cell_capacity
            or np.abs(p.time_comp.used).max() > 1e-9 * p.time_comp.cell_capacity
        ]
        assert bank.residue_rows().tolist() == residue

    def test_load_touches_only_its_row(self):
        bank = PoolBank(PoolConfig(), 3)
        assert not bank.place(*claim_load(bank, freq_claim([1, 2], (0, 9), 1e5, client=1))).any()
        assert bank.time_freq[1, :, 1:3].min() == 1e5
        assert bank.time_freq[[0, 2]].max() == 0.0
        assert bank.rect_bandwidth_hz().tolist() == [4e6, 2e6, 4e6]

    def test_release_below_zero_is_phantom(self):
        bank = PoolBank(PoolConfig(), 2)
        load = claim_load(bank, comp_claim([0], (0, 4), 2e7, client=1))
        assert not bank.place(*load).any()
        bank.release(*load)
        before = bank.time_comp.copy()
        with pytest.raises(PhantomRelease):
            bank.release(*load)
        assert np.array_equal(bank.time_comp, before)
