"""Scenario, mobility, channel, and sensing tests."""

import math
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EPISODE_SCENARIOS, EXTREME_SCALES, TINY_SCENARIO, random_scenarios
from isccsim import network
from isccsim.network import (
    SENSE_BAND,
    SENSE_BLOCK,
    SENSE_ERR,
    SENSE_T2_MAX,
    ChannelParams,
    Client,
    EdgeServer,
    Scenario,
    ScenarioConfig,
    SensingMode,
    Target,
    _sense_bands,
    clone_scenario,
    generate_scenario,
    local_distribution,
    sense_rows,
    sense_targets,
    sensed_class_counts,
    spectral_efficiencies,
    spectral_efficiency,
    step_mobility,
)


def make_client(mode=SensingMode.VS, radius=60.0):
    return Client(0, mode, radius, (2e6,), (1e6,), (1e7,))


def reflect_reference(coord, vel, area):
    """One coordinate's boundary fold, on Python floats."""
    coord = coord % (2.0 * area)
    if coord > area:
        return 2.0 * area - coord, -vel
    return coord, vel


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def reference_counts(sc, positions=None):
    """Class counts of `sense_targets` for every client, as lists: (N, K)
    at the scenario's positions, or (R, N, K) at each of (R, N, 2)
    `positions`."""
    xy = sc.positions if positions is None else positions
    if xy.ndim == 3:
        return [reference_counts(sc, one) for one in xy]
    return [
        np.bincount([t.class_id for t in sense_targets(xy[i], c.sensing_radius_m, sc.targets)],
                    minlength=sc.num_classes).tolist()
        for i, c in enumerate(sc.clients)
    ]


def on_circle(centre, r, side):
    """The float coordinate farthest to `side` (+1 or -1) of `centre` that
    `distance_m` still puts within `r` of a client at `centre` in the same
    row (for x) or column (for y)."""
    x, out = centre + side * r, side * math.inf
    while abs(centre - x) > r:
        x = math.nextafter(x, -out)
    while abs(centre - math.nextafter(x, out)) <= r:
        x = math.nextafter(x, out)
    return x


@st.composite
def crowded_scenarios(draw, offset=None):
    """Several sensing blocks over hundreds of targets, so that the x and y
    culls cut: clustered clients and targets, targets on a client's circle
    in its row (x = x_c +- r, dy = 0) or its column (dx = 0, y = y_c +- r),
    repeated target x, clients far out in x and in y (where positions
    collapse onto a coarse float grid; `offset` fixes how far in both, and
    each is drawn when it is None), one radius for all clients,
    two alternating radii or one each, and a stack of zero-radius clients
    at x = 0 over targets on their point."""
    n = draw(st.integers(2 * SENSE_BLOCK + 1, 4 * SENSE_BLOCK))
    k = draw(st.integers(1, 5))
    far = [0.0, 3e4, -7e8, 2.0**60]
    shift = np.array([draw(st.sampled_from(far)) if offset is None else offset,
                      draw(st.sampled_from(far)) if offset is None else offset])
    radius_kind = draw(st.sampled_from(["shared", "two", "each"]))
    stack = draw(st.sampled_from([0, 0, 2 * SENSE_BLOCK]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.uniform(0.0, 300.0, size=(int(rng.integers(1, 5)), 2))

    def cloud(count, spread):
        near = centres[rng.integers(0, len(centres), count)] + rng.normal(0.0, spread, (count, 2))
        return np.vstack([near, rng.uniform(-20.0, 320.0, (count, 2))])

    xy = cloud((n + 1) // 2, 5.0)[:n] + shift
    radii = {"shared": np.full(n, rng.uniform(1.0, 100.0)),
             "two": rng.uniform(1.0, 100.0, 2)[np.arange(n) % 2],
             "each": rng.uniform(0.0, 100.0, n)}[radius_kind]
    xy[:stack], radii[:stack] = (0.0, 77.0), 0.0

    txy = cloud(int(rng.integers(50, 150)), 8.0) + shift
    copies = rng.integers(0, len(txy), len(txy) // 4)
    txy[-len(copies):, 0] = txy[copies, 0]
    edge = [(on_circle(x, r, side), y) if axis else (x, on_circle(y, r, side))
            for (x, y), r, side, axis in zip(xy.tolist(), radii.tolist(), rng.choice([-1, 1], n),
                                             rng.integers(0, 2, n).tolist())
            if rng.random() < 0.4]
    points = txy.tolist() + edge + [(0.0, 77.0)] * (3 if stack else 0)
    targets = [Target(j, tuple(p), int(rng.integers(0, k))) for j, p in enumerate(points)]
    clients = [Client(i, SensingMode.VS, r, (1e6,), (1e6,), (1e7,))
               for i, r in enumerate(radii.tolist())]
    return Scenario(300.0, clients, [], targets, k, ChannelParams(), xy, [(0.0, 0.0)] * n)


def forced_bands():
    """Patch the band cost to zero and the group size to two blocks, so that
    inputs of 9 blocks or more are split into radius groups and y bands."""
    return mock.patch.multiple(network, SENSE_BAND_PAIRS=0.0, SENSE_GROUP=2 * SENSE_BLOCK)


@st.composite
def crowded_stacks(draw):
    """A `crowded_scenarios` scenario and (R, N, 2) placements of its
    clients: each round moves every client by up to 40 m and shifts the
    whole set in y by a multiple of 60 m, so that the stack spans several
    bands. Under `forced_bands`, the lowest and highest client of each
    band gets a target on its circle in its column, as far out as
    `distance_m` still counts it."""
    sc = draw(crowded_scenarios())
    rounds = draw(st.integers(5, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shifts = np.array([0.0, 1.0]) * 60.0 * rng.integers(-3, 4, (rounds, 1, 1))
    positions = sc.positions + rng.uniform(-40.0, 40.0, (rounds, len(sc.clients), 2)) + shifts
    xy = positions.reshape(-1, 2)
    radii = np.tile(sc.sense_arrays()[4], rounds)
    with forced_bands():
        rows, firsts, _ = _sense_bands(xy, radii, len(sc.targets))
    edge = []
    for band in np.split(rows, firsts[1:]):
        for row, side in ((band[xy[band, 1].argmin()], -1), (band[xy[band, 1].argmax()], 1)):
            edge.append((xy[row, 0], on_circle(xy[row, 1], radii[row], side)))
    targets = sc.targets + [Target(len(sc.targets) + j, p, j % sc.num_classes)
                            for j, p in enumerate(edge)]
    return Scenario(300.0, sc.clients, [], targets, sc.num_classes, ChannelParams(),
                    sc.positions, sc.velocities), positions


def reference_clients(config, rng):
    """The per-client draws `generate_scenario` replaces: one `uniform` call
    per value, client after client, and each client's size tuples built anew."""
    area = config.area_m
    clients, positions, velocities = [], [], []
    for i in range(config.num_clients):
        positions.append(rng.uniform(0.0, area, size=2))
        speed = rng.uniform(0.0, config.v_max_mps)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        velocities.append((speed * math.cos(heading), speed * math.sin(heading)))
        mode = SensingMode.VS if i % 2 == 0 else SensingMode.WS
        radius = config.vs_radius_m if mode is SensingMode.VS else config.ws_radius_m
        dl = tuple(config.dl_bits_base * (1.0 + 0.2 * m) for m in range(config.num_models))
        ul = tuple(config.ul_bits_base * (1.0 + 0.2 * m) for m in range(config.num_models))
        cyc = tuple(config.cycles_base * (1.0 + 0.5 * m) for m in range(config.num_models))
        clients.append(Client(i, mode, radius, dl, ul, cyc))
    return clients, np.array(positions).reshape(-1, 2), np.array(velocities).reshape(-1, 2)


def scenario_rng(seed):
    return np.random.default_rng(np.random.SeedSequence([seed, 0xA51C]))


def assert_generation_matches_reference(config, seed):
    """Equal clients, positions and velocities bit for bit, and the generator
    left in the same state, so equal targets too."""
    rng = scenario_rng(seed)
    clients, positions, velocities = reference_clients(config, rng)
    sc = generate_scenario(config, seed)
    assert sc.clients == clients
    assert sc.positions.tobytes() == positions.tobytes()
    assert sc.velocities.tobytes() == velocities.tobytes()
    mine = scenario_rng(seed)
    mine.random((config.num_clients, 4))
    assert mine.bit_generator.state == rng.bit_generator.state
    targets = [(tuple(rng.uniform(0.0, config.area_m, size=2)),
                int(rng.integers(0, config.num_classes))) for _ in range(config.num_targets)]
    assert [(t.position, t.class_id) for t in sc.targets] == targets


class TestScenarioGeneration:
    @pytest.mark.parametrize("config", [
        TINY_SCENARIO, ScenarioConfig(), ScenarioConfig(num_clients=1000, num_targets=2000),
        ScenarioConfig(num_clients=1, num_models=3, v_max_mps=0.0),
    ], ids=["tiny", "reference", "n1000", "one-client"])
    @pytest.mark.parametrize("seed", [0, 7, 101])
    def test_client_draws_match_per_client_reference(self, config, seed):
        assert_generation_matches_reference(config, seed)

    @given(EPISODE_SCENARIOS, st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_configs_match_per_client_reference(self, config, seed):
        assert_generation_matches_reference(config, seed)

    def test_default_shape(self):
        sc = generate_scenario(ScenarioConfig(), seed=1)
        assert len(sc.clients) == 50
        assert len(sc.targets) == 100
        assert len(sc.edges) == 4
        assert sc.area_m == 500.0
        assert sc.positions.shape == sc.velocities.shape == (50, 2)
        assert np.all((sc.positions >= 0.0) & (sc.positions <= 500.0))

    def test_same_seed_identical(self):
        a = generate_scenario(ScenarioConfig(), seed=7)
        b = generate_scenario(ScenarioConfig(), seed=7)
        assert a.clients == b.clients
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)
        assert a.targets == b.targets
        assert a.edges == b.edges

    def test_different_seeds_differ(self):
        a = generate_scenario(ScenarioConfig(), seed=7)
        b = generate_scenario(ScenarioConfig(), seed=8)
        assert not np.array_equal(a.positions, b.positions)

    def test_sensing_modes_alternate(self):
        sc = generate_scenario(ScenarioConfig(num_clients=6), seed=1)
        modes = [c.sensing_mode for c in sc.clients]
        assert modes == [
            SensingMode.VS, SensingMode.WS, SensingMode.VS,
            SensingMode.WS, SensingMode.VS, SensingMode.WS,
        ]

    def test_mixtures_are_distributions(self):
        sc = generate_scenario(ScenarioConfig(num_models=3), seed=2)
        for edge in sc.edges:
            assert len(edge.model_mixtures) == 3
            for mix in edge.model_mixtures:
                assert sum(mix) == pytest.approx(1.0)
                assert max(mix) == pytest.approx(0.7)

    def test_model_task_sizes_scale(self):
        sc = generate_scenario(ScenarioConfig(num_models=2), seed=2)
        c = sc.clients[0]
        assert c.dl_bits == (2e6, pytest.approx(2.4e6))
        assert c.cycles_per_sample == (1e7, pytest.approx(1.5e7))


class TestMobility:
    def test_straight_line_step(self):
        sc = generate_scenario(ScenarioConfig(), seed=1)
        start = sc.positions[0].tolist()
        vel = sc.velocities[0].tolist()
        step_mobility(sc, 0.5)
        moved = sc.positions[0]
        # Client 0 is interior for this seed, so the step is exact.
        assert moved[0] == pytest.approx(start[0] + 0.5 * vel[0])
        assert moved[1] == pytest.approx(start[1] + 0.5 * vel[1])
        assert sc.time_s == pytest.approx(0.5)

    def test_reflection_at_boundary(self):
        sc = generate_scenario(ScenarioConfig(num_clients=1, v_max_mps=0.0), seed=1)
        sc.positions[0] = (499.0, 250.0)
        sc.velocities[0] = (10.0, 0.0)
        step_mobility(sc, 1.0)
        assert sc.positions[0, 0] == pytest.approx(491.0)
        assert sc.velocities[0, 0] == pytest.approx(-10.0)

    @given(
        st.floats(0.0, 500.0), st.floats(-20.0, 20.0),
        st.integers(1, 40), st.floats(0.1, 5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_positions_stay_in_area(self, x0, vx, steps, dt):
        sc = generate_scenario(ScenarioConfig(num_clients=1), seed=1)
        sc.positions[0] = (x0, 250.0)
        sc.velocities[0] = (vx, 0.0)
        for _ in range(steps):
            step_mobility(sc, dt)
        x = sc.positions[0, 0]
        assert -1e-9 <= x <= 500.0 + 1e-9

    def test_zero_velocity_fixed_point(self):
        sc = generate_scenario(ScenarioConfig(num_clients=1), seed=1)
        sc.positions[0] = (100.0, 100.0)
        sc.velocities[0] = (0.0, 0.0)
        step_mobility(sc, 10.0)
        assert sc.positions[0].tolist() == [100.0, 100.0]

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 100).map(float), st.floats(0.0, 100.0)),
                st.one_of(st.integers(-450, 450).map(float), st.floats(-450.0, 450.0)),
            ),
            min_size=1, max_size=40,
        ),
        st.sampled_from([0.25, 0.7, 1.0, 3.0]),
        st.integers(1, 30),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_fold_bitwise(self, coords, dt, frames):
        """Whole-array mobility equals folding each coordinate on Python
        floats, bit for bit: negative velocities, steps longer than two
        areas (|v| dt up to 1350 on a 100 m area) and, with integer
        coordinates and velocities, landings exactly on 0 and on the area."""
        area = 100.0
        n = len(coords)
        sc = Scenario(area, [make_client()] * n, [], [], 2, ChannelParams(),
                      [(x, x) for x, _ in coords], [(v, -v) for _, v in coords])
        ref = [[x, x, v, -v] for x, v in coords]
        for _ in range(frames):
            step_mobility(sc, dt)
            for row in ref:
                row[0], row[2] = reflect_reference(row[0] + row[2] * dt, row[2], area)
                row[1], row[3] = reflect_reference(row[1] + row[3] * dt, row[3], area)
            assert np.array_equal(bits(sc.positions), bits([r[:2] for r in ref]))
            assert np.array_equal(bits(sc.velocities), bits([r[2:] for r in ref]))
        assert sc.time_s == pytest.approx(frames * dt)

    def test_clone_owns_its_kinematics(self):
        sc = generate_scenario(ScenarioConfig(num_clients=4, num_targets=10), seed=3)
        pos, vel = sc.positions.copy(), sc.velocities.copy()
        clone = clone_scenario(sc)
        assert clone.clients == sc.clients
        assert all(a is b for a, b in zip(clone.clients, sc.clients))
        for _ in range(50):
            step_mobility(clone, 5.0)
        assert not np.array_equal(clone.positions, pos)
        assert not np.array_equal(clone.velocities, vel)
        assert np.array_equal(bits(sc.positions), bits(pos))
        assert np.array_equal(bits(sc.velocities), bits(vel))
        assert sc.time_s == 0.0


class TestChannel:
    def test_known_distance_value(self):
        # SNR = 0.5 * 1e-4 * 100^-2.8 / 6e-13 at 100 m.
        ch = ChannelParams()
        edge = EdgeServer(0, (100.0, 0.0), ((1.0,),))
        snr = 0.5 * 1e-4 * 100.0 ** (-2.8) / 6e-13
        assert spectral_efficiency((0.0, 0.0), edge, ch) == pytest.approx(math.log2(1 + snr))

    def test_distance_clamp(self):
        ch = ChannelParams()
        client = (0.0, 0.0)
        at_zero = EdgeServer(0, (0.0, 0.0), ((1.0,),))
        at_half = EdgeServer(0, (0.5, 0.0), ((1.0,),))
        at_one = EdgeServer(0, (1.0, 0.0), ((1.0,),))
        assert spectral_efficiency(client, at_zero, ch) == spectral_efficiency(client, at_one, ch)
        assert spectral_efficiency(client, at_half, ch) == spectral_efficiency(client, at_one, ch)

    @given(st.floats(1.0, 2000.0), st.floats(1.0, 2000.0))
    @settings(max_examples=80, deadline=None)
    def test_monotone_decreasing_in_distance(self, d1, d2):
        ch = ChannelParams()
        client = (0.0, 0.0)
        lo, hi = sorted((d1, d2))
        e_lo = spectral_efficiency(client, EdgeServer(0, (lo, 0.0), ((1.0,),)), ch)
        e_hi = spectral_efficiency(client, EdgeServer(0, (hi, 0.0), ((1.0,),)), ch)
        assert e_lo >= e_hi
        assert e_hi > 0.0


class TestSensing:
    def test_closed_ball_boundary_inclusive(self):
        targets = [
            Target(0, (50.0, 0.0), 0),   # exactly on the boundary
            Target(1, (50.0001, 0.0), 1),
            Target(2, (30.0, 30.0), 2),  # hypot ~42.4
        ]
        seen = sense_targets((0.0, 0.0), 50.0, targets)
        assert [t.target_id for t in seen] == [0, 2]

    def test_counts(self):
        targets = [Target(i, (0.0, 0.0), c) for i, c in enumerate([0, 0, 2, 3, 3, 3])]
        far = Target(6, (500.0, 0.0), 1)
        sc = Scenario(500.0, [make_client()], [], targets + [far], 4, ChannelParams(),
                      [(0.0, 0.0)], [(0.0, 0.0)])
        assert sensed_class_counts(sc).tolist() == [[2.0, 0.0, 1.0, 3.0]]

    def test_empty(self):
        assert sense_targets((0.0, 0.0), 1.0, []) == []

    @pytest.mark.parametrize("radius", [-5.0, math.nan])
    def test_negative_or_nan_radius_rejected(self, radius):
        """A client built directly may carry a radius `ScenarioConfig` rules
        out: `sense_targets` senses nothing with it, and the array pass
        raises rather than count the target 3 m away."""
        sc = Scenario(10.0, [make_client(radius=radius)], [], [Target(0, (3.0, 0.0), 0)], 2,
                      ChannelParams(), [(0.0, 0.0)], [(0.0, 0.0)])
        assert sense_targets((0.0, 0.0), radius, sc.targets) == []
        with pytest.raises(ValueError, match="sensing radii"):
            sensed_class_counts(sc)

    # Squares of coordinates and radii beyond 1e154 overflow, which numpy reports.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @given(st.one_of(random_scenarios(), random_scenarios(extreme=True)))
    @settings(max_examples=160, deadline=None)
    def test_array_pass_matches_reference(self, sc):
        """Including zero radii, targets exactly on the radius at subnormal,
        zero and overflowing squares, no targets, and partial blocks."""
        counts = sensed_class_counts(sc)
        assert counts.shape == (len(sc.clients), sc.num_classes)
        assert counts.tolist() == reference_counts(sc)

    @given(crowded_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_culled_pass_matches_reference(self, sc):
        """With more than two blocks, each block sees only the targets in
        its x reach; the counts stay exactly the reference's."""
        assert sensed_class_counts(sc).tolist() == reference_counts(sc)

    @given(crowded_stacks())
    @settings(max_examples=30, deadline=None)
    def test_banded_pass_matches_reference(self, stack):
        """Stacked placements under `forced_bands`, so that inputs this small
        are split: radius groups split, bands culled in y and blocks in x.
        The counts stay exactly the reference's."""
        sc, positions = stack
        with forced_bands():
            counts = sensed_class_counts(sc, positions)
        assert counts.tolist() == reference_counts(sc, positions)

    @pytest.mark.parametrize("config, rounds, bands, culled", [
        (ScenarioConfig(area_m=300.0, num_clients=300, num_targets=1500), 4, [3, 3], True),
        (ScenarioConfig(), 5, [1], False),
    ], ids=["dense", "reference"])
    def test_stacks_band_by_their_size(self, config, rounds, bands, culled):
        """With the default constants a dense 4-round stack splits into its
        two radius groups of 3 bands each, all culled in y, while the
        reference N=50 scenario's 5 rounds keep one band in x order. Both
        count exactly as the reference."""
        sc = generate_scenario(config, seed=3)
        moving = clone_scenario(sc)
        positions = np.stack([step_mobility(moving, 2.0).positions.copy() for _ in range(rounds)])
        xy, radii = positions.reshape(-1, 2), np.tile(sc.sense_arrays()[4], rounds)
        rows, firsts, in_y = _sense_bands(xy, radii, len(sc.targets))
        group_of_band = radii[rows][firsts]
        assert [int((group_of_band == r).sum()) for r in np.unique(group_of_band)] == bands
        assert in_y.tolist() == [culled] * sum(bands)
        assert sensed_class_counts(sc, positions).tolist() == reference_counts(sc, positions)

    # The crowded case far out in x: each client's product errs by up to
    # about 2^-48 * 4e14, so the pairs near its circle, the targets placed on
    # it among them, are all left to `distance_m`.
    @given(crowded_scenarios(offset=1e7))
    @settings(max_examples=30, deadline=None)
    def test_unsure_pairs_match_reference(self, sc):
        _, operand, _, _, _, r2, margin = sc.sense_arrays()
        c = sense_rows(sc.positions)
        d2 = c @ operand
        m = (c[:, 2] * SENSE_ERR + margin)[:, None]
        unsure = ~((d2 < r2[:, None] - m) | (d2 > r2[:, None] + m))
        assert unsure.sum() >= 10
        assert sensed_class_counts(sc).tolist() == reference_counts(sc)

    # Coordinate ranges of the bound test, for clients and targets: the
    # simulator's area, far offsets where d^2 cancels against the squared
    # norms, `EXTREME_SCALES`, and 2^503, where some squares overflow and
    # others come near the largest float, for both or for the clients alone.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @given(st.sampled_from([(0.0, 1.0, 1.0)] + [(o, 1.0, 1.0) for o in (1e6, 1e7, 2.0**40)]
                           + [(0.0, s, s) for s in EXTREME_SCALES + (2.0**503,)] + [(0.0, 2.0**503, 1.0)]),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_product_within_error_bound(self, where, negative, seed):
        """The product of `sense_rows` with the target operand is within
        `SENSE_ERR` (x^2 + y^2 + max t^2 + 2^-1022) of the exact d^2 of the
        float coordinates wherever that bound is finite and max t^2 is at
        most `SENSE_T2_MAX`, or overflows to +inf with d^2 > 2^1022; other
        pairs are left to `distance_m`. The counts equal the reference's."""
        offset, scale, target_scale = where
        if negative:
            offset = -offset
        rng = np.random.default_rng(seed)
        n, t = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        xy = offset + scale * rng.uniform(0.0, 500.0, (n, 2))
        txy = offset + target_scale * rng.uniform(0.0, 500.0, (t, 2))
        if target_scale == scale:
            near = xy[rng.integers(0, n, t // 2)] + scale * rng.normal(0.0, 60.0, (t // 2, 2))
            txy[: t // 2] = near
        clients = [make_client(radius=r) for r in (scale * rng.uniform(0.0, 150.0, n)).tolist()]
        sc = Scenario(500.0, clients, [], [Target(j, tuple(p), j % 2) for j, p in enumerate(txy.tolist())],
                      2, ChannelParams(), xy, np.zeros((n, 2)))
        assert sensed_class_counts(sc).tolist() == reference_counts(sc)
        _, operand, _, order, _, _, _ = sc.sense_arrays()
        c = sense_rows(sc.positions)
        d2 = c @ operand
        t2_max = operand[3].max()
        err = SENSE_ERR * (c[:, 2] + t2_max + np.finfo(float).tiny)
        if scale < 2.0**500:
            assert np.isfinite(err).all() and t2_max <= SENSE_T2_MAX
        if not t2_max <= SENSE_T2_MAX:
            return
        for i, (x, y) in enumerate(xy.tolist()):
            if not math.isfinite(err[i]):
                continue
            for j, (px, py) in enumerate(txy[order].tolist()):
                exact = (F(x) - F(px)) ** 2 + (F(y) - F(py)) ** 2
                if d2[i, j] == math.inf:
                    assert exact > 2**1022
                else:
                    assert abs(F(d2[i, j]) - exact) <= F(err[i])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_cross_terms_are_redecided(self):
        """At (2^511, 2^511) the squared norms are finite but the cross terms
        -2 x tx - 2 y ty sum past the largest float, so the product reads
        NaN or, summed in another order, -inf, also for the target far
        outside the radius; max t^2 > `SENSE_T2_MAX` leaves every pair to
        `distance_m`."""
        a = 2.0**511
        targets = [Target(0, (a, a + 2.0**460), 0), Target(1, (a, a), 1)]
        sc = Scenario(500.0, [make_client(radius=1.0)], [], targets, 2, ChannelParams(),
                      [(a, a)], [(0.0, 0.0)])
        assert not np.isfinite(sense_rows(sc.positions) @ sc.sense_arrays()[1]).any()
        assert sensed_class_counts(sc).tolist() == reference_counts(sc) == [[0, 1]]

    def test_target_arrays_shared_by_clones(self):
        sc = generate_scenario(ScenarioConfig(num_clients=3, num_targets=50), seed=1)
        arrays = sc.sense_arrays()
        clone = clone_scenario(sc)
        assert all(a is b for a, b in zip(clone.sense_arrays(), arrays))
        assert not any(a.flags.writeable for a in arrays)
        (tx, ty), operand, onehot, order, radii, r2, margin = arrays
        assert sorted(order.tolist()) == list(range(50))
        assert np.all(np.diff(tx) >= 0.0)
        assert [(x, y) for x, y in zip(tx, ty)] == [sc.targets[j].position for j in order]
        assert operand.shape == (4, 50)
        assert bits(operand[0]).tolist() == bits(-2.0 * tx).tolist()
        assert bits(operand[1]).tolist() == bits(-2.0 * ty).tolist()
        assert operand[2].tolist() == [1.0] * 50
        assert bits(operand[3]).tolist() == bits(tx * tx + ty * ty).tolist()
        assert onehot.argmax(axis=1).tolist() == [sc.targets[j].class_id for j in order]
        assert radii.tolist() == [c.sensing_radius_m for c in sc.clients]
        assert r2.tolist() == [c.sensing_radius_m ** 2 for c in sc.clients]
        targets_err = SENSE_ERR * (operand[3].max() + np.finfo(float).tiny)
        assert margin.tolist() == (SENSE_BAND * r2 + targets_err).tolist()

    def test_model_arrays_shared_by_clones(self):
        sc = generate_scenario(ScenarioConfig(num_clients=3, num_targets=5, num_models=2), seed=1)
        arrays = sc.model_arrays()
        assert clone_scenario(sc).model_arrays() is arrays
        assert arrays.sizes.shape == (3, 3, 8) and arrays.vs.shape == (3, 8)
        assert arrays.edge_of_model.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
        assert arrays.edge_positions.tolist() == [list(e.position) for e in sc.edges]
        assert arrays.sizes[2, 0].tolist() == [c for _ in range(4) for c in sc.clients[0].cycles_per_sample]
        assert not any(a.flags.writeable for a in vars(arrays).values())

    @given(st.one_of(random_scenarios(), random_scenarios(extreme=True)))
    @settings(max_examples=60, deadline=None)
    def test_spectral_efficiencies_match_scalar_bitwise(self, sc):
        etas = spectral_efficiencies(sc)
        assert etas.shape == (len(sc.clients), len(sc.edges))
        for i, position in enumerate(sc.positions):
            for e, edge in enumerate(sc.edges):
                assert bits(etas[i, e]) == bits(spectral_efficiency(position, edge, sc.channel))

    def test_config_rejects_invalid_values(self):
        for bad in (dict(num_clients=0), dict(num_classes=1), dict(num_edges=0), dict(dl_bits_base=-1.0),
                    dict(area_m=0.0), dict(dominant_share=1.5)):
            with pytest.raises(ValueError):
                ScenarioConfig(**bad)


class TestLocalDistribution:
    def test_known_value(self):
        # counts (3,1,0,0), eps 1e-3: (3.001, 1.001, .001, .001) / 4.004
        p = local_distribution(np.array([3.0, 1.0, 0.0, 0.0]), 1e-3)
        assert p[0] == pytest.approx(3.001 / 4.004)
        assert p[2] == pytest.approx(0.001 / 4.004)
        assert p.sum() == pytest.approx(1.0)

    def test_all_zero_gives_uniform(self):
        p = local_distribution(np.zeros(4), 1e-3)
        assert np.allclose(p, 0.25)

    @given(st.lists(st.integers(0, 500), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_valid_distribution(self, counts):
        p = local_distribution(np.array(counts, dtype=float))
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p > 0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            local_distribution(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            local_distribution(np.array([1.0]), epsilon=0.0)
