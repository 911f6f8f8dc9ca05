"""Scenario, mobility, channel, and sensing tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scenarios
from isccsim.network import (
    SENSE_BLOCK,
    ChannelParams,
    Client,
    EdgeServer,
    Scenario,
    ScenarioConfig,
    SensingMode,
    Target,
    clone_scenario,
    generate_scenario,
    local_distribution,
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


def reference_counts(sc):
    """(N, K) class counts of `sense_targets` for every client, as lists."""
    return [
        np.bincount([t.class_id for t in sense_targets(sc.positions[i], c.sensing_radius_m,
                                                      sc.targets)],
                    minlength=sc.num_classes).tolist()
        for i, c in enumerate(sc.clients)
    ]


def on_circle_x(xc, r, side):
    """The float x farthest to `side` (+1 or -1) of `xc` that `distance_m`
    still puts within `r` of a client at `xc` in the same row."""
    x, out = xc + side * r, side * math.inf
    while abs(xc - x) > r:
        x = math.nextafter(x, -out)
    while abs(xc - math.nextafter(x, out)) <= r:
        x = math.nextafter(x, out)
    return x


@st.composite
def crowded_scenarios(draw):
    """Several sensing blocks over hundreds of targets, so that the x cull
    cuts: clustered clients and targets, targets on a client's circle in its
    row (x = x_c +- r, dy = 0), repeated target x, clients far out in x
    (where positions collapse onto a coarse float grid), and a stack of
    zero-radius clients at x = 0 over targets on their point."""
    n = draw(st.integers(2 * SENSE_BLOCK + 1, 4 * SENSE_BLOCK))
    k = draw(st.integers(1, 5))
    offset = draw(st.sampled_from([0.0, 3e4, -7e8, 2.0**60]))
    shared_radius = draw(st.booleans())
    stack = draw(st.sampled_from([0, 0, 2 * SENSE_BLOCK]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.uniform(0.0, 300.0, size=(int(rng.integers(1, 5)), 2))

    def cloud(count, spread):
        near = centres[rng.integers(0, len(centres), count)] + rng.normal(0.0, spread, (count, 2))
        return np.vstack([near, rng.uniform(-20.0, 320.0, (count, 2))])

    xy = cloud((n + 1) // 2, 5.0)[:n]
    radii = np.full(n, rng.uniform(1.0, 100.0)) if shared_radius else rng.uniform(0.0, 100.0, n)
    xy[:, 0] += offset
    xy[:stack], radii[:stack] = (0.0, 77.0), 0.0

    txy = cloud(int(rng.integers(50, 150)), 8.0)
    txy[:, 0] += offset
    copies = rng.integers(0, len(txy), len(txy) // 4)
    txy[-len(copies):, 0] = txy[copies, 0]
    edge = [(on_circle_x(x, r, side), y) for (x, y), r, side in
            zip(xy.tolist(), radii.tolist(), rng.choice([-1, 1], n)) if rng.random() < 0.4]
    points = txy.tolist() + edge + [(0.0, 77.0)] * (3 if stack else 0)
    targets = [Target(j, tuple(p), int(rng.integers(0, k))) for j, p in enumerate(points)]
    clients = [Client(i, SensingMode.VS, r, (1e6,), (1e6,), (1e7,))
               for i, r in enumerate(radii.tolist())]
    return Scenario(300.0, clients, [], targets, k, ChannelParams(), xy, [(0.0, 0.0)] * n)


class TestScenarioGeneration:
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

    def test_target_arrays_shared_by_clones(self):
        sc = generate_scenario(ScenarioConfig(num_clients=3, num_targets=50), seed=1)
        arrays = sc.sense_arrays()
        clone = clone_scenario(sc)
        assert all(a is b for a, b in zip(clone.sense_arrays(), arrays))
        assert not any(a.flags.writeable for a in arrays)
        tx, ty, onehot, order, radii, r2, _ = arrays
        assert sorted(order.tolist()) == list(range(50))
        assert np.all(np.diff(tx) >= 0.0)
        assert [(x, y) for x, y in zip(tx, ty)] == [sc.targets[j].position for j in order]
        assert onehot.argmax(axis=1).tolist() == [sc.targets[j].class_id for j in order]
        assert radii.tolist() == [c.sensing_radius_m for c in sc.clients]
        assert r2.tolist() == [c.sensing_radius_m ** 2 for c in sc.clients]

    def test_model_arrays_shared_by_clones(self):
        sc = generate_scenario(ScenarioConfig(num_clients=3, num_targets=5, num_models=2), seed=1)
        arrays = sc.model_arrays()
        assert clone_scenario(sc).model_arrays() is arrays
        assert arrays.sizes.shape == (3, 3, 8) and arrays.vs.shape == (3, 8)
        assert arrays.edge_of_model.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
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
