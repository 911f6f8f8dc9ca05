"""Scenario, mobility, channel, and sensing tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scenarios
from isccsim.network import (
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


def make_client(pos, mode=SensingMode.VS, radius=60.0, vel=(0.0, 0.0)):
    return Client(0, pos, vel, mode, radius, (2e6,), (1e6,), (1e7,))


class TestScenarioGeneration:
    def test_default_shape(self):
        sc = generate_scenario(ScenarioConfig(), seed=1)
        assert len(sc.clients) == 50
        assert len(sc.targets) == 100
        assert len(sc.edges) == 4
        assert sc.area_m == 500.0
        for c in sc.clients:
            assert 0.0 <= c.position[0] <= 500.0
            assert 0.0 <= c.position[1] <= 500.0

    def test_same_seed_identical(self):
        a = generate_scenario(ScenarioConfig(), seed=7)
        b = generate_scenario(ScenarioConfig(), seed=7)
        assert a.clients == b.clients
        assert a.targets == b.targets
        assert a.edges == b.edges

    def test_different_seeds_differ(self):
        a = generate_scenario(ScenarioConfig(), seed=7)
        b = generate_scenario(ScenarioConfig(), seed=8)
        assert a.clients != b.clients

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
        c0 = sc.clients[0]
        start = c0.position
        vel = c0.velocity
        step_mobility(sc, 0.5)
        moved = sc.clients[0].position
        # Client 0 is interior for this seed, so the step is exact.
        assert moved[0] == pytest.approx(start[0] + 0.5 * vel[0])
        assert moved[1] == pytest.approx(start[1] + 0.5 * vel[1])
        assert sc.time_s == pytest.approx(0.5)

    def test_reflection_at_boundary(self):
        sc = generate_scenario(ScenarioConfig(num_clients=1, v_max_mps=0.0), seed=1)
        sc.clients = [make_client((499.0, 250.0), vel=(10.0, 0.0))]
        step_mobility(sc, 1.0)
        c = sc.clients[0]
        assert c.position[0] == pytest.approx(491.0)
        assert c.velocity[0] == pytest.approx(-10.0)

    @given(
        st.floats(0.0, 500.0), st.floats(-20.0, 20.0),
        st.integers(1, 40), st.floats(0.1, 5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_positions_stay_in_area(self, x0, vx, steps, dt):
        sc = generate_scenario(ScenarioConfig(num_clients=1), seed=1)
        sc.clients = [make_client((x0, 250.0), vel=(vx, 0.0))]
        for _ in range(steps):
            step_mobility(sc, dt)
        x = sc.clients[0].position[0]
        assert -1e-9 <= x <= 500.0 + 1e-9

    def test_zero_velocity_fixed_point(self):
        sc = generate_scenario(ScenarioConfig(num_clients=1), seed=1)
        sc.clients = [make_client((100.0, 100.0))]
        step_mobility(sc, 10.0)
        assert sc.clients[0].position == (100.0, 100.0)


class TestChannel:
    def test_known_distance_value(self):
        # SNR = 0.5 * 1e-4 * 100^-2.8 / 6e-13 at 100 m.
        ch = ChannelParams()
        client = make_client((0.0, 0.0))
        edge = EdgeServer(0, (100.0, 0.0), ((1.0,),))
        snr = 0.5 * 1e-4 * 100.0 ** (-2.8) / 6e-13
        assert spectral_efficiency(client, edge, ch) == pytest.approx(math.log2(1 + snr))

    def test_distance_clamp(self):
        ch = ChannelParams()
        client = make_client((0.0, 0.0))
        at_zero = EdgeServer(0, (0.0, 0.0), ((1.0,),))
        at_half = EdgeServer(0, (0.5, 0.0), ((1.0,),))
        at_one = EdgeServer(0, (1.0, 0.0), ((1.0,),))
        assert spectral_efficiency(client, at_zero, ch) == spectral_efficiency(client, at_one, ch)
        assert spectral_efficiency(client, at_half, ch) == spectral_efficiency(client, at_one, ch)

    @given(st.floats(1.0, 2000.0), st.floats(1.0, 2000.0))
    @settings(max_examples=80, deadline=None)
    def test_monotone_decreasing_in_distance(self, d1, d2):
        ch = ChannelParams()
        client = make_client((0.0, 0.0))
        lo, hi = sorted((d1, d2))
        e_lo = spectral_efficiency(client, EdgeServer(0, (lo, 0.0), ((1.0,),)), ch)
        e_hi = spectral_efficiency(client, EdgeServer(0, (hi, 0.0), ((1.0,),)), ch)
        assert e_lo >= e_hi
        assert e_hi > 0.0


class TestSensing:
    def test_closed_ball_boundary_inclusive(self):
        client = make_client((0.0, 0.0), radius=50.0)
        targets = [
            Target(0, (50.0, 0.0), 0),   # exactly on the boundary
            Target(1, (50.0001, 0.0), 1),
            Target(2, (30.0, 30.0), 2),  # hypot ~42.4
        ]
        seen = sense_targets(client, targets)
        assert [t.target_id for t in seen] == [0, 2]

    def test_counts(self):
        targets = [Target(i, (0.0, 0.0), c) for i, c in enumerate([0, 0, 2, 3, 3, 3])]
        far = Target(6, (500.0, 0.0), 1)
        sc = Scenario(500.0, [make_client((0.0, 0.0))], [], targets + [far], 4, ChannelParams())
        assert sensed_class_counts(sc).tolist() == [[2.0, 0.0, 1.0, 3.0]]

    def test_empty(self):
        client = make_client((0.0, 0.0), radius=1.0)
        assert sense_targets(client, []) == []

    @given(random_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_array_pass_matches_reference(self, sc):
        counts = sensed_class_counts(sc)
        assert counts.shape == (len(sc.clients), sc.num_classes)
        for i, client in enumerate(sc.clients):
            sensed = [t.class_id for t in sense_targets(client, sc.targets)]
            assert counts[i].tolist() == np.bincount(sensed, minlength=sc.num_classes).tolist()

    def test_target_arrays_shared_by_clones(self):
        sc = generate_scenario(ScenarioConfig(num_clients=3, num_targets=5), seed=1)
        xy, onehot = sc.target_arrays()
        clone = clone_scenario(sc)
        assert clone.target_arrays()[0] is xy and clone.target_arrays()[1] is onehot
        assert not xy.flags.writeable and not onehot.flags.writeable

    def test_model_arrays_shared_by_clones(self):
        sc = generate_scenario(ScenarioConfig(num_clients=3, num_targets=5, num_models=2), seed=1)
        arrays = sc.model_arrays()
        assert clone_scenario(sc).model_arrays() is arrays
        assert arrays.sizes.shape == (3, 3, 8) and arrays.vs.shape == (3, 8)
        assert arrays.edge_of_model.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
        assert arrays.sizes[2, 0].tolist() == [c for _ in range(4) for c in sc.clients[0].cycles_per_sample]
        assert not any(a.flags.writeable for a in vars(arrays).values())

    @given(random_scenarios())
    @settings(max_examples=30, deadline=None)
    def test_spectral_efficiencies_match_scalar_bitwise(self, sc):
        etas = spectral_efficiencies(sc)
        assert etas.shape == (len(sc.clients), len(sc.edges))
        for i, client in enumerate(sc.clients):
            for e, edge in enumerate(sc.edges):
                assert etas[i, e] == spectral_efficiency(client, edge, sc.channel)

    def test_config_rejects_invalid_values(self):
        for bad in (dict(num_classes=1), dict(num_edges=0), dict(dl_bits_base=-1.0),
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
