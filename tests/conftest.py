"""Shared test helpers."""

import numpy as np
from hypothesis import strategies as st

from isccsim.network import (
    ChannelParams,
    Client,
    EdgeServer,
    SENSE_BLOCK,
    Scenario,
    ScenarioConfig,
    SensingMode,
    Target,
    distance_m,
)
from isccsim.pool import PoolConfig
from isccsim.workload import WorkloadProblem

# Small generated scenarios and pool shapes for whole-episode property tests.
EPISODE_SCENARIOS = st.builds(
    ScenarioConfig,
    area_m=st.sampled_from([150.0, 300.0]),
    num_clients=st.integers(1, 5),
    num_targets=st.integers(0, 30),
    num_edges=st.integers(1, 3),
    num_classes=st.integers(2, 4),
    num_models=st.integers(1, 2),
    vs_radius_m=st.floats(20.0, 150.0),
    ws_radius_m=st.floats(20.0, 200.0),
)
EPISODE_POOLS = st.builds(
    PoolConfig,
    freq_lanes=st.integers(1, 5),
    comp_lanes=st.integers(1, 5),
    slot_duration=st.sampled_from([0.05, 0.07, 0.1, 0.3]),
    hz_per_lane=st.floats(1e5, 1e9),
    cycles_per_lane_slot=st.floats(5e6, 3e10),
)


def random_problem(rng: np.random.Generator) -> WorkloadProblem:
    """A random solver instance, VS or WS-coupled with equal probability.

    WS sigma is derived from a target full-bandwidth sensing cap of at most
    300 samples, which keeps the oracle's 400-point bandwidth lattice within
    one sample of the continuous optimum.
    """
    mode = SensingMode.VS if rng.random() < 0.5 else SensingMode.WS
    t_gen = float(rng.uniform(0.5, 3.0))
    base = dict(
        t_gen=t_gen,
        t_cons=float(rng.uniform(0.5, 4.0)),
        bandwidth_hz=float(rng.uniform(1e5, 5e6)),
        compute_cps=float(rng.uniform(1e7, 1e9)),
        eta=float(rng.uniform(0.5, 8.0)),
        s_dl=float(rng.uniform(1e4, 5e6)),
        s_ul=float(rng.uniform(1e4, 5e6)),
        kappa=float(rng.uniform(1e5, 1e7)),
        w_cap=float(rng.integers(0, 301)),
    )
    if mode is SensingMode.VS:
        return WorkloadProblem(
            mode=SensingMode.VS, tau_s=float(rng.uniform(0.005, 0.1)), **base
        )
    rho = float(rng.uniform(0.5, 4.0))
    full_band_cap = float(rng.uniform(1.0, 300.0))
    sigma = base["bandwidth_hz"] * rho * t_gen / full_band_cap
    return WorkloadProblem(
        mode=SensingMode.WS, sigma=sigma, rho=rho, coupled=True, **base
    )


# Offsets of length 5 that hypot computes exactly, so a target placed there
# lies exactly on a radius-5k disc.
_EXACT_ON_RADIUS = ((5, 0), (-5, 0), (0, 5), (0, -5), (3, 4), (-4, 3), (4, -3), (-3, -4))


# Coordinate scales of `random_scenarios(extreme=True)`. Squares of 2^-540
# grid steps underflow to zero, those of 2^-530 and 1e-160 coordinates are
# subnormal, those of 2^505 and 2^515 coordinates overflow; 1e150 squares
# stay finite but its grid is not exact in binary.
EXTREME_SCALES = (2.0**-540, 2.0**-530, 1e-160, 1e150, 2.0**505, 2.0**515)


@st.composite
def random_scenarios(draw, extreme=False):
    """Random scenarios that stress the array sensing pass.

    Client counts straddle the sensing block size and target counts include
    zero. Some targets sit exactly on a client's sensing radius: either at a
    3-4-5 offset from an integer position with an integer radius, or with
    the client's radius set to its `distance_m` from the target, where the
    squared distance may round away from the squared radius.

    With `extreme`, every coordinate and radius is multiplied by one of
    `EXTREME_SCALES`, about a fifth of the radii are zero, and a target
    placed on a zero radius sits one grid step from its client.
    """
    n = draw(st.integers(1, 2 * SENSE_BLOCK + 3))
    t = draw(st.integers(0, 40))
    k = draw(st.integers(1, 10))
    num_edges = draw(st.integers(1, 3))
    variants = draw(st.integers(1, 2))
    on_offset = draw(st.integers(0, t))
    on_distance = draw(st.integers(0, n)) if t else 0
    scale = draw(st.sampled_from(EXTREME_SCALES)) if extreme else 1.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    area = 300.0

    positions = [(float(x) * scale, float(y) * scale) for x, y in rng.integers(0, 301, size=(n, 2))]
    steps = rng.integers(-5 if extreme else 1, 25, size=n)
    radii = [5.0 * float(max(r, 0)) * scale for r in steps]
    targets = []
    for j in range(t):
        if j < on_offset:
            c = int(rng.integers(0, n))
            ox, oy = _EXACT_ON_RADIUS[int(rng.integers(0, len(_EXACT_ON_RADIUS)))]
            unit = radii[c] / 5.0 or scale / 5.0
            pos = (positions[c][0] + ox * unit, positions[c][1] + oy * unit)
        else:
            pos = tuple(float(v) * scale for v in rng.uniform(0.0, area, size=2))
        targets.append(Target(j, pos, int(rng.integers(0, k))))
    for c in range(on_distance):
        radii[c] = distance_m(positions[c], targets[int(rng.integers(0, t))].position)

    sizes = tuple(1e6 * (1.0 + v) for v in range(variants))
    clients = [
        Client(i, SensingMode.VS if i % 2 == 0 else SensingMode.WS, radii[i], sizes, sizes, sizes)
        for i in range(n)
    ]
    edges = []
    for e in range(num_edges):
        mixtures = tuple(
            tuple(float(x) for x in rng.dirichlet(np.ones(k)) * 0.9 + 0.1 / k)
            for _ in range(variants)
        )
        edges.append(EdgeServer(e, tuple(float(v) for v in rng.uniform(0.0, area, 2)), mixtures))
    return Scenario(area, clients, edges, targets, k, ChannelParams(), positions, [(0.0, 0.0)] * n)
