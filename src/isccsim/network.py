"""Subnetwork scenario: mobile clients, edge servers, sensing targets.

Positions live in a square area. Channel quality follows a distance power
law; sensing coverage is a closed disc around the client. Client positions
and velocities live in (N, 2) arrays, the rest of a client in its record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class DimensionMismatch(ValueError):
    pass


class SensingMode(Enum):
    VS = "vs"  # camera sensing, no spectrum use
    WS = "ws"  # wireless sensing, draws on the shared spectrum


@dataclass(frozen=True)
class ChannelParams:
    tx_power_w: float = 0.5
    path_loss_exp: float = 2.8
    noise_power_w: float = 6e-13
    reference_gain: float = 1e-4  # channel gain at 1 m
    min_distance_m: float = 1.0


@dataclass(frozen=True)
class Client:
    client_id: int
    sensing_mode: SensingMode
    sensing_radius_m: float
    # Per-model task sizes for one learning round.
    dl_bits: tuple[float, ...]
    ul_bits: tuple[float, ...]
    cycles_per_sample: tuple[float, ...]


@dataclass(frozen=True)
class EdgeServer:
    edge_id: int
    position: tuple[float, float]
    # Class mixture of the model each edge hosts, one row per model variant.
    model_mixtures: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class Target:
    target_id: int
    position: tuple[float, float]
    class_id: int


@dataclass(frozen=True)
class ModelArrays:
    """Per-scenario constants of the (client, model) edges.

    Model m is variant m % V of edge server m // V.
    """

    edge_of_model: np.ndarray  # (M,) edge server index
    mixtures: np.ndarray       # (M, K) class mixtures, strictly positive
    sizes: np.ndarray          # (3, N, M) download bits, upload bits, cycles per sample
    vs: np.ndarray             # (N, M) bool: camera sensing, else wireless


@dataclass
class Scenario:
    area_m: float
    clients: list[Client]
    edges: list[EdgeServer]
    targets: list[Target]
    num_classes: int
    channel: ChannelParams
    # (N, 2) arrays, row i for clients[i], copied into every new scenario.
    positions: np.ndarray
    velocities: np.ndarray
    time_s: float = 0.0
    # Targets and sensing radii never change, so their arrays are built on
    # first use and shared by every clone of the scenario.
    _sense_arrays: tuple[np.ndarray, ...] | None = field(default=None, repr=False, compare=False)
    # Likewise client task sizes, sensing modes and the edges' models.
    _model_arrays: ModelArrays | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.clients)
        self.positions = np.array(self.positions, dtype=float).reshape(n, 2)
        self.velocities = np.array(self.velocities, dtype=float).reshape(n, 2)

    def sense_arrays(self) -> tuple[np.ndarray, ...]:
        """Read-only (T, 2) target positions, (T, K) class one-hot, (N,)
        squared sensing radii and (N,) `SENSE_BAND` half-widths."""
        if self._sense_arrays is None:
            t = len(self.targets)
            xy = np.array([tg.position for tg in self.targets], dtype=float).reshape(t, 2)
            onehot = np.zeros((t, self.num_classes))
            onehot[np.arange(t), np.array([tg.class_id for tg in self.targets], dtype=int)] = 1.0
            r2 = np.square([c.sensing_radius_m for c in self.clients], dtype=float)
            # An infinite band re-decides all of a client's pairs.
            band = np.where((r2 >= _TINY) & (r2 <= SENSE_R2_MAX), SENSE_BAND * r2, np.inf)
            self._sense_arrays = (xy, onehot, r2, band)
            for a in self._sense_arrays:
                a.flags.writeable = False
        return self._sense_arrays

    def model_arrays(self) -> ModelArrays:
        """Read-only per-edge constants, mixtures validated once."""
        if self._model_arrays is None:
            variants = len(self.edges[0].model_mixtures)
            models = range(len(self.edges) * variants)
            n = len(self.clients)
            mixtures = np.array(
                [self.edges[m // variants].model_mixtures[m % variants] for m in models],
                dtype=float,
            )
            if mixtures.shape != (len(models), self.num_classes):
                raise DimensionMismatch(
                    f"model mixtures {mixtures.shape} vs {self.num_classes} classes"
                )
            if np.any(mixtures <= 0.0):
                raise ValueError("distributions must be smoothed strictly positive")

            sizes = np.array(
                [
                    [[getattr(c, name)[m % variants] for m in models] for c in self.clients]
                    for name in ("dl_bits", "ul_bits", "cycles_per_sample")
                ],
                dtype=float,
            ).reshape(3, n, len(models))
            vs = [c.sensing_mode is SensingMode.VS for c in self.clients]
            arrays = ModelArrays(
                edge_of_model=np.array([m // variants for m in models], dtype=int),
                mixtures=mixtures,
                sizes=sizes,
                vs=np.repeat(np.array(vs, dtype=bool).reshape(n, 1), len(models), axis=1),
            )
            for a in vars(arrays).values():
                a.flags.writeable = False
            self._model_arrays = arrays
        return self._model_arrays


@dataclass(frozen=True)
class ScenarioConfig:
    area_m: float = 500.0
    num_clients: int = 50
    num_targets: int = 100
    num_edges: int = 4
    num_classes: int = 4
    num_models: int = 1
    v_max_mps: float = 15.0
    vs_radius_m: float = 60.0
    ws_radius_m: float = 100.0
    # Class skew: each target class is drawn with one class given this weight
    # and the rest sharing the remainder, per edge model mixture.
    dominant_share: float = 0.7
    dl_bits_base: float = 2e6
    ul_bits_base: float = 1e6
    cycles_base: float = 1e7
    channel: ChannelParams = field(default_factory=ChannelParams)

    def __post_init__(self) -> None:
        if min(self.num_clients, self.num_edges, self.num_models) < 1 or self.num_classes < 2:
            raise ValueError("need at least one client, one edge, one model and two classes")
        if min(self.num_clients, self.num_targets, self.v_max_mps, self.vs_radius_m,
               self.ws_radius_m, self.dl_bits_base, self.ul_bits_base, self.cycles_base) < 0:
            raise ValueError("counts, speeds, radii and task sizes must be >= 0")
        if self.area_m <= 0 or not 0.0 <= self.dominant_share <= 1.0:
            raise ValueError("area must be > 0 and dominant_share in [0, 1]")


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Sample a scenario. Identical (config, seed) gives identical output."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA51C]))
    area = config.area_m

    clients, positions, velocities = [], [], []
    for i in range(config.num_clients):
        positions.append(rng.uniform(0.0, area, size=2))
        speed = rng.uniform(0.0, config.v_max_mps)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        velocities.append((speed * math.cos(heading), speed * math.sin(heading)))
        mode = SensingMode.VS if i % 2 == 0 else SensingMode.WS
        radius = config.vs_radius_m if mode is SensingMode.VS else config.ws_radius_m
        # Model variants get progressively heavier: index m scales the base.
        dl = tuple(config.dl_bits_base * (1.0 + 0.2 * m) for m in range(config.num_models))
        ul = tuple(config.ul_bits_base * (1.0 + 0.2 * m) for m in range(config.num_models))
        cyc = tuple(config.cycles_base * (1.0 + 0.5 * m) for m in range(config.num_models))
        clients.append(Client(i, mode, radius, dl, ul, cyc))

    edges = []
    grid = math.ceil(math.sqrt(config.num_edges))
    for j in range(config.num_edges):
        gx, gy = j % grid, j // grid
        pos = (area * (gx + 0.5) / grid, area * (gy + 0.5) / grid)
        mixtures = []
        for m in range(config.num_models):
            dom = (j + m) % config.num_classes
            rest = (1.0 - config.dominant_share) / (config.num_classes - 1)
            mix = tuple(
                config.dominant_share if k == dom else rest
                for k in range(config.num_classes)
            )
            mixtures.append(mix)
        edges.append(EdgeServer(j, pos, tuple(mixtures)))

    targets = [
        Target(
            t,
            tuple(rng.uniform(0.0, area, size=2)),
            int(rng.integers(0, config.num_classes)),
        )
        for t in range(config.num_targets)
    ]

    return Scenario(area, clients, edges, targets, config.num_classes, config.channel,
                    positions, velocities)


def clone_scenario(scenario: Scenario) -> Scenario:
    """Independent copy; only the positions and velocities are not shared."""
    return Scenario(
        area_m=scenario.area_m,
        clients=list(scenario.clients),
        edges=scenario.edges,
        targets=scenario.targets,
        num_classes=scenario.num_classes,
        channel=scenario.channel,
        positions=scenario.positions,
        velocities=scenario.velocities,
        time_s=scenario.time_s,
        _sense_arrays=scenario.sense_arrays(),
        _model_arrays=scenario.model_arrays(),
    )


def step_mobility(scenario: Scenario, dt: float) -> Scenario:
    """Advance client positions by dt seconds, reflecting at the boundary.

    Each coordinate is folded into [0, 2*area) and the upper half mirrored.
    np.remainder is Python's float % (fmod, then the divisor's sign).
    """
    pos, vel = scenario.positions, scenario.velocities
    period = 2.0 * scenario.area_m
    pos += vel * dt
    np.remainder(pos, period, out=pos)
    mirrored = pos > scenario.area_m
    np.subtract(period, pos, out=pos, where=mirrored)
    np.negative(vel, out=vel, where=mirrored)
    scenario.time_s += dt
    return scenario


def distance_m(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def spectral_efficiency(pos: tuple[float, float], edge: EdgeServer, ch: ChannelParams) -> float:
    """Link rate per Hz from a client at `pos` to an edge, bits/s/Hz."""
    d = max(distance_m(pos, edge.position), ch.min_distance_m)
    return math.log2(1.0 + ch.tx_power_w * ch.reference_gain * d ** (-ch.path_loss_exp)
                     / ch.noise_power_w)


def spectral_efficiencies(scenario: Scenario) -> np.ndarray:
    """(N, E) `spectral_efficiency` of every client to every edge server.

    Evaluated on `math` in the scalar definition's order, so each entry
    equals it bit for bit.
    """
    ch = scenario.channel
    power_gain = ch.tx_power_w * ch.reference_gain
    exponent = -ch.path_loss_exp
    edges = [e.position for e in scenario.edges]
    rows = [
        [
            math.log2(
                1.0
                + power_gain
                * max(math.hypot(cx - ex, cy - ey), ch.min_distance_m) ** exponent
                / ch.noise_power_w
            )
            for ex, ey in edges
        ]
        for cx, cy in scenario.positions.tolist()
    ]
    return np.array(rows, dtype=float).reshape(len(scenario.clients), len(edges))


def sense_targets(pos: tuple[float, float], radius: float, targets: list[Target]) -> list[Target]:
    """Targets within the sensing disc at `pos` (boundary inclusive)."""
    return [t for t in targets if distance_m(pos, t.position) <= radius]


# Clients sensed per block: bounds the (block, T) temporaries of one pass.
SENSE_BLOCK = 32
# Relative half-width of the band around r^2 where `distance_m` re-decides
# the squared test. With u = 2^-53, d^2 and r*r are within 2u and u of the
# exact squares and math.hypot within 2u of the distance, so the two tests
# agree wherever |d^2 - r^2| > 8u r^2, if r^2 is normal (a subnormal square
# then errs by under u r^2) and at most SENSE_R2_MAX (an overflowing d^2 is
# then outside by both). Other clients have all their pairs re-decided.
SENSE_BAND = 2.0**-40
SENSE_R2_MAX = 2.0**1000
_TINY = np.finfo(float).tiny


def sensed_class_counts(scenario: Scenario) -> np.ndarray:
    """(N, K) class counts of the targets each client senses, in one pass.

    Equals counting the classes of `sense_targets` for every client. The
    pass compares squared distances with squared radii, and decides the
    pairs that test cannot (see `SENSE_BAND`) by `distance_m`.
    """
    target_xy, onehot, r2, band = scenario.sense_arrays()
    xy = scenario.positions
    counts = np.empty((len(xy), scenario.num_classes))
    for lo in range(0, len(xy), SENSE_BLOCK):
        block = slice(lo, lo + SENSE_BLOCK)
        d2 = xy[block, 0, None] - target_xy[:, 0]
        dy = xy[block, 1, None] - target_xy[:, 1]
        d2 *= d2
        dy *= dy
        d2 += dy
        d2 -= r2[block, None]  # the sign of d^2 - r^2 is exact
        inside = d2 <= 0.0
        sure = np.abs(d2, out=d2) > band[block, None]  # False where d^2 is NaN
        if not sure.all():
            for i, t in zip(*np.nonzero(~sure)):
                d = distance_m(xy[lo + i], scenario.targets[t].position)
                inside[i, t] = d <= scenario.clients[lo + i].sensing_radius_m
        counts[block] = inside @ onehot
    return counts


def local_distribution(counts: np.ndarray, epsilon: float = 1e-3) -> np.ndarray:
    """Smoothed empirical class distribution: (n_k + eps) / (N + K*eps).

    Defined for all-zero counts (gives uniform); always strictly positive
    and sums to one. A 2-D array gives one distribution per row.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise ValueError("negative class count")
    k = counts.shape[-1]
    return (counts + epsilon) / (counts.sum(axis=-1, keepdims=True) + k * epsilon)
