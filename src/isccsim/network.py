"""Subnetwork scenario: mobile clients, edge servers, sensing targets.

Positions live in a square area. Channel quality follows a distance power
law; sensing coverage is a closed disc around the client. Client positions
and velocities live in (N, 2) arrays, the rest of a client in its record.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from enum import Enum
from itertools import repeat

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

    def __post_init__(self) -> None:
        # Written so that NaN fails it too.
        if not all(v > 0 for v in astuple(self)):
            raise ValueError("channel powers, gain, exponent and distance must be > 0")


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
    """Per-scenario constants of the (client, model) edges and the edge
    servers.

    Model m is variant m % V of edge server m // V.
    """

    edge_of_model: np.ndarray  # (M,) edge server index
    edge_positions: np.ndarray  # (E, 2) edge server positions
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
    # Likewise client task sizes, sensing modes, the edges' models and positions.
    _model_arrays: ModelArrays | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.clients)
        self.positions = np.array(self.positions, dtype=float).reshape(n, 2)
        self.velocities = np.array(self.velocities, dtype=float).reshape(n, 2)

    def sense_arrays(self) -> tuple[np.ndarray, ...]:
        """Read-only (2, T) target x and y, the (4, T) target operand
        [-2x; -2y; 1; x*x + y*y], the (T, K) class one-hot and each target's
        index in `targets`, all in x order; then the (N,) sensing radii,
        their squares and the parts of their margins that do not depend on
        the client's position: the `SENSE_BAND` half-width plus the target
        term of the product's error bound (see `SENSE_ERR`). A negative or
        NaN radius raises ValueError."""
        if self._sense_arrays is None:
            t = len(self.targets)
            xy = np.array([tg.position for tg in self.targets], dtype=float).reshape(t, 2)
            order = np.argsort(xy[:, 0], kind="stable")
            txy = np.ascontiguousarray(xy[order].T)
            tx, ty = txy
            operand = np.vstack((-2.0 * tx, -2.0 * ty, np.ones(t), tx * tx + ty * ty))
            t2_max = operand[3].max(initial=0.0)
            # Written so that NaN gives an infinite margin too.
            targets_err = SENSE_ERR * (t2_max + _TINY) if t2_max <= SENSE_T2_MAX else np.inf
            onehot = np.zeros((t, self.num_classes))
            onehot[np.arange(t), np.array([self.targets[j].class_id for j in order], dtype=int)] = 1.0
            radii = np.array([c.sensing_radius_m for c in self.clients], dtype=float)
            if not (radii >= 0.0).all():
                raise ValueError("sensing radii must be >= 0")
            r2 = np.square(radii)
            # An infinite margin re-decides all of a client's pairs.
            band = np.where((r2 >= _TINY) & (r2 <= SENSE_R2_MAX), SENSE_BAND * r2, np.inf)
            self._sense_arrays = (txy, operand, onehot, order, radii, r2, band + targets_err)
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
                edge_positions=np.array([e.position for e in self.edges], dtype=float),
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
        if not all(v >= 0 for v in (self.num_clients, self.num_targets, self.v_max_mps,
                                    self.vs_radius_m, self.ws_radius_m, self.dl_bits_base,
                                    self.ul_bits_base, self.cycles_base)):  # NaN too
            raise ValueError("counts, speeds, radii and task sizes must be >= 0")
        if self.area_m <= 0 or not 0.0 <= self.dominant_share <= 1.0:
            raise ValueError("area must be > 0 and dominant_share in [0, 1]")


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Sample a scenario. Identical (config, seed) gives identical output."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA51C]))
    area = config.area_m

    # Each client's x, y, speed and heading, drawn in that order client by
    # client, as `Generator.uniform` draws them: low + (high - low) * u, low = 0.
    high = np.array([area, area, config.v_max_mps, 2.0 * math.pi])
    draws = 0.0 + high * rng.random((config.num_clients, 4))
    velocities = [(s * math.cos(h), s * math.sin(h)) for s, h in draws[:, 2:].tolist()]
    # Model variants get progressively heavier: index m scales the base.
    dl = tuple(config.dl_bits_base * (1.0 + 0.2 * m) for m in range(config.num_models))
    ul = tuple(config.ul_bits_base * (1.0 + 0.2 * m) for m in range(config.num_models))
    cyc = tuple(config.cycles_base * (1.0 + 0.5 * m) for m in range(config.num_models))
    vs, ws = (SensingMode.VS, config.vs_radius_m), (SensingMode.WS, config.ws_radius_m)
    clients = [Client(i, *(ws if i % 2 else vs), dl, ul, cyc) for i in range(config.num_clients)]

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
                    draws[:, :2], velocities)


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


def spectral_efficiencies(scenario: Scenario, positions: np.ndarray | None = None) -> np.ndarray:
    """(..., E) `spectral_efficiency` to every edge server from each of the
    (..., 2) `positions`, by default the clients' (N, 2).

    `hypot`, `**` and `log2` run on Python floats and the rest in numpy,
    in the scalar definition's order: each entry equals it bit for bit.
    """
    ch = scenario.channel
    edges = scenario.model_arrays().edge_positions
    xy = scenario.positions if positions is None else positions
    dx, dy = (xy.reshape(-1, 1, 2) - edges).transpose(2, 0, 1).reshape(2, -1).tolist()
    d = np.fromiter(map(math.hypot, dx, dy), float, len(dx))
    d = np.maximum(d, ch.min_distance_m)  # max(d, min_distance_m), NaN too
    power = np.fromiter(map(pow, d.tolist(), repeat(-ch.path_loss_exp)), float, d.size)
    snr = ch.tx_power_w * ch.reference_gain * power / ch.noise_power_w
    log2 = np.fromiter(map(math.log2, (1.0 + snr).tolist()), float, d.size)
    return log2.reshape(xy.shape[:-1] + (len(edges),))


def sense_targets(pos: tuple[float, float], radius: float, targets: list[Target]) -> list[Target]:
    """Targets within the sensing disc at `pos` (boundary inclusive)."""
    return [t for t in targets if distance_m(pos, t.position) <= radius]


# Clients sensed per block: bounds the (block, T) temporaries of one pass.
SENSE_BLOCK = 32
# Above one block the pass culls pairs in x, and for large inputs in y too.
# Rows of one radius form a group (a run of fewer than SENSE_GROUP rows joins
# the next radius), so that a block of 60 m clients does not take the reach
# of a 100 m neighbour. A group with enough rows is cut into y bands, and
# each band is tested only against the targets whose y is within the band's
# largest radius, plus a few ulps, of its y range. For every row of the band
# a target left out has a rounded |dy| above that radius, and `distance_m`,
# a hypot, is never below |dy|: it is outside, as in the x cull.
SENSE_GROUP = 16 * SENSE_BLOCK
# The cost of one more band in pair tests: its target subset and x spans
# take about 38 us and its part-filled block about 7 us, against 1.9 ns a
# pair (2-vCPU 2.1 GHz Xeon). 15,000 beat 0, 7,500 and 30,000 on stacked
# 5-round passes at N = 200, 400 and 1000.
SENSE_BAND_PAIRS = 15000.0
# Each client row c = [x, y, x*x + y*y, 1] times the target operand column
# [-2tx, -2ty, 1, tx*tx + ty*ty] gives d^2 = (x - tx)^2 + (y - ty)^2 in one
# product. With u = 2^-53, the two squared norms are within gamma_2 (about
# 2u) of their exact values, and a dot product of 4 terms in any order is
# within gamma_4 (about 4u) of the sum of its terms times the sum of their
# magnitudes (Higham 2002, section 3.1). So the product errs by at most
# 6.01u (x^2 + y^2 + t^2 + 2|x tx| + 2|y ty|) <= 12.02u (x^2 + y^2 + t^2),
# as 2|x tx| <= x^2 + tx^2, plus 2^-1075 for each of its 6 products that
# may underflow. The pass bounds it by SENSE_ERR (x^2 + y^2 + max t^2 +
# 2^-1022), over 5 times that, so that the roundings of the bound itself and
# of lo and hi below stay inside it.
SENSE_ERR = 2.0**-47
# Targets with max t^2 above SENSE_T2_MAX make every margin infinite. Below
# it the product's cross terms sum to at most 2 sqrt((x^2 + y^2) max t^2)
# < 2^1023, so it can overflow only to +inf, and only for d^2 > 2^1022.
SENSE_T2_MAX = 2.0**1020
# Half-width of the band around r^2 where `distance_m` re-decides the
# squared test, relative to r^2. The reference takes math.hypot (within 2u)
# of the rounded differences (within u each), and r*r is within u of r^2,
# so the exact d^2 and the reference agree wherever |d^2 - r^2| > 8u r^2, if
# r^2 is normal (its band then dwarfs underflow errors) and at most
# SENSE_R2_MAX (so that an overflowing product is outside by both). Other
# clients have all their pairs re-decided. A pair is inside if the product
# is below lo = r^2 - m, outside if above hi = r^2 + m, with the margin m
# the band plus the product's error bound; the rest, NaN products included,
# are re-decided. An infinite m makes lo = -inf and hi = inf, which no
# product passes strictly.
SENSE_BAND = 2.0**-40
SENSE_R2_MAX = 2.0**1000
_TINY = np.finfo(float).tiny


def sense_rows(xy: np.ndarray) -> np.ndarray:
    """(N, 4) client rows [x, y, x*x + y*y, 1] for the positions `xy`."""
    squares = xy * xy
    c = np.empty((len(xy), 4))
    c[:, :2] = xy
    np.add(squares[:, 0], squares[:, 1], out=c[:, 2])
    c[:, 3] = 1.0
    return c


def _sense_reach(v: np.ndarray, radii: np.ndarray, starts) -> tuple[np.ndarray, ...]:
    """For each run of rows from each of `starts` to the next, the bounds
    beyond which no row senses a target along the coordinate `v`: its
    lowest and highest v widened by its largest radius plus
    2^-50 max(|v|, r), a few ulps; and whether both bounds are finite."""
    v_lo, v_hi = np.minimum.reduceat(v, starts), np.maximum.reduceat(v, starts)
    reach = np.maximum.reduceat(radii, starts)
    reach += 2.0**-50 * np.maximum(np.maximum(np.abs(v_lo), np.abs(v_hi)), reach)
    low, high = v_lo - reach, v_hi + reach
    return low, high, np.isfinite(low) & np.isfinite(high)


def _band_counts(rows, extent, radius, targets: int):
    """How many y bands to split a group of `rows` rows over a y `extent`
    into, its largest sensing `radius` given; 1 for no split. Elementwise.

    With `targets` spread evenly over the extent and as far across, b bands
    of blocks of B = `SENSE_BLOCK` rows test about
    g T (h/b + 2r)(B b h/g + 2r) / h^2 pairs, and each band costs about
    F = `SENSE_BAND_PAIRS` tests more: b = sqrt(g / (B + F h / (2 r T)))
    minimizes the sum. Fewer than 3 bands reach over so much of the extent
    that they do not repay the grouping, and give 1.
    """
    with np.errstate(all="ignore"):  # a zero radius or no targets gives 0
        counts = np.floor(np.sqrt(rows / (SENSE_BLOCK + SENSE_BAND_PAIRS * extent
                                          / (2.0 * targets * radius))))
    return np.where((counts >= 3.0) & (extent > 0.0) & (extent < np.inf), counts, 1.0)


def _sense_bands(xy: np.ndarray, radii: np.ndarray, targets: int) -> tuple[np.ndarray, ...]:
    """The order of the rows `xy` by (radius group, y band, x), each band's
    first row in that order, and whether its group has more than one band.

    Runs of equal radius are the groups, a run with fewer than
    `SENSE_GROUP` rows joined with the next larger radius (the last with
    the one before), and each group is cut into `_band_counts` bands of
    equal height. If no group is cut, the radius groups do not repay their
    cost either, and all the rows are one band in x order; so are fewer
    than 9 blocks' rows, too few for 3 bands, and rows that as one group
    would keep one band, without grouping them first.
    """
    n, y = len(xy), xy[:, 1]
    counts = np.ones(1)
    if n >= 9 * SENSE_BLOCK and _band_counts(n, y.max() - y.min(), radii.max(), targets) > 1.0:
        by_radius = np.argsort(radii, kind="stable")
        r, y = radii[by_radius], y[by_radius]
        cuts = [0]
        for s in (np.flatnonzero(r[1:] != r[:-1]) + 1).tolist():
            if s - cuts[-1] >= SENSE_GROUP:
                cuts.append(s)
        if n - cuts[-1] < SENSE_GROUP:
            cuts = cuts[:-1] or [0]
        y_lo, y_hi = np.minimum.reduceat(y, cuts), np.maximum.reduceat(y, cuts)
        counts = _band_counts(np.diff(cuts + [n]), y_hi - y_lo, np.maximum.reduceat(r, cuts),
                              targets)
    if (counts == 1.0).all():
        return np.argsort(xy[:, 0]), np.zeros(1, dtype=int), np.zeros(1, dtype=bool)
    key = np.empty(n, np.min_scalar_type(int(counts.sum())))
    base = 0
    for start, stop, count, lo, hi in zip(cuts, cuts[1:] + [n], counts.tolist(), y_lo, y_hi):
        # (y - lo) / (hi - lo) is in [0, 1], so its band in [0, count].
        band = np.floor((y[start:stop] - lo) / (hi - lo) * count) if count > 1 else 0.0
        key[by_radius[start:stop]] = base + np.minimum(band, count - 1)
        base += int(count)
    rows = np.argsort(xy[:, 0])
    rows = rows[np.argsort(key[rows], kind="stable")]
    key = key[rows]
    firsts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    return rows, firsts, np.repeat(counts > 1.0, counts.astype(int))[key[firsts]]


def sensed_class_counts(scenario: Scenario, positions: np.ndarray | None = None) -> np.ndarray:
    """(..., N, K) class counts of the targets each client senses, in one pass.

    `positions` (..., N, 2), by default the clients' (N, 2), places the
    clients once per leading index, say once per round; all the client
    placements are sensed as one stacked set of rows, each with its
    client's radius. Equals counting the classes of `sense_targets` for
    every client placement. Each block of `SENSE_BLOCK` clients gets its
    squared distances to the targets from one (block, 4) x (4, targets)
    product (see `sense_rows`); a pair is
    inside if that is below r^2 - m, outside if above r^2 + m, with m the
    client's `SENSE_BAND` half-width plus the product's error bound, and
    `distance_m` decides the rest.

    With more than one block, the rows go in (radius group, y band, x)
    order (see `_sense_bands`), and blocks never straddle a band. A band of
    a group with several bands is tested only against the targets within
    its reach in y: the band's largest radius beyond its lowest and highest
    y, plus 2^-50 max(|y|, r). Within that, each block is tested only
    against the x-sorted targets within its reach in x (sort and sweep):
    the block's largest radius plus 2^-50 max(|x|, r). The slack, a few
    ulps, makes the rounded difference in the culled coordinate exceed the
    radius for every target left out, so that `distance_m`, never below
    it, puts them all outside. A band or block with a non-finite bound
    tests every target.
    """
    txy, operand, onehot, order, radii, r2, margin = scenario.sense_arrays()
    xy = scenario.positions if positions is None else positions
    shape = xy.shape[:-1] + (scenario.num_classes,)
    if xy.shape[-2:] != (len(radii), 2):
        raise DimensionMismatch(f"positions {xy.shape} for {len(radii)} clients")
    xy = xy.reshape(-1, 2)
    n = len(xy)
    if n != len(radii):
        radii, r2, margin = (np.concatenate((a,) * (n // len(radii))) for a in (radii, r2, margin))
    firsts, culled = [0], [False]
    if n > SENSE_BLOCK:
        rows, firsts, culled = _sense_bands(xy, radii, len(order))
        xy, radii, r2, margin = xy[rows], radii[rows], r2[rows], margin[rows]
        if culled.any():
            bottom, top, finite = _sense_reach(xy[:, 1], radii, firsts)
            culled &= finite
        firsts = firsts.tolist()
        left, right, cut = _sense_reach(xy[:, 0], radii, [
            s for a, b in zip(firsts, firsts[1:] + [n]) for s in range(a, b, SENSE_BLOCK)])
    c = sense_rows(xy)
    m = c[:, 2] * SENSE_ERR
    m += margin
    lo, hi = (r2 - m)[:, None], (r2 + m)[:, None]
    counts = np.empty((n, scenario.num_classes))
    blocks = slice(0, 0)
    for b, (first_row, stop) in enumerate(zip(firsts, firsts[1:] + [n])):
        tx, op, classes, targets = txy[0], operand, onehot, order
        if culled[b]:
            cols = np.flatnonzero((txy[1] >= bottom[b]) & (txy[1] <= top[b]))
            tx, op, classes, targets = tx[cols], op[:, cols], classes[cols], targets[cols]
        starts = range(first_row, stop, SENSE_BLOCK)
        blocks = slice(blocks.stop, blocks.stop + len(starts))
        spans = [(0, len(tx))]
        if n > SENSE_BLOCK:
            spans = zip(
                np.where(cut[blocks], np.searchsorted(tx, left[blocks], "left"), 0).tolist(),
                np.where(cut[blocks], np.searchsorted(tx, right[blocks], "right"), len(tx)).tolist())
        for start, (first, last) in zip(starts, spans):
            block, hits = slice(start, min(start + SENSE_BLOCK, stop)), slice(first, last)
            d2 = c[block] @ op[:, hits]
            inside = d2 < lo[block]
            sure = d2 > hi[block]
            sure |= inside  # False where d^2 is NaN or m infinite
            if not sure.all():
                for i, t in zip(*np.nonzero(~sure)):
                    d = distance_m(xy[start + i], scenario.targets[targets[first + t]].position)
                    inside[i, t] = d <= radii[start + i]
            counts[block] = inside @ classes[hits]
    if n > SENSE_BLOCK:
        counts[rows] = counts.copy()
    return counts.reshape(shape)


def local_distribution(counts: np.ndarray, epsilon: float = 1e-3,
                       totals: np.ndarray | None = None) -> np.ndarray:
    """Smoothed empirical class distribution: (n_k + eps) / (N + K*eps).

    Defined for all-zero counts (gives uniform); always strictly positive
    and sums to one. A 2-D array gives one distribution per row. `totals`,
    if given, are the counts' sums over the last axis, kept as (..., 1).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    counts = np.asarray(counts, dtype=float)
    if (counts < 0).any():
        raise ValueError("negative class count")
    k = counts.shape[-1]
    if totals is None:
        totals = counts.sum(axis=-1, keepdims=True)
    return (counts + epsilon) / (totals + k * epsilon)
