"""Universal resource pools: slotted 2-D capacity grids (time x frequency and
time x compute) that sensing, communication, and computing draw on without
distinction. Allocation is claim-based and conservation-checked.

A ``PoolBank`` keeps every client's cell usage in one (N, slots, lanes) array
per grid and places or releases a whole round's load on all rows at once; a
``ClaimTable`` records those claims as columns. ``UniversalResourcePool`` is
the claim-level reference API, one claim at a time on one client's grids."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

# Absolute slack for floating-point capacity comparisons.
EPS = 1e-9


class Process(Enum):
    SENS = "sens"
    COMM_DL = "comm_dl"
    COMM_UL = "comm_ul"
    COMP = "comp"


class GridKind(Enum):
    TIME_FREQ = "time_freq"
    TIME_COMP = "time_comp"
    NONE = "none"  # time-only claim, touches no cells (camera sensing)


class PoolError(Exception):
    pass


class ConfigurationError(PoolError):
    pass


class CapacityExceeded(PoolError):
    pass


class OutOfHorizon(PoolError):
    pass


class MalformedClaim(PoolError):
    pass


class PhantomRelease(PoolError):
    """A release took a cell below zero: the claim was never (fully) allocated."""


# Which grid(s) each process is allowed to claim. Sensing may be wireless
# (spectrum cells) or camera-based (no cells, time window only).
_GRIDS_FOR_PROCESS = {
    Process.COMM_DL: (GridKind.TIME_FREQ,),
    Process.COMM_UL: (GridKind.TIME_FREQ,),
    Process.COMP: (GridKind.TIME_COMP,),
    Process.SENS: (GridKind.TIME_FREQ, GridKind.NONE),
}


@dataclass(frozen=True)
class Claim:
    """A uniform-amount rectangle of cells: slot_range x lanes on one grid.

    ``amount_per_cell`` is in the grid's cell unit (Hz*s for frequency
    lanes, cycles for compute lanes). A ``GridKind.NONE`` claim records a
    time window only and must carry no lanes.
    """

    client_id: int
    round_index: int
    process: Process
    grid: GridKind
    slot_range: tuple[int, int]  # [start, end)
    lanes: tuple[int, ...]
    amount_per_cell: float

    def check(self) -> None:
        s0, s1 = self.slot_range
        if s0 < 0 or s1 <= s0:
            raise MalformedClaim(f"empty or negative slot range {self.slot_range}")
        if self.grid not in _GRIDS_FOR_PROCESS[self.process]:
            raise MalformedClaim(
                f"process {self.process.value} may not claim grid {self.grid.value}"
            )
        if self.grid is GridKind.NONE:
            if self.lanes or self.amount_per_cell != 0.0:
                raise MalformedClaim("time-only claim must carry no lanes and zero amount")
        else:
            if not self.lanes:
                raise MalformedClaim("grid claim must name at least one lane")
            if len(set(self.lanes)) != len(self.lanes):
                raise MalformedClaim("duplicate lanes in claim")
            if self.amount_per_cell < 0:
                raise MalformedClaim("negative amount")

    def num_slots(self) -> int:
        return self.slot_range[1] - self.slot_range[0]


# A `ClaimTable`'s process codes are positions in the compulsory serial
# order, its grid codes positions in `GRID_KINDS`.
PROCESS_ORDER = (Process.SENS, Process.COMM_DL, Process.COMP, Process.COMM_UL)
GRID_KINDS = tuple(GridKind)
# LEGAL_GRIDS[p + 1, g + 1]: whether process code p may claim grid code g; the
# False border stands for every code outside the known ones.
LEGAL_GRIDS = np.pad([[g in _GRIDS_FOR_PROCESS[p] for g in GRID_KINDS] for p in PROCESS_ORDER], 1)


@dataclass(frozen=True)
class ClaimTable:
    """Claims as columns of equal length; row k is the claim

    ``Claim(client_id[k], round_index[k], PROCESS_ORDER[process[k]],
    GRID_KINDS[grid[k]], (s0[k], s1[k]), tuple(range(l0[k], l1[k])),
    amount[k])``. Every claim the episode makes is one rectangle of cells:
    a slot range times a contiguous, ascending run of lanes.
    """

    client_id: np.ndarray
    round_index: np.ndarray
    process: np.ndarray
    grid: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    l0: np.ndarray
    l1: np.ndarray
    amount: np.ndarray

    def __len__(self) -> int:
        return len(self.amount)

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def of(cls, claims: list[Claim]) -> "ClaimTable":
        """The table of checked claims whose lanes are ascending runs."""
        rows = []
        for c in claims:
            c.check()
            l0 = c.lanes[0] if c.lanes else 0
            if c.lanes != tuple(range(l0, l0 + len(c.lanes))):
                raise MalformedClaim(f"lanes {c.lanes} are not an ascending run")
            rows.append((c.client_id, c.round_index, PROCESS_ORDER.index(c.process),
                         GRID_KINDS.index(c.grid), *c.slot_range, l0, l0 + len(c.lanes)))
        ints = np.array(rows, dtype=np.int64).reshape(-1, 8).T
        return cls(*ints, np.array([c.amount_per_cell for c in claims], dtype=float))

    @classmethod
    def concat(cls, tables: list["ClaimTable"]) -> "ClaimTable":
        if not tables:
            return cls.of([])
        return cls(*map(np.concatenate, zip(*(t.columns() for t in tables))))

    def claims(self) -> list[Claim]:
        """The rows as `Claim` objects, built on each call."""
        return [
            Claim(c, r, PROCESS_ORDER[p], GRID_KINDS[g], (s0, s1), tuple(range(l0, l1)), a)
            for c, r, p, g, s0, s1, l0, l1, a in zip(*(col.tolist() for col in self.columns()))
        ]


def fit_bound(cell_capacity: float) -> float:
    """The highest usage a cell may reach: its capacity plus EPS, or plus 16
    ulps where that is more, since an amount poured onto a cell's residual,
    or a full cell's amount on the residue a release left, can round above a
    large capacity."""
    return max(cell_capacity + EPS, cell_capacity + 16 * math.ulp(cell_capacity))


@dataclass
class ResourceGrid:
    """One slotted capacity plane with per-cell usage bookkeeping."""

    num_slots: int
    num_lanes: int
    cell_capacity: float
    used: np.ndarray  # (num_slots, num_lanes)

    @classmethod
    def empty(cls, num_slots: int, num_lanes: int, cell_capacity: float) -> "ResourceGrid":
        if num_slots < 1 or num_lanes < 1:
            raise ConfigurationError("grid dimensions must be >= 1")
        if cell_capacity <= 0:
            raise ConfigurationError("cell capacity must be > 0")
        return cls(num_slots, num_lanes, cell_capacity, np.zeros((num_slots, num_lanes)))

    def check_range(self, slot_range: tuple[int, int]) -> None:
        s0, s1 = slot_range
        if s0 < 0 or s1 > self.num_slots:
            raise OutOfHorizon(f"slot range {slot_range} outside horizon {self.num_slots}")

    def residual(self, slot_range: tuple[int, int] | None = None) -> np.ndarray:
        if slot_range is None:
            slot_range = (0, self.num_slots)
        self.check_range(slot_range)
        s0, s1 = slot_range
        return np.maximum(self.cell_capacity - self.used[s0:s1], 0.0)

    def cells(self, claim: Claim) -> tuple[slice, slice | list[int]]:
        """Index of a claim's cells: one rectangle slice when its lanes are contiguous.

        ``Claim.check`` forbids duplicate lanes, so ``max - min + 1 == len``
        exactly when the lanes form a contiguous set, in any order.
        """
        lanes = claim.lanes
        lo, hi = min(lanes), max(lanes)
        cols = slice(lo, hi + 1) if hi - lo + 1 == len(lanes) else list(lanes)
        return slice(*claim.slot_range), cols

    def fits(self, claim: Claim) -> bool:
        """Whether the claim fits on top of its cells' peak usage."""
        total = float(self.used[self.cells(claim)].max()) + claim.amount_per_cell
        return total <= fit_bound(self.cell_capacity)

    def apply(self, claim: Claim, sign: float) -> None:
        """Add (sign > 0) or remove (sign < 0) a claim's amount on its cells.

        Every cell is >= 0 before a release, so only the touched cells can go
        negative: rounding noise within EPS of a cell is clipped to 0, anything
        deeper raises PhantomRelease.
        """
        idx = self.cells(claim)
        if sign > 0:
            self.used[idx] += claim.amount_per_cell
            return
        left = self.used[idx] - claim.amount_per_cell
        if left.min() < -EPS * self.cell_capacity:
            raise PhantomRelease(
                f"release of {claim.process.value} r{claim.round_index} takes cells below 0"
            )
        self.used[idx] = np.maximum(left, 0.0, out=left)


@dataclass
class UniversalResourcePool:
    """Per-client pool holding both capacity grids plus the claim ledger."""

    time_freq: ResourceGrid
    time_comp: ResourceGrid
    slot_duration: float
    claims: list[Claim] = field(default_factory=list)

    # -- spec'd operations -------------------------------------------------

    def try_allocate(self, claim: Claim) -> "UniversalResourcePool":
        """Record a claim, incrementing every touched cell.

        Raises CapacityExceeded or OutOfHorizon without mutating the pool.
        """
        claim.check()
        if claim.grid is GridKind.NONE:
            if claim.slot_range[1] > self.num_slots:
                raise OutOfHorizon(f"slot range {claim.slot_range} outside horizon")
            self.claims.append(claim)
            return self
        grid = self._grid(claim.grid)
        grid.check_range(claim.slot_range)
        if max(claim.lanes) >= grid.num_lanes:
            raise MalformedClaim(f"lane {max(claim.lanes)} outside grid of {grid.num_lanes}")
        if not grid.fits(claim):
            raise CapacityExceeded(
                f"claim {claim.process.value} r{claim.round_index} over capacity"
            )
        grid.apply(claim, +1.0)
        self.claims.append(claim)
        return self

    def residual(self, slot_range: tuple[int, int] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell residual capacity (freq grid, comp grid) over a slot range."""
        return self.time_freq.residual(slot_range), self.time_comp.residual(slot_range)

    def release_round(self, round_index: int) -> "UniversalResourcePool":
        """Remove every claim of one round, restoring the touched cells."""
        keep: list[Claim] = []
        for claim in self.claims:
            if claim.round_index == round_index:
                if claim.grid is not GridKind.NONE:
                    self._grid(claim.grid).apply(claim, -1.0)
            else:
                keep.append(claim)
        self.claims = keep
        return self

    # -- derived quantities ------------------------------------------------

    @property
    def num_slots(self) -> int:
        return self.time_freq.num_slots

    @property
    def bandwidth_hz(self) -> float:
        """Total frequency capacity of the pool, as a bandwidth."""
        g = self.time_freq
        return g.num_lanes * g.cell_capacity / self.slot_duration

    @property
    def compute_cps(self) -> float:
        """Total compute capacity of the pool, as a rate in cycles/s."""
        g = self.time_comp
        return g.num_lanes * g.cell_capacity / self.slot_duration

    def rect_bandwidth_hz(self, slot_range: tuple[int, int]) -> float:
        """Bandwidth claimable as lane rectangles over the whole slot range.

        Per lane the binding slot is the one with least residual, so this is
        sum over lanes of the per-lane minimum. It never exceeds (and may be
        less than) the per-slot residual sum.
        """
        resid = self.time_freq.residual(slot_range)
        return float(resid.min(axis=0).sum()) / self.slot_duration

    def residual_fraction(self) -> tuple[float, float]:
        """(freq, comp) residual capacity as a fraction of total capacity."""
        f = self.time_freq
        c = self.time_comp
        f_frac = float(f.residual().sum() / (f.num_slots * f.num_lanes * f.cell_capacity))
        c_frac = float(c.residual().sum() / (c.num_slots * c.num_lanes * c.cell_capacity))
        return f_frac, c_frac

    # -- lane packing ------------------------------------------------------

    def pour_bandwidth(
        self, slot_range: tuple[int, int], hz: float
    ) -> list[tuple[tuple[int, ...], float]] | None:
        """Pack a bandwidth demand onto frequency lanes over a slot range.

        Returns (lanes, amount_per_cell) groups, lowest-index lanes first,
        or None when the demand does not fit as rectangles.
        """
        return self._pour(self.time_freq, slot_range, hz * self.slot_duration)

    def pour_compute(
        self, slot_range: tuple[int, int], cps: float
    ) -> list[tuple[tuple[int, ...], float]] | None:
        return self._pour(self.time_comp, slot_range, cps * self.slot_duration)

    def _pour(
        self, grid: ResourceGrid, slot_range: tuple[int, int], per_slot_demand: float
    ) -> list[tuple[tuple[int, ...], float]] | None:
        return pour_lanes(grid.residual(slot_range).min(axis=0).tolist(), per_slot_demand)

    def _grid(self, kind: GridKind) -> ResourceGrid:
        return self.time_freq if kind is GridKind.TIME_FREQ else self.time_comp


def pour_lanes(
    lane_avail: list[float], per_slot_demand: float
) -> list[tuple[tuple[int, ...], float]] | None:
    """Pack a per-slot demand onto lanes with the given availability.

    Returns (lanes, amount_per_cell) groups, lowest-index lanes first, or None
    when the demand does not fit. A shortfall of at most EPS, or EPS times
    the demand where that is more, is float round-off and still fits: a
    rate derived from the lanes' capacity comes back from rate times slot
    duration a few ulps above it.
    """
    if per_slot_demand <= EPS:
        return []
    takes = [0.0] * len(lane_avail)
    remaining = per_slot_demand
    for lane, avail in enumerate(lane_avail):
        if remaining <= EPS:
            break
        take = min(remaining, avail)
        if take > EPS:
            takes[lane] = take
            remaining -= take
    if remaining > EPS and remaining > EPS * per_slot_demand:
        return None
    # Group consecutive lanes with equal take into one rectangle.
    groups: list[tuple[tuple[int, ...], float]] = []
    run: list[int] = []
    run_amount = 0.0
    for lane, amt in enumerate(takes):
        if amt <= EPS:
            continue
        if run and abs(amt - run_amount) <= EPS and lane == run[-1] + 1:
            run.append(lane)
        else:
            if run:
                groups.append((tuple(run), run_amount))
            run = [lane]
            run_amount = amt
    if run:
        groups.append((tuple(run), run_amount))
    return groups


def pour_rows(
    lane_avail: np.ndarray, per_slot_demand: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`pour_lanes` for every row of (K, L) availabilities and (K,) demands.

    Returns (cells, ok): ``cells[k, l]`` is the amount per cell of the group
    holding lane l in row k's pour, 0 off every group, and ``ok[k]`` whether
    the demand fits. Each row runs `pour_lanes`' float operations in its
    order: the ``remaining -= take`` sequence over the lanes, and a group
    that continues while a lane's take is within EPS of the group's first.
    A take is at most the remaining demand, so a take above EPS also means
    the demand was not yet poured; a lane with no take (0) is never within
    EPS of a group's amount (above EPS), so it ends the group.
    """
    cells = np.empty(lane_avail.shape)
    remaining = per_slot_demand
    run = 0.0  # the amount of the group the previous lane belongs to, 0 if none
    for lane in range(lane_avail.shape[1]):
        take = np.minimum(remaining, lane_avail[:, lane])
        take = np.where(take > EPS, take, 0.0)
        remaining = remaining - take
        run = np.where(np.abs(take - run) <= EPS, run, take) if lane else take
        cells[:, lane] = run
    ok = (remaining <= EPS) | (remaining <= EPS * per_slot_demand)
    return cells, ok


def lane_runs(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The groups of nonzero cells as (row, first lane, end lane), row-major.

    Adjacent lanes of one `pour_rows` group hold the same amount, and a
    group that starts next to another starts because its amount differs.
    Over the cells in flat order, ``edge[i]`` says that cell i differs from
    the cell before it or starts a row (i = size starts none but ends the
    last): a group starts at a nonzero cell on an edge and ends before one.
    """
    lanes = cells.shape[1]
    flat = cells.ravel()
    edge = np.empty(len(flat) + 1, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=edge[1:-1])
    edge[::lanes] = True
    member = flat != 0.0
    rows, first = np.divmod((member & edge[:-1]).nonzero()[0], lanes)
    return rows, first, (member & edge[1:]).nonzero()[0] % lanes + 1


@dataclass(frozen=True)
class PoolConfig:
    """Shape and cell capacities of every client's per-frame resource pool.

    Frequency cells hold hz_per_lane * slot_duration Hz*s; compute cells hold
    cycles_per_lane_slot cycles.
    """

    num_slots: int = 9
    freq_lanes: int = 4
    comp_lanes: int = 2
    slot_duration: float = 0.1
    hz_per_lane: float = 1e6
    cycles_per_lane_slot: float = 5e7

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it too.
        if not all(d >= 1 for d in (self.num_slots, self.freq_lanes, self.comp_lanes)):
            raise ConfigurationError("pool dimensions must be >= 1")
        units = (self.slot_duration, self.hz_per_lane, self.cycles_per_lane_slot)
        if not all(u > 0 for u in units):
            raise ConfigurationError("pool unit scalars must be > 0")
        if not self.freq_cell_capacity > 0:
            raise ConfigurationError("cell capacity must be > 0")

    @property
    def freq_cell_capacity(self) -> float:
        return self.hz_per_lane * self.slot_duration

    @property
    def comp_cell_capacity(self) -> float:
        return self.cycles_per_lane_slot

    @property
    def compute_cps(self) -> float:
        """Total compute capacity of a pool, as a rate in cycles/s."""
        return self.comp_lanes * self.cycles_per_lane_slot / self.slot_duration

    def build(self) -> "UniversalResourcePool":
        """An empty claim-level pool of this shape."""
        return UniversalResourcePool(
            time_freq=ResourceGrid.empty(self.num_slots, self.freq_lanes, self.freq_cell_capacity),
            time_comp=ResourceGrid.empty(self.num_slots, self.comp_lanes, self.comp_cell_capacity),
            slot_duration=self.slot_duration,
        )


class PoolBank:
    """Every client's pool, each grid's cell usage held in one (N, slots, lanes) array.

    A load is one (N, slots, lanes) array of amounts per grid (None for a
    grid it leaves alone): a round's claims of one phase, whose rectangles
    within a row touch disjoint cells. Adding or subtracting it over the bank
    gives every cell the float operation the claim-level path applies to it.
    The all-client reductions equal the per-pool methods of the same name,
    row by row.
    """

    def __init__(self, cfg: PoolConfig, num_pools: int):
        self.cfg = cfg  # the shape and capacities of every row
        self.time_freq = np.zeros((num_pools, cfg.num_slots, cfg.freq_lanes))
        self.time_comp = np.zeros((num_pools, cfg.num_slots, cfg.comp_lanes))

    def _grids(self, freq: np.ndarray | None = None, comp: np.ndarray | None = None):
        """(usage, load, cell capacity) of each grid."""
        return ((self.time_freq, freq, self.cfg.freq_cell_capacity),
                (self.time_comp, comp, self.cfg.comp_cell_capacity))

    def place(self, freq: np.ndarray | None, comp: np.ndarray | None = None,
              bad: np.ndarray | None = None) -> np.ndarray:
        """Add a load unless a row would exceed `fit_bound` in a cell (exactly when a
        claim would, as rounding is monotone); return those rows or'd with ``bad``.
        Usage plus load, computed once, is both checked and kept."""
        bad = np.zeros(len(self.time_freq), dtype=bool) if bad is None else bad.copy()
        totals = [used if add is None else used + add for used, add, _ in self._grids(freq, comp)]
        for total, (used, _, cap) in zip(totals, self._grids()):
            if total is not used:
                _flag_over(bad, total, fit_bound(cap))
        if not bad.any():
            self.time_freq, self.time_comp = totals
        return bad

    def release(self, freq: np.ndarray | None, comp: np.ndarray | None = None) -> None:
        """Take a placed load off the bank, as `ResourceGrid.apply` does per claim.

        Rounding noise within EPS of a cell is clipped to 0; a cell taken
        deeper below 0 raises PhantomRelease without touching the bank.
        """
        grids = [(used, used - load, cap) for used, load, cap in self._grids(freq, comp)
                 if load is not None]
        for _, left, cap in grids:
            if (left < -EPS * cap).any():
                raise PhantomRelease("a release takes cells below 0")
        for used, left, _ in grids:
            np.maximum(left, 0.0, out=used)

    def free(self) -> tuple[np.ndarray, np.ndarray]:
        """Each grid's residual per cell, capacity less usage and at least 0."""
        return (_free(self.time_freq, self.cfg.freq_cell_capacity),
                _free(self.time_comp, self.cfg.comp_cell_capacity))

    def rect_bandwidth_hz(self, free_freq: np.ndarray | None = None) -> np.ndarray:
        """Each row's ``rect_bandwidth_hz`` over the whole frame, from the
        frequency grid's `free` cells if given, reduced slot-major (fast)."""
        if free_freq is None:
            free_freq = _free(self.time_freq, self.cfg.freq_cell_capacity)
        least = np.ascontiguousarray(free_freq.transpose(1, 0, 2)).min(axis=0)
        return least.sum(axis=1) / self.cfg.slot_duration

    def residual_fraction(self, free: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Each row's (freq, comp) ``residual_fraction``, from the `free` cells if given."""
        free_freq, free_comp = free or self.free()
        return (_free_fraction(free_freq, self.cfg.freq_cell_capacity),
                _free_fraction(free_comp, self.cfg.comp_cell_capacity))

    def peak_use(self) -> float:
        """Highest cell usage over every row and both grids, as a fraction of capacity."""
        return max(float(used.max() / cap) for used, _, cap in self._grids())

    def over_rows(self) -> list[np.ndarray]:
        """Each grid's rows holding a cell above `fit_bound`."""
        return [np.flatnonzero(_flag_over(np.zeros(len(used), dtype=bool), used, fit_bound(cap)))
                for used, _, cap in self._grids()]

    def residue_rows(self) -> np.ndarray:
        """Rows holding any cell with |usage| above 1e-9 of its capacity,
        looked for only when a whole-grid max and min show one."""
        rows = np.zeros(len(self.time_freq), dtype=bool)
        for used, _, cap in self._grids():
            limit = 1e-9 * cap
            if used.size and not (used.max() <= limit and used.min() >= -limit):  # NaN too
                rows |= np.abs(used).max(axis=(1, 2)) > limit
        return np.flatnonzero(rows)


def _flag_over(rows: np.ndarray, used: np.ndarray, bound: float) -> np.ndarray:
    """Flag the rows holding a cell above ``bound`` or NaN, if the grid's max shows one."""
    if used.size and not used.max() <= bound:  # NaN too
        rows |= ~(used <= bound).all(axis=(1, 2))
    return rows


def _free(used: np.ndarray, cell_capacity: float) -> np.ndarray:
    return np.maximum(cell_capacity - used, 0.0)


def _free_fraction(free: np.ndarray, cell_capacity: float) -> np.ndarray:
    n, num_slots, num_lanes = free.shape
    return free.reshape(n, -1).sum(axis=1) / (num_slots * num_lanes * cell_capacity)
