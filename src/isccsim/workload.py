"""Achievable-workload solver: the largest number of data samples one client
can sense, download a model for, train on, and upload within its round
windows, given bandwidth and compute budgets.

The program is convex in the bandwidth split. Camera sensing (VS) uses no
spectrum, so every budget binds independently and the optimum is closed
form. Wireless sensing (WS) under an overlapped pipeline shares bandwidth
with the concurrent communication phase; the optimum sits where the rising
sensing branch crosses the falling compute branch, the positive root of a
quadratic in the communication bandwidth.

`solve_workload` and `latency_components` are the scalar reference
definitions. `solve_edges` solves a whole (N×M) edge array in one pass of
the same closed forms and equals them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .network import SensingMode

# Feasibility slack, absolute.
TOL = 1e-9


class InvalidProblem(ValueError):
    pass


NON_NEGATIVE = (
    "t_gen", "t_cons", "bandwidth_hz", "compute_cps", "s_dl", "s_ul",
    "kappa", "w_cap", "tau_s", "sigma", "rho",
)


@dataclass(frozen=True)
class WorkloadProblem:
    t_gen: float          # generation window, s
    t_cons: float         # consumption window, s
    bandwidth_hz: float   # residual bandwidth B
    compute_cps: float    # residual compute rate F
    eta: float            # spectral efficiency to the candidate edge, b/s/Hz
    s_dl: float           # model download size, bits
    s_ul: float           # update upload size, bits
    kappa: float          # cycles per sample
    w_cap: float          # sample availability ceiling
    mode: SensingMode
    tau_s: float = 0.0    # s per sample (VS)
    sigma: float = 0.0    # bits per sample (WS)
    rho: float = 0.0      # sensing spectral efficiency, b/s/Hz (WS)
    coupled: bool = False  # sensing shares bandwidth with concurrent comm

    def __post_init__(self) -> None:
        for name in NON_NEGATIVE:
            if getattr(self, name) < 0:
                raise InvalidProblem(f"{name} must be >= 0")
        if self.eta <= 0:
            raise InvalidProblem("eta must be > 0")


class WorkloadSolution(NamedTuple):
    w_star: int
    b_sens_hz: float
    b_comm_hz: float
    f_cps: float
    t_sens: float
    t_dl: float
    t_cp: float
    t_ul: float
    feasible: bool

    @classmethod
    def from_row(cls, row: list[float]) -> "WorkloadSolution":
        """One edge of `solve_edges`' solution array, as a list of floats it
        may overwrite."""
        row[0] = int(row[0])
        row[-1] = row[-1] == 1.0
        return cls._make(row)


# Row order of `solve_edges`' solution array.
SOLUTION_FIELDS = WorkloadSolution._fields


def _ifloor(x: float) -> int:
    """Floor with a hair of upward slack so float noise at an integer
    boundary (19.999999999999996) does not cost a whole sample."""
    return int(math.floor(x * (1.0 + 1e-12) + TOL))


def _comm_time(bits: float, b_hz: float, eta: float) -> float:
    if bits == 0.0:
        return 0.0
    if b_hz <= 0.0:
        return math.inf
    return bits / (b_hz * eta)


def _sens_cap_ws(p: WorkloadProblem, b_sens: float) -> float:
    """Samples sensable in the generation window at bandwidth b_sens."""
    if p.sigma == 0.0:
        return math.inf
    return b_sens * p.rho * p.t_gen / p.sigma


def _comp_cap(p: WorkloadProblem, b_comm: float, f: float) -> float:
    """Samples trainable in the consumption window after comm time."""
    slack = p.t_cons - _comm_time(p.s_dl + p.s_ul, b_comm, p.eta)
    if slack <= 0.0:
        return 0.0
    if p.kappa == 0.0:
        return math.inf
    return slack * f / p.kappa


def solve_workload(p: WorkloadProblem) -> WorkloadSolution:
    """Maximize integer sample count W subject to window and budget limits.

    The four-process structure: sensing must finish inside t_gen; download,
    training, and upload run serially inside t_cons. Downlink and uplink
    share one bandwidth variable. Infeasible means the communication time
    alone exceeds the consumption window at the best admissible bandwidth.
    """
    total_bits = p.s_dl + p.s_ul
    t_comm_full = _comm_time(total_bits, p.bandwidth_hz, p.eta)
    feasible = t_comm_full < p.t_cons or total_bits == 0.0

    if not feasible:
        return _package(p, 0, b_sens=0.0, b_comm=p.bandwidth_hz, feasible=False)

    if p.mode is SensingMode.VS or not p.coupled:
        if p.mode is SensingMode.VS:
            sens_cap = math.inf if p.tau_s == 0.0 else p.t_gen / p.tau_s
        else:
            sens_cap = _sens_cap_ws(p, p.bandwidth_hz)
        w_real = min(sens_cap, p.w_cap, _comp_cap(p, p.bandwidth_hz, p.compute_cps))
        w_star = _ifloor(w_real)
        b_sens = _thrifty_b_sens(p, w_star)
        return _package(p, w_star, b_sens=b_sens, b_comm=p.bandwidth_hz, feasible=True)

    # WS coupled: W(b_sens) = min(rising sensing branch, falling compute
    # branch, w_cap) is unimodal; its peak is the branch crossing.
    if p.sigma == 0.0:
        w_real = min(p.w_cap, _comp_cap(p, p.bandwidth_hz, p.compute_cps))
        return _package(p, _ifloor(w_real), 0.0, p.bandwidth_hz, True)
    if p.rho * p.t_gen == 0.0 or p.bandwidth_hz == 0.0:
        return _package(p, 0, 0.0, p.bandwidth_hz, True)

    b = p.bandwidth_hz
    b_cross = b - _crossing_comm_hz(p)
    b_cap = p.w_cap * p.sigma / (p.rho * p.t_gen)
    b_sens = min(b_cross, b_cap)
    # kappa = 0: training takes no time, so compute binds nowhere the
    # communication fits. The crossing then sits on the comm-feasibility
    # boundary, where the cap is taken from the feasible side: the full-band
    # cap, which feasibility makes unbounded once t_cons > 0.
    comp_b = b if p.kappa == 0.0 else b - b_sens
    w_real = min(_sens_cap_ws(p, b_sens), _comp_cap(p, comp_b, p.compute_cps), p.w_cap)
    w_star = _ifloor(w_real)
    # Give back bandwidth the integer solution does not need.
    b_sens = min(b_sens, _thrifty_b_sens(p, w_star))
    return _package(p, w_star, b_sens=b_sens, b_comm=b - b_sens, feasible=True)


def _crossing_comm_hz(p: WorkloadProblem) -> float:
    """Communication bandwidth x = B - b_sens where the sensing cap a(B - x)
    meets the compute cap c(t_cons - S/(x eta)): the positive root of
    a x^2 - (aB - c t_cons) x - cS/eta = 0, capped at B against rounding."""
    b = p.bandwidth_hz
    total_bits = p.s_dl + p.s_ul
    if p.kappa == 0.0:
        # c -> inf: the compute cap is unbounded once comm fits in t_cons.
        return min(b, total_bits / (p.eta * p.t_cons)) if total_bits else 0.0
    a = p.rho * p.t_gen / p.sigma
    c = p.compute_cps / p.kappa
    beta = a * b - c * p.t_cons
    q = c * total_bits / p.eta
    root = math.sqrt(beta * beta + 4.0 * a * q)
    # Both forms are >= 0; the second is (beta + root) / (2a) without the
    # cancellation it would suffer when beta < 0.
    x = (beta + root) / (2.0 * a) if beta >= 0.0 else 2.0 * q / (root - beta)
    return min(b, x)


def _thrifty_b_sens(p: WorkloadProblem, w_star: int) -> float:
    """Least sensing bandwidth that still fits w_star in the window."""
    if p.mode is SensingMode.VS or w_star == 0 or p.sigma == 0.0:
        return 0.0
    if p.rho * p.t_gen == 0.0:
        return 0.0
    return min(p.bandwidth_hz, w_star * p.sigma / (p.rho * p.t_gen))


def _package(
    p: WorkloadProblem, w_star: int, b_sens: float, b_comm: float, feasible: bool
) -> WorkloadSolution:
    if w_star == 0:
        t_sens = 0.0
        t_cp = 0.0
    elif p.mode is SensingMode.VS:
        t_sens = w_star * p.tau_s
        t_cp = w_star * p.kappa / p.compute_cps if p.kappa > 0.0 else 0.0
    else:
        t_sens = (
            0.0 if p.sigma == 0.0 else w_star * p.sigma / (b_sens * p.rho)
        )
        t_cp = w_star * p.kappa / p.compute_cps if p.kappa > 0.0 else 0.0
    t_dl = _comm_time(p.s_dl, b_comm, p.eta) if feasible else _comm_time(p.s_dl, p.bandwidth_hz, p.eta)
    t_ul = _comm_time(p.s_ul, b_comm, p.eta) if feasible else _comm_time(p.s_ul, p.bandwidth_hz, p.eta)
    return WorkloadSolution(
        w_star=w_star,
        b_sens_hz=b_sens,
        b_comm_hz=b_comm,
        f_cps=p.compute_cps,
        t_sens=t_sens,
        t_dl=t_dl,
        t_cp=t_cp,
        t_ul=t_ul,
        feasible=feasible,
    )


def oracle_workload(p: WorkloadProblem, grid: int = 400) -> int:
    """Brute-force reference: exhaustive (b_sens, f) lattice search.

    Every lattice point is a feasible allocation, so the result never
    exceeds the true optimum and converges to it as the grid refines.
    """
    if grid < 2:
        raise InvalidProblem("grid must be >= 2")
    b = np.linspace(0.0, p.bandwidth_hz, grid)
    f = np.linspace(0.0, p.compute_cps, grid)

    if p.mode is SensingMode.WS and p.coupled:
        b_comm = p.bandwidth_hz - b
    else:
        b_comm = np.full(grid, p.bandwidth_hz)

    if p.mode is SensingMode.VS:
        sens = np.full(grid, math.inf if p.tau_s == 0.0 else p.t_gen / p.tau_s)
    elif p.sigma == 0.0:
        sens = np.full(grid, math.inf)
    else:
        sens = b * (p.rho * p.t_gen / p.sigma)

    total_bits = p.s_dl + p.s_ul
    with np.errstate(divide="ignore"):
        t_comm = np.where(
            b_comm > 0.0,
            total_bits / (np.maximum(b_comm, 1e-300) * p.eta),
            0.0 if total_bits == 0.0 else math.inf,
        )
    slack = np.maximum(0.0, p.t_cons - t_comm)
    if p.kappa == 0.0:
        comp = np.full((grid, grid), math.inf)
    else:
        comp = slack[:, None] * f[None, :] / p.kappa
    w = np.minimum(np.minimum(sens[:, None], comp), p.w_cap)
    return int(math.floor(float(w.max()) + TOL))


def latency_components(
    p: WorkloadProblem, w: int
) -> tuple[float, float, float, float]:
    """Per-process times at full-budget allocation (b_comm=B, f=F, sensing
    over the whole bandwidth). Feeds the latency-greedy baselines."""
    if w < 0:
        raise InvalidProblem("w must be >= 0")
    t_dl = _comm_time(p.s_dl, p.bandwidth_hz, p.eta)
    t_ul = _comm_time(p.s_ul, p.bandwidth_hz, p.eta)
    if w == 0:
        return (0.0, t_dl, 0.0, t_ul)
    if p.kappa == 0.0:
        t_cp = 0.0
    else:
        t_cp = math.inf if p.compute_cps == 0.0 else w * p.kappa / p.compute_cps
    if p.mode is SensingMode.VS:
        t_sens = w * p.tau_s
    elif p.sigma == 0.0:
        t_sens = 0.0
    elif p.bandwidth_hz * p.rho == 0.0:
        t_sens = math.inf
    else:
        t_sens = w * p.sigma / (p.bandwidth_hz * p.rho)
    return (t_sens, t_dl, t_cp, t_ul)


# The per-edge inputs of `EdgeArrays.values`, in `WorkloadProblem` order.
EDGE_FIELDS = ("bandwidth_hz", "compute_cps", "eta", "s_dl", "s_ul", "kappa", "w_cap")
SCALAR_FIELDS = ("t_gen", "t_cons", "tau_s", "sigma", "rho")


@dataclass(frozen=True)
class EdgeArrays:
    """Solver inputs of a whole (N×M) edge array, validated at construction.

    `values[k]` is the (N, M) array of field `EDGE_FIELDS[k]`, so one
    reduction checks every field. Edge (i, m) is `problem(i, m)`.
    """

    values: np.ndarray  # (7, N, M)
    vs: np.ndarray      # (N, M) bool: camera sensing, else wireless
    t_gen: float
    t_cons: float
    tau_s: float = 0.0
    sigma: float = 0.0
    rho: float = 0.0
    coupled: bool = False

    def __post_init__(self) -> None:
        if self.values.shape[:1] != (len(EDGE_FIELDS),) or self.vs.shape != self.values.shape[1:]:
            raise InvalidProblem(f"values {self.values.shape} and vs {self.vs.shape} mismatch")
        lows = self.values.min(axis=(1, 2), initial=math.inf).tolist()
        lows += (self.t_gen, self.t_cons, self.tau_s, self.sigma, self.rho)  # SCALAR_FIELDS
        if min(lows) < 0 or lows[2] <= 0:
            low = dict(zip(EDGE_FIELDS + SCALAR_FIELDS, lows))
            bad = [name for name in NON_NEGATIVE if low[name] < 0]
            raise InvalidProblem(f"{bad[0]} must be >= 0" if bad else "eta must be > 0")

    def problem(self, row: int, m: int) -> WorkloadProblem:
        return WorkloadProblem(
            self.t_gen,
            self.t_cons,
            *self.values[:, row, m].tolist(),
            mode=SensingMode.VS if self.vs[row, m] else SensingMode.WS,
            tau_s=self.tau_s,
            sigma=self.sigma,
            rho=self.rho,
            coupled=self.coupled,
        )


def _comp_caps(slack: np.ndarray, f: np.ndarray, kappa: np.ndarray, free: bool) -> np.ndarray:
    """`_comp_cap` given its slack; `free` says some kappa is 0."""
    caps = np.maximum(slack, 0.0) * f / kappa
    if free:
        caps = np.where(kappa == 0.0, np.where(slack > 0.0, math.inf, 0.0), caps)
    return caps


def _crossing_comm_hz_edges(
    x: EdgeArrays, b: np.ndarray, f: np.ndarray, eta: np.ndarray, kappa: np.ndarray,
    total: np.ndarray, free: bool,
) -> np.ndarray:
    """`_crossing_comm_hz` of every edge; needs sigma > 0 and rho * t_gen > 0."""
    a = x.rho * x.t_gen / x.sigma
    c = f / kappa
    beta = a * b - c * x.t_cons
    q = c * total / eta
    root = np.sqrt(beta * beta + 4.0 * a * q)
    cross = np.where(beta >= 0.0, (beta + root) / (2.0 * a), 2.0 * q / (root - beta))
    cross = np.minimum(b, cross)
    if free:
        no_compute = np.where(total == 0.0, 0.0, np.minimum(b, total / (eta * x.t_cons)))
        cross = np.where(kappa == 0.0, no_compute, cross)
    return cross


def solve_edges(x: EdgeArrays) -> np.ndarray:
    """`solve_workload` of every edge: the (9, N, M) solution array.

    Row k holds field `SOLUTION_FIELDS[k]`, w_star and feasible (0 or 1)
    as floats. The scalar solver's per-edge branches become masks; its
    branches on the shared scalars stay Python branches. Only + - * / sqrt
    floor and minimum/maximum run on the arrays, in the scalar code's order,
    so every entry equals `solve_workload` bit for bit.
    """
    b, f, eta, s_dl, s_ul, kappa, w_cap = x.values
    vs, ws = x.vs, ~x.vs
    sens_rate = x.rho * x.t_gen
    crossing = x.coupled and x.sigma != 0.0 and sens_rate != 0.0
    free = not kappa.all()
    total = s_dl + s_ul
    out = np.empty((len(SOLUTION_FIELDS),) + vs.shape)
    w, b_sens, b_comm, _, t_sens, _, t_cp = out[:7]
    # A mask drops each branch not taken, which may divide by zero. A time
    # is 0 for a zero amount, so fmax(t, 0) turns the 0/0 of a zero amount
    # at a zero rate into 0 and keeps every other time.
    with np.errstate(divide="ignore", invalid="ignore"):
        b_eta = b * eta
        t_comm = np.fmax(total / b_eta, 0.0)
        ok = t_comm < x.t_cons if x.t_cons > 0.0 else total == 0.0
        comp = _comp_caps(x.t_cons - t_comm, f, kappa, free)

        # VS, and WS unless it takes the crossing: sigma = 0 gives the same
        # caps, and rho * t_gen = 0 a zero sensing cap.
        sens = math.inf if x.tau_s == 0.0 else x.t_gen / x.tau_s
        if not crossing:
            sens_ws = math.inf if x.sigma == 0.0 else b * x.rho * x.t_gen / x.sigma
            sens = np.where(vs, sens, sens_ws)
        w_real = np.minimum(np.minimum(sens, w_cap), comp)
        if crossing:
            # Every WS edge: B = 0 gives the zero caps and times of the
            # scalar early return.
            cross = ws & ok
            b_cross = np.minimum(
                b - _crossing_comm_hz_edges(x, b, f, eta, kappa, total, free),
                w_cap * x.sigma / sens_rate,
            )
            slack = x.t_cons - np.fmax(total / ((b - b_cross) * eta), 0.0)
            cross_comp = _comp_caps(slack, f, kappa, False)
            if free:
                # kappa = 0: the full-band cap, as in `solve_workload`.
                cross_comp = np.where(kappa == 0.0, comp, cross_comp)
            sens = b_cross * x.rho * x.t_gen / x.sigma
            np.minimum(np.minimum(sens, cross_comp), w_cap, out=w_real, where=cross)
        out[:2] = 0.0  # w and b_sens where no branch sets them
        np.floor(w_real * (1.0 + 1e-12) + TOL, out=w, where=ok)

        # Thrifty sensing bandwidth; w = 0 gives 0.
        w_sigma = w * x.sigma
        if x.sigma != 0.0 and sens_rate != 0.0:
            np.minimum(b, w_sigma / sens_rate, out=b_sens, where=ws)
        out[2:4] = x.values[:2]  # b_comm = B and f_cps = F
        b_comm_eta = b_eta
        if crossing:
            np.minimum(b_cross, b_sens, out=b_sens, where=cross)
            np.subtract(b, b_sens, out=b_comm, where=cross)
            b_comm_eta = b_comm * eta
        # Rows 5 and 7: t_dl and t_ul.
        np.fmax(x.values[3:5] / b_comm_eta, 0.0, out=out[5:8:2])
        np.multiply(w, x.tau_s, out=t_sens)
        if x.sigma == 0.0:
            np.copyto(t_sens, 0.0, where=ws)
        else:
            np.fmax(w_sigma / (b_sens * x.rho), 0.0, out=t_sens, where=ws)
        np.fmax(w * kappa / f, 0.0, out=t_cp)
    out[-1] = ok
    return out


def edge_latencies(x: EdgeArrays) -> np.ndarray:
    """`latency_components(problem, int(w_cap))` of every edge: (N, M, 4)."""
    b, f, eta, s_dl, s_ul, kappa, w_cap = x.values
    w = np.floor(w_cap)
    table = np.empty(x.vs.shape + (4,))
    with np.errstate(divide="ignore", invalid="ignore"):
        b_eta = b * eta
        table[..., 1] = np.fmax(s_dl / b_eta, 0.0)
        table[..., 3] = np.fmax(s_ul / b_eta, 0.0)
        t_ws = 0.0 if x.sigma == 0.0 else np.fmax(w * x.sigma / (b * x.rho), 0.0)
        table[..., 0] = np.where(x.vs, w * x.tau_s, t_ws)
        table[..., 2] = np.fmax(w * kappa / f, 0.0)
    return table
