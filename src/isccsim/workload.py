"""Achievable-workload solver: the largest number of data samples one client
can sense, download a model for, train on, and upload within its round
windows, given bandwidth and compute budgets.

The program is convex in the bandwidth split. Camera sensing (VS) uses no
spectrum, so every budget binds independently and the optimum is closed
form. Wireless sensing (WS) under an overlapped pipeline shares bandwidth
with the concurrent communication phase; the optimum sits where the rising
sensing branch crosses the falling compute branch, the positive root of a
quadratic in the communication bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import SensingMode

# Feasibility slack, absolute.
TOL = 1e-9


class InvalidProblem(ValueError):
    pass


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
        for name in (
            "t_gen", "t_cons", "bandwidth_hz", "compute_cps", "s_dl", "s_ul",
            "kappa", "w_cap", "tau_s", "sigma", "rho",
        ):
            if getattr(self, name) < 0:
                raise InvalidProblem(f"{name} must be >= 0")
        if self.eta <= 0:
            raise InvalidProblem("eta must be > 0")


@dataclass(frozen=True)
class WorkloadSolution:
    w_star: int
    b_sens_hz: float
    b_comm_hz: float
    f_cps: float
    t_sens: float
    t_dl: float
    t_cp: float
    t_ul: float
    feasible: bool

    @property
    def latencies(self) -> tuple[float, float, float, float]:
        return (self.t_sens, self.t_dl, self.t_cp, self.t_ul)


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
    w_real = min(
        _sens_cap_ws(p, b_sens), _comp_cap(p, b - b_sens, p.compute_cps), p.w_cap
    )
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
