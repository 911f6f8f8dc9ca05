"""Learning performance gain and the client-model bipartite gain graph.

Gain for a (client, model) pair multiplies how well the client's sensed
class mix matches the model's training mix (relative-entropy similarity)
by a concave function of how many samples the client can actually push
through a round (the achievable workload).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Scenario, local_distribution, sensed_class_counts, spectral_efficiency
from .workload import WorkloadProblem, WorkloadSolution, latency_components, solve_workload


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class SensingParams:
    """Sensing-process constants shared by every client of a mode."""

    tau_s: float = 0.03           # camera seconds per sample
    sigma: float = 5e4            # wireless sensing bits per sample
    rho: float = 2.0              # wireless sensing spectral efficiency
    samples_per_target: int = 4   # per-round sample yield per covered target
    epsilon: float = 1e-3         # distribution smoothing


def similarity(p: np.ndarray, q: np.ndarray) -> float:
    """s = exp(-KL(p||q)) in (0, 1]; 1 iff the distributions coincide.

    Direction: p is the client's data, q the model's domain, so mass the
    model has never seen is what gets penalized.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatch(f"{p.shape} vs {q.shape}")
    if np.any(p <= 0.0) or np.any(q <= 0.0):
        raise ValueError("distributions must be smoothed strictly positive")
    kl = float(np.sum(p * np.log(p / q)))
    return math.exp(-kl)


def kl_matrix(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(N, M) matrix of KL(p_i || q_m) for (N, K) rows p and (M, K) rows q.

    Each entry is summed exactly as in `similarity`, so exp(-entry) equals
    `similarity(p_i, q_m)` bit for bit.
    """
    if p.ndim != 2 or q.ndim != 2 or p.shape[1] != q.shape[1]:
        raise DimensionMismatch(f"{p.shape} vs {q.shape}")
    if np.any(p <= 0.0) or np.any(q <= 0.0):
        raise ValueError("distributions must be smoothed strictly positive")
    p = p[:, None, :]
    return np.sum(p * np.log(p / q[None, :, :]), axis=-1)


def gain(s: float, w: float) -> float:
    """Learning performance gain g = s * ln(1 + W)."""
    if not 0.0 < s <= 1.0 + 1e-12:
        raise ValueError(f"similarity {s} outside (0, 1]")
    if w < 0:
        raise ValueError("workload must be >= 0")
    return s * math.log1p(w)


@dataclass(frozen=True)
class GainEdge:
    client_id: int
    model_id: int
    weight: float
    workload: int
    similarity: float
    problem: WorkloadProblem
    solution: WorkloadSolution


@dataclass
class GainGraph:
    client_ids: list[int]
    model_ids: list[int]
    edges: list[GainEdge]
    sensed_counts: list[int]  # targets each client senses this round
    weights: np.ndarray        # (N, M) edge weights
    etas: np.ndarray           # (N, M) spectral efficiency to each model's edge
    latency_table: np.ndarray  # (N, M, 4): t_sens, t_dl, t_cp, t_ul at W = w_cap

    def edge(self, row: int, model_id: int) -> GainEdge:
        """The edge of client row `row` (not client id) to model `model_id`."""
        return self.edges[row * len(self.model_ids) + model_id]


def num_models(scenario: Scenario) -> int:
    return len(scenario.edges) * len(scenario.edges[0].model_mixtures)


def model_edge_variant(scenario: Scenario, model_id: int) -> tuple[int, int]:
    """Map a flat model index to (edge index, variant index)."""
    variants = len(scenario.edges[0].model_mixtures)
    return model_id // variants, model_id % variants


def build_gain_graph(
    scenario: Scenario,
    t_gen: float,
    t_cons: float,
    residuals: list[tuple[float, float]],
    sensing: SensingParams,
    coupled: bool,
) -> GainGraph:
    """Weight every (client, model) pair with its achievable gain.

    residuals[i] is client i's (bandwidth Hz, compute cycles/s) budget for
    the round. A pure function: identical inputs give identical graphs.
    """
    m_count = num_models(scenario)
    model_ids = list(range(m_count))
    client_ids = [c.client_id for c in scenario.clients]
    if len(residuals) != len(scenario.clients):
        raise DimensionMismatch("one residual pair per client required")

    counts = sensed_class_counts(scenario)
    sensed = counts.sum(axis=1)
    mixtures = np.array([
        scenario.edges[e_idx].model_mixtures[variant]
        for e_idx, variant in (model_edge_variant(scenario, m) for m in model_ids)
    ])
    kl = kl_matrix(local_distribution(counts, sensing.epsilon), mixtures)

    n = len(scenario.clients)
    weights = np.zeros((n, m_count))
    etas = np.zeros((n, m_count))
    table = np.zeros((n, m_count, 4))
    edges: list[GainEdge] = []
    for i, client in enumerate(scenario.clients):
        b_hz, f_cps = residuals[i]
        w_cap = float(sensed[i] * sensing.samples_per_target)
        for m in model_ids:
            e_idx, variant = model_edge_variant(scenario, m)
            eta = spectral_efficiency(client, scenario.edges[e_idx], scenario.channel)
            problem = WorkloadProblem(
                t_gen=t_gen,
                t_cons=t_cons,
                bandwidth_hz=b_hz,
                compute_cps=f_cps,
                eta=eta,
                s_dl=client.dl_bits[variant],
                s_ul=client.ul_bits[variant],
                kappa=client.cycles_per_sample[variant],
                w_cap=w_cap,
                mode=client.sensing_mode,
                tau_s=sensing.tau_s,
                sigma=sensing.sigma,
                rho=sensing.rho,
                coupled=coupled,
            )
            sol = solve_workload(problem)
            s = math.exp(-float(kl[i, m]))
            edge = GainEdge(
                client_id=client.client_id,
                model_id=m,
                weight=gain(s, sol.w_star),
                workload=sol.w_star,
                similarity=s,
                problem=problem,
                solution=sol,
            )
            edges.append(edge)
            weights[i, m] = edge.weight
            etas[i, m] = eta
            table[i, m] = latency_components(problem, int(w_cap))
    return GainGraph(
        client_ids, model_ids, edges, sensed.astype(int).tolist(), weights, etas, table
    )
