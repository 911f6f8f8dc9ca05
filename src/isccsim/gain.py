"""Learning performance gain and the client-model bipartite gain graph.

Gain for a (client, model) pair multiplies how well the client's sensed
class mix matches the model's training mix (relative-entropy similarity)
by a concave function of how many samples the client can actually push
through a round (the achievable workload).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import (
    DimensionMismatch,
    Scenario,
    local_distribution,
    sensed_class_counts,
    spectral_efficiencies,
)
from .workload import (
    EDGE_FIELDS,
    EdgeArrays,
    WorkloadProblem,
    WorkloadSolution,
    edge_latencies,
    solve_edges,
)


@dataclass(frozen=True)
class SensingParams:
    """Sensing-process constants shared by every client of a mode."""

    tau_s: float = 0.03           # camera seconds per sample
    sigma: float = 5e4            # wireless sensing bits per sample
    rho: float = 2.0              # wireless sensing spectral efficiency
    samples_per_target: int = 4   # per-round sample yield per covered target
    epsilon: float = 1e-3         # distribution smoothing

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it too.
        if not all(x >= 0 for x in (self.tau_s, self.sigma, self.rho, self.samples_per_target)):
            raise ValueError("sensing constants must be >= 0")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")


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
    return _kl(p, q)


def _kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    p = p[:, None, :]
    return (p * np.log(p / q[None, :, :])).sum(axis=-1)


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
    """One round's client-model gain graph, held as (N, M) arrays.

    Edge objects are built only on demand from the arrays: `edge(row, m)`
    builds one, `edges` all of them in row-major order.
    """

    client_ids: list[int]
    model_ids: list[int]
    weights: np.ndarray        # (N, M) edge weights
    etas: np.ndarray           # (N, M) spectral efficiency to each model's edge
    similarities: np.ndarray   # (N, M)
    solutions: np.ndarray      # (9, N, M): `WorkloadSolution` fields in order
    problems: EdgeArrays       # the solver inputs each edge's problem comes from

    @cached_property
    def latency_table(self) -> np.ndarray:
        """(N, M, 4): t_sens, t_dl, t_cp, t_ul at W = w_cap and the full budgets."""
        return edge_latencies(self.problems)

    def edge(self, row: int, model_id: int) -> GainEdge:
        """The edge of client row `row` (not client id) to model `model_id`."""
        solution = WorkloadSolution.from_row(self.solutions[:, row, model_id].tolist())
        return GainEdge(
            client_id=self.client_ids[row],
            model_id=model_id,
            weight=float(self.weights[row, model_id]),
            workload=solution.w_star,
            similarity=float(self.similarities[row, model_id]),
            problem=self.problems.problem(row, model_id),
            solution=solution,
        )

    @cached_property
    def edges(self) -> list[GainEdge]:
        return [self.edge(i, m) for i in range(len(self.client_ids)) for m in self.model_ids]

    @property
    def infeasible_edges(self) -> int:
        return self.weights.size - int(self.solutions[-1].sum())


def num_models(scenario: Scenario) -> int:
    return len(scenario.edges) * len(scenario.edges[0].model_mixtures)


@dataclass(frozen=True)
class RoundTerms:
    """The inputs of one round's gain graph that no decision changes: what
    each client senses and its channel, at the round's positions."""

    similarities: np.ndarray  # (N, M) of each client's sensed mix to each model's
    etas: np.ndarray          # (N, M) spectral efficiency to each model's edge server
    w_cap: np.ndarray         # (N,) samples sensed: targets covered times samples per target


def round_terms(scenario: Scenario, positions: np.ndarray,
                sensing: SensingParams) -> list[RoundTerms]:
    """The `RoundTerms` of each of R rounds, the clients at (R, N, 2)
    `positions`, in one pass over all R*N client-rounds stacked as rows: one
    sensing pass, one KL and `exp` pass and one channel pass. Every entry
    is computed row by row as for one round alone, so each round's terms
    equal its own pass bit for bit. A similarity outside (0, 1] raises
    ValueError naming the first round (from 1) that has one.
    """
    rounds, n = positions.shape[:2]
    models = scenario.model_arrays()
    m_count = len(models.edge_of_model)

    counts = sensed_class_counts(scenario, positions).reshape(rounds * n, -1)
    sensed = counts.sum(axis=1)
    neg_kl = -_kl(local_distribution(counts, sensing.epsilon, sensed[:, None]), models.mixtures)
    sims = np.fromiter(map(math.exp, neg_kl.ravel().tolist()), float, neg_kl.size)
    if sims.size and not (sims.min() > 0.0 and sims.max() <= 1.0 + 1e-12):
        per_round = sims.reshape(rounds, -1)
        bad = ~((per_round.min(axis=1) > 0.0) & (per_round.max(axis=1) <= 1.0 + 1e-12))
        raise ValueError(f"round {bad.argmax() + 1}: similarity outside (0, 1]")
    etas = spectral_efficiencies(scenario, positions).take(models.edge_of_model, axis=-1)
    return list(map(RoundTerms, sims.reshape(rounds, n, m_count), etas,
                    (sensed * sensing.samples_per_target).reshape(rounds, n)))


def build_gain_graph(
    scenario: Scenario,
    t_gen: float,
    t_cons: float,
    residuals,
    sensing: SensingParams,
    coupled: bool,
    terms: RoundTerms | None = None,
) -> GainGraph:
    """Weight every (client, model) pair with its achievable gain.

    residuals is an (N, 2) array or list of client i's (bandwidth Hz,
    compute cycles/s) budget for the round. `terms` are the round's
    decision-free terms; by default `round_terms` of the scenario's
    positions, so a call without them is the one-round case. One
    `solve_edges` pass covers every edge; log1p runs on `math` over a flat
    list, as its scalar definition does, and the arithmetic around it in
    numpy. A pure function: identical inputs give identical graphs.
    """
    n = len(scenario.clients)
    if len(residuals) != n:
        raise DimensionMismatch("one residual pair per client required")
    budgets = np.asarray(residuals, dtype=float).reshape(n, 2)
    if terms is None:
        terms = round_terms(scenario, scenario.positions[None], sensing)[0]
    models = scenario.model_arrays()
    m_count = len(models.edge_of_model)

    values = np.empty((len(EDGE_FIELDS), n, m_count))
    values[:2] = budgets.T[:, :, None]
    values[2] = terms.etas
    values[3:6] = models.sizes
    values[6] = terms.w_cap[:, None]
    problems = EdgeArrays(
        values, models.vs, t_gen, t_cons, sensing.tau_s, sensing.sigma, sensing.rho, coupled
    )
    solutions = solve_edges(problems)
    log1p_w = np.fromiter(map(math.log1p, solutions[0].ravel().tolist()), float, n * m_count)
    weights = terms.similarities * log1p_w.reshape(n, m_count)
    return GainGraph(
        client_ids=[c.client_id for c in scenario.clients],
        model_ids=list(range(m_count)),
        weights=weights,
        etas=values[2],
        similarities=terms.similarities,
        solutions=solutions,
        problems=problems,
    )
