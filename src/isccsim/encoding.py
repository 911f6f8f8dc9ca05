"""Fixed-layout state vector for the learned policy.

Layout: for each client a block of (freq residual fraction, comp residual
fraction, x, y, per-model spectral efficiency), then all client-model gain
weights. Length N*(2+2+M) + N*M. Every feature is normalized into [0, 1]
by the episode's `EncodingNorms`, which a saved policy records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gain import GainGraph
from .network import ChannelParams, Scenario


class LayoutMismatch(ValueError):
    pass


@dataclass(frozen=True)
class EncodingNorms:
    eta_norm: float
    gain_norm: float

    def to_dict(self) -> dict:
        return {"eta_norm": self.eta_norm, "gain_norm": self.gain_norm}


def layout_length(num_clients: int, num_models: int) -> int:
    return num_clients * (2 + 2 + num_models) + num_clients * num_models


def default_norms(
    channel: ChannelParams, max_targets: int, samples_per_target: int
) -> EncodingNorms:
    """Feature ceilings: spectral efficiency at the clamp distance and gain
    at perfect similarity over every sensable sample."""
    snr_max = (
        channel.tx_power_w
        * channel.reference_gain
        * channel.min_distance_m ** (-channel.path_loss_exp)
        / channel.noise_power_w
    )
    eta_norm = math.log2(1.0 + snr_max)
    gain_norm = math.log1p(max(1, max_targets * samples_per_target))
    return EncodingNorms(eta_norm=eta_norm, gain_norm=gain_norm)


def encode_state(
    scenario: Scenario,
    residual_fractions: list[tuple[float, float]],
    graph: GainGraph,
    norms: EncodingNorms,
) -> np.ndarray:
    """Pure function of (scenario, residuals, graph)."""
    n = len(scenario.clients)
    m = len(graph.model_ids)
    if len(residual_fractions) != n or len(graph.client_ids) != n:
        raise LayoutMismatch("client count changed mid-episode")
    if graph.etas.shape != (n, m):
        raise LayoutMismatch("model count changed mid-episode")
    positions = np.array([c.position for c in scenario.clients], dtype=float).reshape(n, 2)
    blocks = np.concatenate(
        [
            np.array(residual_fractions, dtype=float).reshape(n, 2),
            positions / scenario.area_m,
            graph.etas / norms.eta_norm,
        ],
        axis=1,
    )
    weights = graph.weights / norms.gain_norm
    vector = np.concatenate([blocks.reshape(-1), weights.reshape(-1)])
    if not np.all(np.isfinite(vector)):
        raise ValueError("non-finite state feature")
    return vector
