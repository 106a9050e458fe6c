"""HDMI-style multiplex infomax embedding [24], reimplemented.

Jing et al. (WWW'21) train per-view GCN encoders with (high-order) mutual-
information objectives and fuse the views.  Our reconstruction keeps the
family's core recipe on the numpy ``nn`` substrate:

* a one-layer GCN encoder per graph view;
* a Deep-Graph-Infomax discriminator: embeddings of the *real* features
  score high against the view's mean-readout summary, embeddings of
  *corrupted* (row-shuffled) features score low, via a bilinear critic
  trained jointly (binary cross-entropy);
* fusion by averaging the per-view embeddings (the original's attention
  reduces to this under uniform weights).

The readout summary is treated as a constant within each step (the usual
stop-gradient simplification).  Like O2MAC, this stands in for the GPU
infomax family (HDMI / URAMN / DMG) per DESIGN.md §5.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import feature_matrix
from repro.core.mvag import MVAG
from repro.neighbors import normalize_rows
from repro.nn.activations import relu, relu_backward, sigmoid
from repro.nn.autoencoder import renormalized_adjacency
from repro.nn.layers import GCNLayer
from repro.nn.optimizers import Adam
from repro.utils.errors import ValidationError
from repro.utils.random import check_random_state

_NODE_LIMIT = 30000


class _ViewInfomax:
    """One view's GCN encoder + bilinear DGI critic."""

    def __init__(self, in_dim: int, out_dim: int, seed=0) -> None:
        self.encoder = GCNLayer(in_dim, out_dim, seed=seed)
        rng = check_random_state((seed or 0) + 7)
        limit = np.sqrt(6.0 / (2 * out_dim))
        self.critic = rng.uniform(-limit, limit, size=(out_dim, out_dim))
        self._critic_grad = np.zeros_like(self.critic)

    def _encode(self, a_hat, features):
        pre = self.encoder.forward(a_hat, features)
        return pre, relu(pre)

    def train_step(self, a_hat, features, corrupted, lr_critic=1e-2):
        """One infomax step; returns the loss.

        Positive pairs: (embedding of real features, summary); negative
        pairs: (embedding of corrupted features, same summary).  The
        summary is the sigmoid of the mean embedding, held constant
        (stop-gradient) when differentiating.
        """
        pre_pos, h_pos = self._encode(a_hat, features)
        summary = sigmoid(h_pos.mean(axis=0))

        scores_pos = sigmoid(h_pos @ self.critic @ summary)
        grad_logit_pos = -(1.0 - scores_pos) / h_pos.shape[0]

        pre_neg, h_neg = self._encode(a_hat, corrupted)
        scores_neg = sigmoid(h_neg @ self.critic @ summary)
        grad_logit_neg = scores_neg / h_neg.shape[0]

        loss = float(
            -np.log(np.clip(scores_pos, 1e-10, None)).mean()
            - np.log(np.clip(1.0 - scores_neg, 1e-10, None)).mean()
        )

        # Critic gradient: logit = h^T W s  =>  dW = sum grad * outer(h, s).
        self._critic_grad[...] = (
            (h_pos * grad_logit_pos[:, None]).T.sum(axis=1)[:, None]
            * summary[None, :]
        )
        self._critic_grad += (
            (h_neg * grad_logit_neg[:, None]).T.sum(axis=1)[:, None]
            * summary[None, :]
        )

        # Encoder gradient through both passes (critic held fixed).
        direction = self.critic @ summary
        self.encoder.zero_grad()
        self.encoder.forward(a_hat, features)  # refresh cache (pos pass)
        self.encoder.backward(
            relu_backward(grad_logit_pos[:, None] * direction[None, :], pre_pos)
        )
        self.encoder.forward(a_hat, corrupted)  # neg pass
        self.encoder.backward(
            relu_backward(grad_logit_neg[:, None] * direction[None, :], pre_neg)
        )
        self.critic -= lr_critic * self._critic_grad
        return loss

    def embed(self, a_hat, features) -> np.ndarray:
        """Final (post-activation) view embedding."""
        _, h = self._encode(a_hat, features)
        return h


def hdmi_embedding(
    mvag: MVAG,
    dim: int = 64,
    epochs: int = 40,
    lr: float = 5e-3,
    target_dim: int = 128,
    seed=0,
) -> np.ndarray:
    """HDMI-style multi-view infomax node embedding.

    Parameters
    ----------
    dim:
        Output dimensionality (per-view encoders share it; fused by mean).
    epochs:
        Full-batch training epochs per view.
    """
    if mvag.n_nodes > _NODE_LIMIT:
        raise MemoryError(
            f"HDMI-style training is capped at {_NODE_LIMIT} nodes "
            "(matches the paper's OOM rows)"
        )
    if mvag.n_graph_views == 0:
        raise ValidationError("HDMI requires at least one graph view")
    rng = check_random_state(seed)
    features = feature_matrix(mvag, target_dim=target_dim, seed=seed)
    out_dim = min(dim, features.shape[1])

    fused = np.zeros((mvag.n_nodes, out_dim))
    for index, adjacency in enumerate(mvag.graph_views):
        a_hat = renormalized_adjacency(adjacency)
        view = _ViewInfomax(features.shape[1], out_dim, seed=(seed or 0) + index)
        optimizer = Adam([view.encoder], lr=lr)
        for _ in range(epochs):
            corrupted = features[rng.permutation(features.shape[0])]
            optimizer.zero_grad()
            view.train_step(a_hat, features, corrupted)
            optimizer.step()
        fused += view.embed(a_hat, features)
    fused /= mvag.n_graph_views
    if fused.shape[1] < dim:
        fused = np.hstack(
            [fused, np.zeros((mvag.n_nodes, dim - fused.shape[1]))]
        )
    return normalize_rows(fused)
