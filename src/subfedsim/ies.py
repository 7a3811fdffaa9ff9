"""Incremental edge selection: reconstruction residuals, mask optimization, pacing."""

from __future__ import annotations

import math

import numpy as np

from . import gcn
from .graphs import Graph


def g_lambda(zeta: float, rounds: int, t: int) -> float:
    """Curriculum threshold min(zeta*t/R, 1), with R = max(rounds, 1)."""
    if t < 0:
        raise ValueError("round index must be nonnegative")
    return min(zeta * t / max(rounds, 1), 1.0)


_RECON_BLOCK = 256  # edges per gather; two (256, hidden) blocks stay in cache


def reconstruct(embeddings: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Per-edge cosine similarity of endpoint embeddings; zero vectors give 0."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size == 0:
        return np.zeros(0)
    H = np.ascontiguousarray(embeddings)
    norms = np.sqrt(np.add.reduce(H * H, axis=1))  # np.linalg.norm(H, axis=1) for real H
    denom = norms[edges[:, 0]] * norms[edges[:, 1]]
    B = _RECON_BLOCK
    dots = np.empty(edges.shape[0])
    for lo in range(0, edges.shape[0], B):
        np.einsum("ij,ij->i", H[edges[lo:lo + B, 0]], H[edges[lo:lo + B, 1]],
                  out=dots[lo:lo + B])
    out = np.zeros(edges.shape[0])
    np.divide(dots, denom, out=out, where=denom > 0)
    return out.clip(-1.0, 1.0, out=out)


def residuals(recon: np.ndarray) -> np.ndarray:
    """Edge difficulty |1 - cos|; the adjacency entry on a listed edge is 1."""
    return np.abs(1.0 - recon)


def mask_step(mask: np.ndarray, recon: np.ndarray, lam: float, gamma: float,
              lr_mask: float, n_steps: int) -> np.ndarray:
    """n_steps of clipped gradient descent on the mask objective, solved exactly.

    The objective sum w*(r - lam) + (gamma/2) * sum (w - w0)^2 is anchored at
    the mask w0 that enters the call. Each step is
    w <- clip(w - lr*((r - lam) + gamma*(w - w0)), 0, 1). While
    0 <= lr*gamma <= 1 the unclipped iterates move monotonically toward
    w0 - (r - lam)/gamma, so for a mask in [0, 1] clipping once equals clipping
    every step, and the n steps give

        clip(w0 + k*(lam - r), 0, 1),
        k = (1 - (1 - lr*gamma)^n) / gamma   (k = n*lr when lr*gamma == 0).

    Costs O(E) whatever n_steps is; returns a new mask and leaves `mask` as it is.
    lam - r, not w0 - k*(r - lam), keeps a -0.0 weight with r == lam at +0.0.

    k ~ n*lr: at the defaults (10 steps, gamma = 1e-3) k = 0.005 on clients
    (`ies.lr_train` = 5e-4) and 1e-4 on the reference graph (`ies.lr_aggr` = 1e-5).
    """
    if lr_mask <= 0:
        raise ValueError("lr_mask must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    decay = lr_mask * gamma
    if not 0.0 <= decay <= 1.0:
        raise ValueError(f"lr_mask * gamma must lie in [0, 1], got {decay}")
    if mask.size and not (0.0 <= mask.min() and mask.max() <= 1.0):
        raise ValueError("mask weights must lie in [0, 1]")
    if decay == 0.0:  # gamma == 0, or a product that underflows
        k = n_steps * lr_mask
    elif decay == 1.0:  # the first step lands on the fixed point
        k = 1.0 / gamma
    else:
        k = -math.expm1(n_steps * math.log1p(-decay)) / gamma
    w = np.subtract(lam, residuals(recon))
    w *= k
    w += mask
    return w.clip(0.0, 1.0, out=w)


def model_reconstruction(params: gcn.GcnParams, norm_adj, g: Graph, use_logits: bool = False,
                         AX: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct g's edges from the model's hidden embeddings (or its logits).

    `AX`, when given, is `norm_adj @ g.features`, passed on to `gcn.forward`.
    """
    emb = gcn.forward(params, norm_adj, g.features, AX)
    return reconstruct(emb.H2 if use_logits else emb.H1, g.edges)


def warmup_mask(g: Graph, mask: np.ndarray, pretrained: gcn.GcnParams, lam: float,
                gamma: float, lr_mask: float, warm_steps: int,
                use_logits: bool = False) -> np.ndarray:
    """Pre-shape g's initial mask with a pretrained model's reconstruction.

    Returns `mask` itself when warm_steps is 0, else a new mask.
    """
    if warm_steps == 0:
        return mask
    recon = model_reconstruction(pretrained, g.adjacency.normalized(mask), g, use_logits)
    return mask_step(mask, recon, lam, gamma, lr_mask, warm_steps)
