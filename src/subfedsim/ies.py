"""Incremental edge selection: reconstruction residuals, mask optimization, pacing."""

from __future__ import annotations

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


def mask_objective(mask: np.ndarray, recon: np.ndarray, lam: float,
                   gamma: float, anchor: np.ndarray) -> float:
    """sum S*(r - lambda) + (gamma/2) * sum (S - anchor)^2."""
    if recon.shape[0] != mask.shape[0] or anchor.shape[0] != mask.shape[0]:
        raise ValueError("mask, reconstruction and anchor must align")
    r = residuals(recon)
    return float(np.sum(mask * (r - lam)) + 0.5 * gamma * np.sum((mask - anchor) ** 2))


def mask_step(mask: np.ndarray, recon: np.ndarray, lam: float, gamma: float,
              anchor: np.ndarray, lr_mask: float, n_steps: int) -> np.ndarray:
    """n_steps of clipped gradient descent on the mask objective; returns a new mask."""
    if lr_mask <= 0:
        raise ValueError("lr_mask must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    r_lam = residuals(recon)
    r_lam -= lam
    w = mask.copy()
    step = np.empty_like(w)
    for _ in range(n_steps):
        # w <- clip(w - lr * ((r - lam) + gamma * (w - anchor)), 0, 1), in place
        np.subtract(w, anchor, out=step)
        step *= gamma
        step += r_lam
        step *= lr_mask
        w -= step
        w.clip(0.0, 1.0, out=w)
    return w


def model_reconstruction(params: gcn.GcnParams, norm_adj, g: Graph,
                         use_logits: bool = False) -> np.ndarray:
    """Reconstruct g's edges from the model's hidden embeddings (or its logits)."""
    emb = gcn.forward(params, norm_adj, g.features)
    return reconstruct(emb.H2 if use_logits else emb.H1, g.edges)


def warmup_mask(g: Graph, pretrained: gcn.GcnParams, lam: float, gamma: float,
                lr_mask: float, warm_steps: int, init_value: float = 0.5,
                use_logits: bool = False) -> np.ndarray:
    """Initialize a uniform mask and pre-shape it with a pretrained model's reconstruction."""
    mask = np.full(g.num_edges, float(init_value))
    if warm_steps == 0:
        return mask
    adj = gcn.normalize_masked_adjacency(g.edges, mask, g.num_nodes)
    recon = model_reconstruction(pretrained, adj, g, use_logits)
    return mask_step(mask, recon, lam, gamma, mask, lr_mask, warm_steps)
