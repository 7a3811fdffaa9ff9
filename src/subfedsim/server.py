"""Server stage: reference-graph indicators, linear CKA, weighted aggregation, adaptive tau."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gcn, ies
from .graphs import Graph


def ext_vectorize(mask: np.ndarray, prune_frac: float) -> np.ndarray:
    """Copy the mask weights and zero the lowest prune_frac fraction.

    Ties break toward lower edge index, as in a stable ascending sort: the
    k-th smallest value is selected, every smaller value is zeroed, then the
    first k - #smaller values equal to it.
    """
    if not 0.0 <= prune_frac < 1.0:
        raise ValueError("prune_frac must lie in [0, 1)")
    u = np.array(mask, dtype=np.float64)
    n = u.shape[0]
    finite = np.isfinite(u)
    if not finite.all():
        raise ValueError(f"{n - np.count_nonzero(finite)} of {n} mask weights are non-finite")
    k = int(math.floor(prune_frac * n))
    if k > 0:
        kth = np.partition(u, k - 1)[k - 1]
        below = u < kth
        ties = np.flatnonzero(u == kth)[:k - np.count_nonzero(below)]
        u[below] = 0.0
        u[ties] = 0.0
    return u


def build_indicator(ref: Graph, client_params: gcn.GcnParams, mask: np.ndarray,
                    lam: float, gamma: float, lr_aggr: float, n_steps: int,
                    prune_frac: float = 0.3, use_logits: bool = False) -> tuple:
    """Step a client's reference mask (over ref.edges) with its model, then ext-vectorize.

    Returns (stepped mask, indicator) and writes nothing; with n_steps == 0 the
    stepped mask is `mask` itself. A step sets w to clip(w + k*(lam - r), 0, 1)
    (`ies.mask_step`), k ~ n_steps*lr_aggr: 1e-4 at the defaults, against 0.005
    for the clients' own masks. lam is the same for every edge, so while no
    weight clips the mask is init - k*sum_t(r_t - lam_t) and the indicator
    keeps the edges of lowest cumulative residual, whatever lam is.
    """
    if ref.features.shape[1] != client_params.W1.shape[0]:
        raise ValueError("client parameters do not match the reference graph features")
    if n_steps > 0:
        recon = ies.model_reconstruction(client_params, ref.adjacency.normalized(mask),
                                         ref, use_logits)
        mask = ies.mask_step(mask, recon, lam, gamma, lr_aggr, n_steps)
    return mask, ext_vectorize(mask, prune_frac)


def linear_cka(u: np.ndarray, v: np.ndarray) -> float:
    """Linear CKA of two indicator vectors: squared cosine of their angle."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise ValueError("indicators must have equal length")
    uu = float(u @ u)
    vv = float(v @ v)
    if uu == 0.0 or vv == 0.0:
        raise ValueError("linear CKA is undefined for a zero vector")
    uv = float(u @ v)
    return (uv * uv) / (uu * vv)


def similarity_matrix(indicators: list) -> np.ndarray:
    """Pairwise linear CKA; symmetric with unit diagonal."""
    K = len(indicators)
    sim = np.eye(K)
    for k in range(K):
        for n in range(k + 1, K):
            try:
                s = linear_cka(indicators[k], indicators[n])
            except ValueError as exc:
                raise ValueError(f"similarity failed for clients {k},{n}: {exc}") from exc
            sim[k, n] = sim[n, k] = s
    return sim


def softmax_weights(sim_row: np.ndarray, tau: float) -> np.ndarray:
    z = tau * np.asarray(sim_row, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def aggregate(sim_row: np.ndarray, tau: float, all_params: list) -> gcn.GcnParams:
    """Personalized parameter mixture weighted by softmax(tau * similarity)."""
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    for cid, p in enumerate(all_params):
        name = p.nonfinite_tensor()
        if name is not None:
            raise ValueError(f"non-finite parameter {name} from client {cid}")
    # a loop in client order, not alpha @ P: the matmul rounds differently
    return gcn.weighted_sum(softmax_weights(sim_row, tau), all_params)


@dataclass
class TauState:
    """Greedy per-client temperature scheduler state."""

    tau: float = 5.0
    s: int = 1
    r_good: int = 0
    r_bad: int = 0
    patience: int = 5
    rho: float = 1.25
    tau_min: float = 3.0
    tau_max: float = 10.0
    last_perf: float = -math.inf


def tau_step(state: TauState, perf: float) -> TauState:
    """One scheduler update from the current round's performance signal."""
    if not math.isfinite(perf):
        raise ValueError("performance signal must be finite")
    st = TauState(**vars(state))
    if perf >= st.last_perf:
        st.r_good += 1
        st.r_bad = 0
    else:
        st.r_bad += 1
        st.r_good = 0
    if st.r_good > st.patience:
        tau = st.rho ** st.s * st.tau
        st.r_good = 0
    elif st.r_bad > st.patience:
        st.s = -st.s
        tau = st.rho ** st.s * st.tau
        st.r_bad = 0
    else:
        tau = st.tau
    st.tau = min(max(tau, st.tau_min), st.tau_max)
    st.last_perf = perf
    return st
