"""Server stage: reference-graph indicators, linear CKA, weighted aggregation, adaptive tau."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gcn, ies
from .config import FedSpec
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

    Returns (stepped mask, indicator, reconstruction) and writes nothing. The
    reconstruction is the model's cosine per reference edge under the mask that
    entered the call, the one the step used. A step sets w to
    clip(w + k*(lam - r), 0, 1) (`ies.mask_step`), k ~ n_steps*lr_aggr: 1e-4 at
    the defaults, against 0.005 for the clients' own masks. lam is the same for
    every edge, so while no weight clips the mask is init - k*sum_t(r_t - lam_t)
    and the indicator keeps the edges of lowest cumulative residual, whatever lam is.
    """
    recon = ies.model_reconstruction(client_params, ref.adjacency.normalized(mask),
                                     ref, use_logits)
    mask = ies.mask_step(mask, recon, lam, gamma, lr_aggr, n_steps)
    return mask, ext_vectorize(mask, prune_frac), recon


def _cka(u: np.ndarray, v: np.ndarray, uu: float, vv: float) -> float:
    """Linear CKA of the 1-D float64 u and v, given uu = u @ u and vv = v @ v."""
    if u.shape != v.shape:
        raise ValueError("indicators must have equal length")
    if uu == 0.0 or vv == 0.0:
        raise ValueError("linear CKA is undefined for a zero vector")
    uv = float(u @ v)
    return (uv * uv) / (uu * vv)


def linear_cka(u: np.ndarray, v: np.ndarray) -> float:
    """Linear CKA of two indicator vectors: squared cosine of their angle."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    return _cka(u, v, float(u @ u), float(v @ v))


def similarity_matrix(indicators: list) -> np.ndarray:
    """Pairwise linear CKA; symmetric with unit diagonal.

    Each entry equals `linear_cka` of its pair bit for bit; each u @ u is
    computed once, not once per pair.
    """
    vecs = [np.asarray(u, dtype=np.float64).ravel() for u in indicators]
    sq = [float(u @ u) for u in vecs]
    K = len(vecs)
    sim = np.eye(K)
    for k in range(K):
        for n in range(k + 1, K):
            try:
                s = _cka(vecs[k], vecs[n], sq[k], sq[n])
            except ValueError as exc:
                raise ValueError(f"similarity failed for clients {k},{n}: {exc}") from exc
            sim[k, n] = sim[n, k] = s
    return sim


def softmax_weights(sim_row: np.ndarray, tau: float) -> np.ndarray:
    """softmax(tau * sim_row): one client's aggregation weights."""
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    z = tau * np.asarray(sim_row, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def aggregate(alpha: np.ndarray, all_params: list) -> list:
    """Every client's personalized model: row k of alpha mixes all_params for client k.

    Each model is checked for NaN and inf once, however many rows mix it.
    """
    for cid, p in enumerate(all_params):
        name = p.nonfinite_tensor()
        if name is not None:
            raise ValueError(f"non-finite parameter {name} from client {cid}")
    # a loop in client order, not alpha @ P: the matmul rounds differently
    return [gcn.weighted_sum(row, all_params) for row in alpha]


@dataclass
class TauState:
    """Greedy per-client temperature scheduler state; its constants are a FedSpec's."""

    tau: float = 5.0
    s: int = 1
    r_good: int = 0
    r_bad: int = 0
    last_perf: float = -math.inf


def tau_step(state: TauState, perf: float, fed: FedSpec) -> TauState:
    """One scheduler update from the current round's performance signal, with
    fed's tau_patience, tau_rho, tau_min and tau_max."""
    if not math.isfinite(perf):
        raise ValueError("performance signal must be finite")
    st = TauState(**vars(state))
    if perf >= st.last_perf:
        st.r_good += 1
        st.r_bad = 0
    else:
        st.r_bad += 1
        st.r_good = 0
    if st.r_good > fed.tau_patience:
        tau = fed.tau_rho ** st.s * st.tau
        st.r_good = 0
    elif st.r_bad > fed.tau_patience:
        st.s = -st.s
        tau = fed.tau_rho ** st.s * st.tau
        st.r_bad = 0
    else:
        tau = st.tau
    st.tau = min(max(tau, fed.tau_min), fed.tau_max)
    st.last_perf = perf
    return st
