"""Two-layer GCN with analytic gradients, proximal cross-entropy loss and Adam."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _scipy_file(relpath: str) -> str | None:
    """The path of the file `relpath` in the `scipy` package, or None.

    The package directory comes from the import system's spec of `scipy`,
    which runs no scipy code.
    """
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        path = os.path.join(root, relpath)
        if os.path.isfile(path):
            return path
    return None


def _load_csr_matvecs():
    """scipy's compiled CSR x dense kernel, the one `csr_matrix @ ndarray` calls.

    The extension `scipy/sparse/_sparsetools` is loaded on its own: importing
    `scipy.sparse` costs ~22 MB of memory, the extension ~1 MB. Only where
    no such file exists is it imported the usual way. Where that private
    module cannot be imported either, the product goes through the public
    `scipy.sparse.csr_matrix(...) @ x`, which runs the same kernel.
    """
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = _scipy_file(os.path.join("sparse", "_sparsetools" + suffix))
        if path:
            return _load_file("scipy.sparse._sparsetools", path).csr_matvecs
    try:
        from scipy.sparse._sparsetools import csr_matvecs
    except ImportError:
        from scipy.sparse import csr_matrix

        def csr_matvecs(M, N, n_vecs, indptr, indices, data, x, out):
            out[:] = (csr_matrix((data, indices, indptr), (M, N))
                      @ x.reshape(N, n_vecs)).ravel()
    return csr_matvecs


def _load_file(name: str, path: str):
    """The module `name` from the source or extension file `path`, left out of
    `sys.modules`.

    Loading an extension registers it under `name`. Without its parent
    package there, a later `import scipy.sparse` would find it and not set
    the package's `_sparsetools` attribute, so an entry this call made is
    removed.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


_csr_matvecs = _load_csr_matvecs()


def scipy_version() -> str:
    """The installed scipy's version, read from `scipy/version.py` on its own.

    Importing scipy would add ~1.1 MB to a run's peak memory. Only where
    that file is missing is scipy imported for its `__version__`.
    """
    path = _scipy_file("version.py")
    if path:
        return _load_file("scipy.version", path).version
    import scipy
    return scipy.__version__


class CsrMatrix:
    """A float64 matrix in CSR form: `data`, int32 `indices` and `indptr`, `shape`.

    `A @ x` multiplies a dense 2-D array with scipy's `csr_matvecs` into a
    zeroed C-contiguous output, as `scipy.sparse.csr_matrix @ x` does, so the
    bytes are the same.
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                 shape: tuple):
        self.data, self.indices, self.indptr, self.shape = data, indices, indptr, shape

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        np.add.at(out, (rows, self.indices), self.data)
        return out

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        M, N = self.shape
        if x.ndim != 2 or x.shape[0] != N:
            raise ValueError(f"cannot multiply a {M}x{N} matrix by an array of shape {x.shape}")
        out = np.zeros((M, x.shape[1]))
        _csr_matvecs(M, N, x.shape[1], self.indptr, self.indices, self.data, x.ravel(),
                     out.ravel())
        return out


class GcnParams:
    """GCN weights held in one float64 vector `flat`; W1, b1, W2, b2 are views into it.

    A model is a value: `adam_step` and `weighted_sum` return a fresh read-only
    `flat`, so every view is read-only too, and stages share models rather
    than copy them.
    """

    _NAMES = ("W1", "b1", "W2", "b2")

    def __init__(self, W1, b1, W2, b2):
        tensors = [np.asarray(t, dtype=np.float64) for t in (W1, b1, W2, b2)]
        offsets = np.cumsum([0] + [t.size for t in tensors]).tolist()
        layout = tuple(zip(self._NAMES, offsets, offsets[1:], (t.shape for t in tensors)))
        self._bind(np.concatenate([t.ravel() for t in tensors]), layout)

    def _bind(self, flat: np.ndarray, layout: tuple):
        self.flat = flat
        self._layout = layout
        for name, lo, hi, shape in layout:
            setattr(self, name, flat[lo:hi].reshape(shape))

    def like(self, flat: np.ndarray) -> "GcnParams":
        """Parameters with this layout whose tensors are views into `flat`."""
        out = GcnParams.__new__(GcnParams)
        out._bind(flat, self._layout)
        return out

    def tensors(self):
        return tuple((name, getattr(self, name)) for name in self._NAMES)

    def nonfinite_tensor(self) -> str | None:
        """Name of the first tensor holding a NaN or inf, or None."""
        if np.isfinite(self.flat).all():
            return None
        return next(n for n, t in self.tensors() if not np.all(np.isfinite(t)))

    def sq_distance(self, other: "GcnParams") -> float:
        return float(np.sum((self.flat - other.flat) ** 2))


def weighted_sum(weights, params: list) -> GcnParams:
    """sum_k weights[k] * params[k], accumulated in list order; read-only."""
    acc = np.zeros_like(params[0].flat)
    for w, p in zip(weights, params):
        acc += w * p.flat
    acc.flags.writeable = False
    return params[0].like(acc)


@dataclass
class Embeddings:
    H1: np.ndarray  # (n, hidden) post-ReLU
    H2: np.ndarray  # (n, num_classes) logits
    AX: np.ndarray  # (n, d_x) propagated features, the input of W1


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decay rates, offset


@dataclass
class AdamState:
    m: np.ndarray  # first moment, laid out as GcnParams.flat
    v: np.ndarray  # second moment, likewise
    step: int = 0


def init_params(d_x: int, hidden: int, num_classes: int, seed: int) -> GcnParams:
    """Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (d_x + hidden))
    lim2 = np.sqrt(6.0 / (hidden + num_classes))
    return GcnParams(
        W1=rng.uniform(-lim1, lim1, size=(d_x, hidden)),
        b1=np.zeros(hidden),
        W2=rng.uniform(-lim2, lim2, size=(hidden, num_classes)),
        b2=np.zeros(num_classes),
    )


def init_adam(params: GcnParams) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


class Adjacency:
    """Normalized adjacencies D^{-1/2} (S*A + I) D^{-1/2} of one fixed edge list.

    The sorted CSR pattern of A + I and the slots each edge weight fills are
    built once; `normalized` only refills values. The arithmetic is that of
    the sparse product D @ A @ D, so results are bit-identical to it. The
    pattern's `indices` and `indptr` are read-only and shared by every result
    that drops no entry.
    """

    def __init__(self, edges: np.ndarray, num_nodes: int):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        E, n = edges.shape[0], int(num_nodes)
        if E and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("adjacency edge endpoint out of range")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("adjacency edges must not contain self-loops")
        diag = np.arange(n)
        rows = np.concatenate([edges[:, 0], edges[:, 1], diag])
        cols = np.concatenate([edges[:, 1], edges[:, 0], diag])
        # slot[i] is where entry i of (rows, cols) lands in the row-major order:
        # its place among the keys row * n + col (int64 for n < 3e9) sorted.
        # Equal neighbours there are duplicate edges; without them the keys
        # are distinct, so the order is that of a sort by row, then column.
        key = rows * n + cols
        order = np.argsort(key)
        key = key[order]
        if np.any(key[1:] == key[:-1]):
            raise ValueError("adjacency edges must not contain duplicates")
        slot = np.empty_like(order)
        slot[order] = np.arange(order.size)
        self.num_edges = E
        self.shape = (n, n)
        self._row = rows[order]
        self.indptr = np.searchsorted(self._row, np.arange(n + 1)).astype(np.int32)
        self.indices = cols[order].astype(np.int32)
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        self._fwd, self._bwd, self._diag = slot[:E], slot[E:2 * E], slot[2 * E:]

    def normalized(self, mask_weights: np.ndarray) -> CsrMatrix:
        """The normalized adjacency with edge weights `mask_weights`."""
        w = np.asarray(mask_weights, dtype=np.float64)
        if w.shape[0] != self.num_edges:
            raise ValueError("mask_weights must align with the edge list")
        if w.size and not (0.0 <= w.min() and w.max() < np.inf):  # NaN fails both
            bad = w.size - np.count_nonzero(np.isfinite(w))
            if bad:
                raise ValueError(f"{bad} of {w.size} mask weights are non-finite")
            raise ValueError("mask weights must be nonnegative")
        vals = np.empty(self.indices.size)
        vals[self._fwd] = w
        vals[self._bwd] = w
        vals[self._diag] = 1.0
        deg = np.add.reduceat(vals, self.indptr[:-1])  # A.sum(axis=1); no row is empty
        dinv = 1.0 / np.sqrt(deg)
        data = (dinv[self._row] * vals) * dinv[self.indices]
        keep = data != 0  # the sparse product drops zero products, as eliminate_zeros does
        if keep.all():
            return CsrMatrix(data, self.indices, self.indptr, self.shape)
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int32)
        np.cumsum(np.bincount(self._row[keep], minlength=self.shape[0]), out=indptr[1:])
        return CsrMatrix(data[keep], self.indices[keep], indptr, self.shape)

    @cached_property
    def unmasked(self) -> CsrMatrix:
        """The all-ones normalized adjacency, computed once; its arrays are read-only."""
        adj = self.normalized(np.ones(self.num_edges))
        for a in (adj.data, adj.indices, adj.indptr):
            a.flags.writeable = False
        return adj


def normalize_masked_adjacency(edges: np.ndarray, mask_weights: np.ndarray,
                               num_nodes: int) -> CsrMatrix:
    """Symmetric normalization D^{-1/2} (S*A + I) D^{-1/2} over mask-weighted edges.

    No run calls it. It stays because BENCHMARK.json declares per-layer metrics for it
    (ROADMAP item 1), which tests/test_benchmark_hooks.py requires.
    """
    return Adjacency(edges, num_nodes).normalized(mask_weights)


def forward(params: GcnParams, norm_adj: CsrMatrix, features: np.ndarray,
            AX: np.ndarray | None = None) -> Embeddings:
    """H1 = ReLU((A X) W1 + b1); logits H2 = A (H1 W2) + b2.

    `AX`, when given, is `norm_adj @ features` computed by the caller and is
    used as it is. Each sparse product runs on the narrower side (d_x, then
    num_classes columns). This is the only forward pass: `loss_and_grads`
    back-propagates through it, so the trained model is the evaluated model.
    """
    if features.shape[1] != params.W1.shape[0]:
        raise ValueError("feature dimension does not match W1")
    if AX is None:
        AX = norm_adj @ features
    H1 = AX @ params.W1
    H1 += params.b1
    np.maximum(H1, 0.0, out=H1)
    H2 = norm_adj @ (H1 @ params.W2)
    H2 += params.b2
    return Embeddings(H1=H1, H2=H2, AX=AX)


def loss_and_grads(params: GcnParams, norm_adj: CsrMatrix, features: np.ndarray,
                   labels: np.ndarray, train_mask: np.ndarray,
                   anchor: GcnParams, beta: float, AX: np.ndarray | None = None):
    """Mean train cross-entropy plus (beta/2)||params - anchor||^2, with exact gradients.

    `AX` is passed to `forward` as it is.
    """
    train_mask = np.asarray(train_mask, dtype=bool)
    n_train = int(np.count_nonzero(train_mask))
    if n_train == 0:
        raise ValueError("loss requires at least one train node")
    emb = forward(params, norm_adj, features, AX)
    idx = np.flatnonzero(train_mask)
    logp = emb.H2 - emb.H2.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    ce = -(float(logp[idx, labels[idx]].sum()) / n_train)  # the mean, as np.mean divides
    # at beta = 0 the distance is not computed, but the zero term is still added:
    # it turns a -0.0 cross-entropy (every train node saturated) into 0.0
    loss = ce + 0.5 * beta * (params.sq_distance(anchor) if beta else 0.0)

    dZ2 = np.zeros_like(emb.H2)
    dZ2[idx] = np.exp(logp[idx])  # softmax
    dZ2[idx, labels[idx]] -= 1.0
    dZ2 /= n_train
    AdZ2 = norm_adj @ dZ2  # norm_adj is symmetric, so this is A^T dZ2
    grads = params.like(beta * (params.flat - anchor.flat))
    grads.W2 += emb.H1.T @ AdZ2
    grads.b2 += dZ2.sum(axis=0)
    dZ1 = AdZ2 @ params.W2.T
    dZ1 *= emb.H1 > 0
    grads.W1 += emb.AX.T @ dZ1
    grads.b1 += dZ1.sum(axis=0)
    return loss, grads


def adam_step(params: GcnParams, grads: GcnParams, state: AdamState, lr: float):
    """Bias-corrected Adam update; returns (new_params, new_state), new_params read-only."""
    name = grads.nonfinite_tensor()
    if name is not None:
        raise ValueError(f"non-finite gradient in tensor {name}")
    t = state.step + 1
    g = grads.flat
    # the former expressions, evaluated in the same order into four buffers:
    # m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
    # new = p - (lr*(m/(1-b1^t))) / (sqrt(v/(1-b2^t)) + eps)
    tmp = np.multiply(g, 1 - ADAM_BETA1)
    m = np.multiply(state.m, ADAM_BETA1)
    m += tmp
    np.multiply(g, 1 - ADAM_BETA2, out=tmp)
    tmp *= g
    v = np.multiply(state.v, ADAM_BETA2)
    v += tmp
    np.divide(v, 1 - ADAM_BETA2 ** t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    new_p = np.divide(m, 1 - ADAM_BETA1 ** t)
    new_p *= lr
    new_p /= tmp
    np.subtract(params.flat, new_p, out=new_p)
    new_p.flags.writeable = False
    return params.like(new_p), AdamState(m=m, v=v, step=t)


def accuracy(emb: Embeddings, labels: np.ndarray, mask: np.ndarray) -> float:
    """Argmax accuracy over the masked nodes; argmax ties break to smallest class.

    No run calls it. It stays because BENCHMARK.json declares per-layer metrics for it
    (ROADMAP item 1), which tests/test_benchmark_hooks.py requires.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("accuracy over an empty split is undefined")
    pred = np.argmax(emb.H2[mask], axis=1)
    return float(np.mean(pred == labels[mask]))

