import importlib.util
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from subfedsim import gcn


def random_instance(seed, n=5, d_x=3, hidden=4, C=2, p_edge=0.5, masked=True):
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = np.array([e for e in pairs if rng.random() < p_edge],
                     dtype=np.int64).reshape(-1, 2)
    mask_w = rng.random(edges.shape[0])
    X = rng.standard_normal((n, d_x))
    y = rng.integers(0, C, size=n)
    train = rng.random(n) < 0.6
    if not train.any():
        train[0] = True
    params = gcn.init_params(d_x, hidden, C, seed)
    anchor = gcn.init_params(d_x, hidden, C, seed + 1)
    adj = gcn.normalize_masked_adjacency(edges, mask_w if masked else np.ones_like(mask_w), n)
    return params, adj, X, y, train, anchor


class TestNormalizeAdjacency:
    def test_isolated_node_self_loop(self):
        adj = gcn.normalize_masked_adjacency(np.zeros((0, 2)), np.zeros(0), 3)
        assert np.allclose(adj.toarray(), np.eye(3))

    def test_two_node_edge(self):
        adj = gcn.normalize_masked_adjacency(np.array([(0, 1)]), np.array([1.0]), 2)
        assert np.allclose(adj.toarray(), np.full((2, 2), 0.5))

    def test_zero_mask_is_identity(self):
        edges = np.array([(0, 1), (1, 2)])
        adj = gcn.normalize_masked_adjacency(edges, np.zeros(2), 3)
        assert np.allclose(adj.toarray(), np.eye(3))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        edges = np.array([(0, 1), (0, 2), (2, 3)])
        adj = gcn.normalize_masked_adjacency(edges, rng.random(3), 4)
        assert np.allclose(adj.toarray(), adj.toarray().T)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            gcn.normalize_masked_adjacency(np.array([(0, 1)]), np.array([-0.1]), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_weight_rejected(self, bad):
        adj = gcn.Adjacency(np.array([(0, 1), (1, 2)]), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a ValueError, not a RuntimeWarning
            with pytest.raises(ValueError, match="1 of 2 mask weights are non-finite"):
                adj.normalized(np.array([bad, 0.5]))
            with pytest.raises(ValueError, match="2 of 2 mask weights are non-finite"):
                adj.normalized(np.array([bad, np.nan]))


def reference_normalize(edges, mask_weights, num_nodes):
    """The COO build and sparse product D @ A @ D that `Adjacency` must reproduce."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    w = np.asarray(mask_weights, dtype=np.float64)
    rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(num_nodes)])
    cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(num_nodes)])
    vals = np.concatenate([w, w, np.ones(num_nodes)])
    A = sp.csr_matrix((vals, (rows, cols)), shape=(num_nodes, num_nodes))
    D = sp.diags(1.0 / np.sqrt(np.asarray(A.sum(axis=1)).ravel()))
    return (D @ A @ D).tocsr()


def reference_pattern(edges, n):
    """`Adjacency`'s indptr, indices, rows and slot maps by a two-key lexicographic sort."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    E = len(edges)
    rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(n)])
    cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(n)])
    order = np.lexsort((cols, rows))
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    indptr = np.searchsorted(rows[order], np.arange(n + 1)).astype(np.int32)
    return (indptr, cols[order].astype(np.int32), rows[order],
            slot[:E], slot[E:2 * E], slot[2 * E:])


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for x, y in ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestAdjacency:
    @pytest.fixture(scope="class")
    def graph(self):
        rng = np.random.default_rng(4)
        n = 60
        pairs = [(u, v) for u in range(n - 3) for v in range(u + 1, n - 3)]
        # the last three nodes stay isolated
        edges = np.array([e for e in pairs if rng.random() < 0.15])
        return edges, n

    @pytest.mark.parametrize("with_zeros", [False, True])
    def test_matches_reference_bytes(self, graph, with_zeros):
        edges, n = graph
        adj = gcn.Adjacency(edges, n)
        rng = np.random.default_rng(9)
        for _ in range(20):
            w = rng.random(len(edges))
            if with_zeros:
                w[rng.random(len(edges)) < 0.3] = 0.0
            assert_same_csr(adj.normalized(w), reference_normalize(edges, w, n))

    def test_unmasked_matches_reference_bytes(self, graph):
        """The all-ones case."""
        edges, n = graph
        assert_same_csr(gcn.Adjacency(edges, n).unmasked,
                        reference_normalize(edges, np.ones(len(edges)), n))

    def test_empty_edge_list(self):
        adj = gcn.Adjacency(np.zeros((0, 2)), 4)
        assert_same_csr(adj.normalized(np.zeros(0)),
                        reference_normalize(np.zeros((0, 2)), np.zeros(0), 4))

    def test_wrapper_matches_reference_bytes(self, graph):
        edges, n = graph
        w = np.random.default_rng(2).random(len(edges))
        assert_same_csr(gcn.normalize_masked_adjacency(edges, w, n),
                        reference_normalize(edges, w, n))

    @pytest.mark.parametrize("n, p, seed", [(1, 0.0, 0), (6, 0.0, 0), (2, 1.0, 0),
                                            (60, 0.15, 1), (300, 0.05, 2), (129, 0.6, 3)])
    def test_pattern_matches_lexsort_reference(self, n, p, seed):
        """Edges in random order and orientation, so the sort permutes them."""
        rng = np.random.default_rng(seed)
        iu = np.triu_indices(n, 1)
        edges = np.stack(iu, axis=1)[rng.random(iu[0].size) < p]
        edges = edges[rng.permutation(len(edges))]
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip, ::-1]
        adj = gcn.Adjacency(edges, n)
        want = reference_pattern(edges, n)
        got = (adj.indptr, adj.indices, adj._row, adj._fwd, adj._bwd, adj._diag)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("reverse", [False, True], ids=["same", "reversed"])
    def test_duplicate_edge_names_duplicates(self, graph, reverse):
        edges, n = graph
        dup = edges[len(edges) // 3][::-1] if reverse else edges[len(edges) // 3]
        for at in (0, len(edges) // 2, len(edges)):
            with pytest.raises(ValueError,
                               match="^adjacency edges must not contain duplicates$"):
                gcn.Adjacency(np.insert(edges, at, dup, axis=0), n)

    @pytest.mark.parametrize("edges", [[(0, 1), (0, 1)], [(0, 1), (1, 0)], [(1, 1)]])
    def test_duplicate_or_self_loop_rejected(self, edges):
        with pytest.raises(ValueError):
            gcn.Adjacency(np.array(edges), 3)

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError):
            gcn.Adjacency(np.array([(0, 3)]), 3)

    def test_unmasked_is_one_read_only_matrix(self, graph):
        adj = gcn.Adjacency(*graph)
        first = adj.unmasked
        assert adj.unmasked is first
        for a in (first.data, first.indices, first.indptr):
            with pytest.raises(ValueError):
                a[0] = 0


def random_csr(seed, M, N, density=0.2):
    """CSR arrays of a random M x N matrix whose rows are empty with probability 0.3."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((M, N)) * (rng.random((M, N)) < density)
    dense[rng.random(M) < 0.3] = 0.0
    ref = sp.csr_matrix(dense)
    assert np.diff(ref.indptr).min() == 0  # at least one empty row
    return ref.data, ref.indices.astype(np.int32), ref.indptr.astype(np.int32), (M, N)


class TestCsrMatrix:
    """The package's CSR type runs scipy's kernel and gives scipy's bytes."""

    @pytest.mark.parametrize("width", [1, 2, 16, 128])
    @pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
    def test_product_matches_scipy_bytes(self, width, layout):
        for seed in range(3):
            data, indices, indptr, shape = random_csr(seed, 37, 23)
            x = np.random.default_rng(seed + 10).standard_normal((shape[1], 2 * width))
            x = {"c": np.ascontiguousarray(x[:, :width]), "fortran": np.asfortranarray(
                x[:, :width]), "strided": x[:, ::2]}[layout]
            want = sp.csr_matrix((data, indices, indptr), shape) @ x
            got = gcn.CsrMatrix(data, indices, indptr, shape) @ x
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

    def test_fallback_loader_gives_the_same_bytes(self, monkeypatch):
        data, indices, indptr, shape = random_csr(3, 40, 40)
        x = np.random.default_rng(4).standard_normal((40, 16))
        want = gcn.CsrMatrix(data, indices, indptr, shape) @ x
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        kernel = gcn._load_csr_matvecs()
        assert kernel is sp._sparsetools.csr_matvecs
        monkeypatch.setattr(gcn, "_csr_matvecs", kernel)
        assert (gcn.CsrMatrix(data, indices, indptr, shape) @ x).tobytes() == want.tobytes()

    def test_public_fallback_gives_the_same_bytes(self, tmp_path):
        """Without the private module, products go through `csr_matrix @ x`."""
        cases = []
        for seed, width in ((3, 16), (7, 1), (8, 5)):
            data, indices, indptr, shape = random_csr(seed, 40, 30)
            x = np.random.default_rng(seed).standard_normal((30, 2 * width))[:, ::2]
            np.savez(tmp_path / f"case{seed}.npz", data=data, indices=indices,
                     indptr=indptr, x=x)
            cases.append((seed, (gcn.CsrMatrix(data, indices, indptr, shape) @ x).tobytes()))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = textwrap.dedent(f"""
            import importlib.util, sys
            import numpy as np
            import scipy.sparse
            sys.path.insert(0, {os.path.join(root, "src")!r})
            sys.modules["scipy.sparse._sparsetools"] = None  # neither importable
            importlib.util.find_spec = lambda name, package=None: None  # nor found as a file
            from subfedsim import gcn
            print(gcn._csr_matvecs.__qualname__)
            for seed in (3, 7, 8):
                c = np.load({str(tmp_path)!r} + f"/case{{seed}}.npz")
                a = gcn.CsrMatrix(c["data"], c["indices"], c["indptr"], (40, 30))
                print((a @ c["x"]).tobytes().hex())
        """)
        stdout = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=60, check=True).stdout.splitlines()
        assert stdout[0] == "_load_csr_matvecs.<locals>.csr_matvecs"
        assert stdout[1:] == [want.hex() for _, want in cases]

    def test_nnz_and_toarray(self):
        data, indices, indptr, shape = random_csr(5, 12, 9)
        a = gcn.CsrMatrix(data, indices, indptr, shape)
        assert a.nnz == data.size
        assert np.array_equal(a.toarray(), sp.csr_matrix((data, indices, indptr), shape).toarray())

    def test_shape_mismatch_rejected(self):
        a = gcn.CsrMatrix(*random_csr(6, 5, 4))
        for x in (np.zeros((5, 2)), np.zeros(4), np.zeros((4, 2, 1))):
            with pytest.raises(ValueError):
                a @ x

    @pytest.mark.parametrize("zero_share", [0.3, 1.0])
    def test_zero_weights_compress_as_eliminate_zeros(self, zero_share):
        """Dropping zeros equals scipy's in-place `eliminate_zeros` on the full pattern."""
        rng = np.random.default_rng(11)
        n = 30
        edges = np.array([(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.2])
        w = rng.random(len(edges))
        w[rng.random(len(edges)) < zero_share] = 0.0
        rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(n)])
        cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(n)])
        full = sp.csr_matrix((np.concatenate([w, w, np.ones(n)]), (rows, cols)), shape=(n, n))
        assert full.nnz == rows.size  # the zero weights are stored
        dinv = 1.0 / np.sqrt(np.add.reduceat(full.data, full.indptr[:-1]))
        row = np.repeat(np.arange(n), np.diff(full.indptr))
        full.data = (dinv[row] * full.data) * dinv[full.indices]
        full.eliminate_zeros()
        assert_same_csr(gcn.Adjacency(edges, n).normalized(w), full)


def test_a_run_loads_no_sparse_package_and_imports_nothing_new(tmp_path):
    """`scipy.sparse` stays out of the process, and a run imports no module lazily."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {os.path.join(root, "src")!r})
        import subfedsim.cli
        before = set(sys.modules)
        assert subfedsim.cli.main(["run", "--set", "rounds=2", "--set", "num_clients=2",
                                   "--out", {str(tmp_path / "run")!r}]) == 0
        print(sorted(set(sys.modules) - before), "scipy.sparse" in sys.modules)
        import scipy.sparse  # imported after the kernel, it still binds its own extension
        print(scipy.sparse._sparsetools.csr_matvecs is subfedsim.gcn._csr_matvecs)
    """)
    stdout = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120, check=True).stdout
    assert stdout.splitlines()[-2:] == ["[] False", "True"]


def test_kernel_loaded_after_scipy_sparse_keeps_its_registration():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {os.path.join(root, "src")!r})
        import scipy.sparse
        from subfedsim import gcn
        ext = sys.modules["scipy.sparse._sparsetools"]
        print(ext is scipy.sparse._sparsetools, gcn._csr_matvecs is ext.csr_matvecs)
    """)
    stdout = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60, check=True).stdout
    assert stdout.splitlines()[-1] == "True True"


class TestForward:
    def test_zero_features_zero_logits(self):
        params = gcn.init_params(3, 4, 2, seed=0)
        adj = gcn.normalize_masked_adjacency(np.array([(0, 1)]), np.ones(1), 2)
        emb = gcn.forward(params, adj, np.zeros((2, 3)))
        assert np.allclose(emb.H2, 0.0)

    def test_isolated_identity_passthrough(self):
        params = gcn.GcnParams(W1=np.eye(3), b1=np.zeros(3),
                               W2=np.zeros((3, 2)), b2=np.zeros(2))
        adj = gcn.normalize_masked_adjacency(np.zeros((0, 2)), np.zeros(0), 1)
        x = np.array([[0.3, 1.2, 0.0]])
        emb = gcn.forward(params, adj, x)
        assert np.allclose(emb.H1, x)

    def test_matches_dense_oracle(self):
        params, adj, X, _, _, _ = random_instance(7)
        A = adj.toarray()
        H1 = np.maximum(A @ X @ params.W1 + params.b1, 0.0)
        H2 = A @ H1 @ params.W2 + params.b2
        emb = gcn.forward(params, adj, X)
        assert np.allclose(emb.H1, H1, atol=1e-12)
        assert np.allclose(emb.H2, H2, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_layer_association_bytes(self, seed):
        # layer 1 propagates the d_x-wide features, layer 2 the num_classes-wide product
        params, adj, X, _, _, _ = random_instance(seed, n=40, d_x=16, hidden=128)
        emb = gcn.forward(params, adj, X)
        H1 = np.maximum((adj @ X) @ params.W1 + params.b1, 0.0)
        H2 = adj @ (H1 @ params.W2) + params.b2
        assert emb.H1.tobytes() == H1.tobytes()
        assert emb.H2.tobytes() == H2.tobytes()

    def test_shape_mismatch(self):
        params = gcn.init_params(3, 4, 2, seed=0)
        adj = sp.eye(2, format="csr")
        with pytest.raises(ValueError):
            gcn.forward(params, adj, np.zeros((2, 5)))

    @pytest.mark.parametrize("masked", [False, True])
    def test_supplied_ax_gives_the_same_bytes(self, masked):
        for seed in range(6):
            params, adj, X, _, _, _ = random_instance(seed, n=40, d_x=16, hidden=32,
                                                      masked=masked)
            AX = adj @ X
            AX.flags.writeable = False  # the cached A·X is read-only; forward reads it only
            want = gcn.forward(params, adj, X)
            got = gcn.forward(params, adj, X, AX)
            assert got.AX is AX
            for name in ("H1", "H2", "AX"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestLossAndGrads:
    def test_proximal_zero_at_anchor(self):
        params, adj, X, y, train, _ = random_instance(1)
        l0, g0 = gcn.loss_and_grads(params, adj, X, y, train, params, 0.0)
        l1, g1 = gcn.loss_and_grads(params, adj, X, y, train, params, 10.0)
        assert l0 == pytest.approx(l1, abs=1e-15)
        for (_, a), (_, b) in zip(g0.tensors(), g1.tensors()):
            assert np.allclose(a, b, atol=1e-15)

    def test_uniform_logits_give_ln_c(self):
        n, C = 4, 3
        params = gcn.GcnParams(W1=np.zeros((2, 4)), b1=np.zeros(4),
                               W2=np.zeros((4, C)), b2=np.zeros(C))
        adj = sp.eye(n, format="csr")
        loss, _ = gcn.loss_and_grads(params, adj, np.ones((n, 2)),
                                     np.zeros(n, dtype=int), np.ones(n, dtype=bool),
                                     params, 0.0)
        assert loss == pytest.approx(np.log(C), abs=1e-12)

    def test_no_train_nodes_rejected(self):
        params, adj, X, y, _, anchor = random_instance(2)
        with pytest.raises(ValueError):
            gcn.loss_and_grads(params, adj, X, y, np.zeros(5, dtype=bool), anchor, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_oracle(self, seed):
        params, adj, X, y, train, anchor = random_instance(seed, n=5, d_x=3,
                                                           hidden=4, C=2)
        beta = 0.01
        _, grads = gcn.loss_and_grads(params, adj, X, y, train, anchor, beta)
        h = 1e-5
        for name, t in params.tensors():
            g = dict(grads.tensors())[name]
            flat = t.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp, _ = gcn.loss_and_grads(params, adj, X, y, train, anchor, beta)
                flat[i] = orig - h
                lm, _ = gcn.loss_and_grads(params, adj, X, y, train, anchor, beta)
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(g.ravel()[i]), 1e-8)
                assert abs(g.ravel()[i] - fd) / denom < 1e-4, (name, i)


def reference_loss_and_grads(params, norm_adj, features, labels, train_mask, anchor, beta):
    """The former standalone kernel: its own forward pass, associated as (A H1) W2."""
    train_mask = np.asarray(train_mask, dtype=bool)
    n_train = int(train_mask.sum())
    AX = norm_adj @ features
    Z1 = AX @ params.W1 + params.b1
    H1 = np.maximum(Z1, 0.0)
    AH1 = norm_adj @ H1
    Z2 = AH1 @ params.W2 + params.b2
    e = np.exp(Z2 - Z2.max(axis=1, keepdims=True))
    P = e / e.sum(axis=1, keepdims=True)
    idx = np.flatnonzero(train_mask)
    logp = Z2 - Z2.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
    ce = -float(logp[idx, labels[idx]].mean())
    prox = 0.5 * beta * sum(float(np.sum((a - b) ** 2))
                            for (_, a), (_, b) in zip(params.tensors(), anchor.tensors()))
    loss = ce + prox

    dZ2 = np.zeros_like(Z2)
    dZ2[idx] = P[idx]
    dZ2[idx, labels[idx]] -= 1.0
    dZ2 /= n_train
    grads = params.like(beta * (params.flat - anchor.flat))
    grads.W2 += AH1.T @ dZ2
    grads.b2 += dZ2.sum(axis=0)
    dH1 = (norm_adj @ dZ2) @ params.W2.T
    dZ1 = dH1 * (Z1 > 0)
    grads.W1 += AX.T @ dZ1
    grads.b1 += dZ1.sum(axis=0)
    return loss, grads


class TestAgainstReference:
    def test_saturated_zero_beta_loss_is_positive_zero(self, monkeypatch):
        """Every train node saturated: the cross-entropy is -0.0 and the loss 0.0."""
        n, C = 6, 3
        params = gcn.GcnParams(W1=np.zeros((2, 4)), b1=np.zeros(4),
                               W2=np.zeros((4, C)), b2=np.array([200.0, 0.0, -50.0]))
        anchor = gcn.init_params(2, 4, C, seed=3)  # far from params; unused at beta = 0
        adj = sp.eye(n, format="csr")
        X, y = np.ones((n, 2)), np.zeros(n, dtype=int)
        train = np.array([1, 1, 0, 1, 0, 1], dtype=bool)
        ref_loss, ref_grads = reference_loss_and_grads(params, adj, X, y, train, anchor, 0.0)

        def unused(self, other):
            raise AssertionError("sq_distance is not needed at beta = 0")

        monkeypatch.setattr(gcn.GcnParams, "sq_distance", unused)
        loss, grads = gcn.loss_and_grads(params, adj, X, y, train, anchor, 0.0)
        H2 = gcn.forward(params, adj, X).H2
        z = H2 - H2.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        ce = -float(logp[train, 0].mean())
        assert math.copysign(1.0, ce) == -1.0 and ce == 0.0
        assert math.copysign(1.0, loss) == 1.0 and loss == 0.0
        assert repr(loss) == repr(ref_loss) == "0.0"
        assert grads.flat.tobytes() == ref_grads.flat.tobytes()

    @pytest.mark.parametrize("hidden", [1, 4, 32, 128])
    @pytest.mark.parametrize("beta", [0.0, 1e-3, 1.0])
    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_reference_kernel(self, masked, beta, hidden):
        for seed in range(17):
            params, adj, X, y, train, anchor = random_instance(
                seed, n=30, d_x=6, hidden=hidden, C=3, p_edge=0.2, masked=masked)
            loss, grads = gcn.loss_and_grads(params, adj, X, y, train, anchor, beta)
            ref_loss, ref_grads = reference_loss_and_grads(params, adj, X, y, train,
                                                           anchor, beta)
            assert abs(loss - ref_loss) <= 1e-12, seed
            assert np.max(np.abs(grads.flat - ref_grads.flat)) <= 1e-12, seed

    def test_unregularized_loss_is_cross_entropy_of_forward_bytes(self):
        """Training reads the logits that `forward` returns, not a recomputation."""
        for seed in range(20):
            params, adj, X, y, train, anchor = random_instance(seed, n=30, d_x=16,
                                                               hidden=32, C=3)
            loss, _ = gcn.loss_and_grads(params, adj, X, y, train, anchor, 0.0)
            H2 = gcn.forward(params, adj, X).H2
            z = H2 - H2.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            idx = np.flatnonzero(train)
            assert loss == -float(logp[idx, y[idx]].mean()), seed


class TestFlatParams:
    def test_tensors_are_views_of_flat(self):
        params = gcn.init_params(3, 4, 2, seed=0)
        assert params.flat.shape == (3 * 4 + 4 + 4 * 2 + 2,)
        params.W2[1, 0] = 7.0
        assert params.flat[3 * 4 + 4 + 2] == 7.0
        assert np.array_equal(np.concatenate([t.ravel() for _, t in params.tensors()]),
                              params.flat)

    def test_copy_and_like_keep_layout_not_storage(self):
        params = gcn.init_params(3, 4, 2, seed=0)
        dup = params.like(params.flat.copy())
        dup.b1[:] = 1.0
        assert not params.b1.any()
        zeros = params.like(np.zeros_like(params.flat))
        assert [(n, t.shape) for n, t in zeros.tensors()] == \
            [(n, t.shape) for n, t in params.tensors()]

    def test_weighted_sum_equals_per_tensor_loop(self):
        ps = [gcn.init_params(3, 4, 2, seed=s) for s in range(5)]
        w = np.random.default_rng(0).random(5)
        out = gcn.weighted_sum(w, ps)
        for name, t in out.tensors():
            acc = np.zeros_like(t)
            for wk, p in zip(w, ps):
                acc += wk * dict(p.tensors())[name]
            assert np.array_equal(t, acc), name

    def test_adam_equals_per_tensor_loop(self):
        rng = np.random.default_rng(3)
        params = gcn.init_params(3, 4, 2, seed=0)
        state = gcn.init_adam(params)
        ref_p = dict(params.tensors())
        ref_m = {n: np.zeros_like(t) for n, t in ref_p.items()}
        ref_v = {n: np.zeros_like(t) for n, t in ref_p.items()}
        b1, b2, eps, lr = gcn.ADAM_BETA1, gcn.ADAM_BETA2, gcn.ADAM_EPS, 0.01
        for t in (1, 2, 3):
            grads = params.like(rng.standard_normal(params.flat.shape))
            params, state = gcn.adam_step(params, grads, state, lr)
            for name, g in grads.tensors():
                ref_m[name] = b1 * ref_m[name] + (1 - b1) * g
                ref_v[name] = b2 * ref_v[name] + (1 - b2) * g * g
                mhat = ref_m[name] / (1 - b1 ** t)
                vhat = ref_v[name] / (1 - b2 ** t)
                ref_p[name] = ref_p[name] - lr * mhat / (np.sqrt(vhat) + eps)
        for name, t in params.tensors():
            assert np.array_equal(t, ref_p[name]), name
            assert np.array_equal(dict(params.like(state.m).tensors())[name], ref_m[name]), name


def assert_read_only(params):
    for name, t in (("flat", params.flat), *params.tensors()):
        with pytest.raises(ValueError):
            t[(0,) * t.ndim] = 1.0
        assert not t.flags.writeable, name


class TestModelsAreValues:
    def test_adam_step_returns_read_only_model(self):
        params, adj, X, y, train, anchor = random_instance(0)
        _, grads = gcn.loss_and_grads(params, adj, X, y, train, anchor, 0.1)
        new_p, _ = gcn.adam_step(params, grads, gcn.init_adam(params), 0.01)
        assert_read_only(new_p)

    def test_weighted_sum_returns_read_only_model(self):
        ps = [gcn.init_params(3, 4, 2, seed=s) for s in range(3)]
        assert_read_only(gcn.weighted_sum([0.2, 0.3, 0.5], ps))

    def test_gradients_stay_writable(self):
        params, adj, X, y, train, anchor = random_instance(1)
        _, grads = gcn.loss_and_grads(params, adj, X, y, train, anchor, 0.1)
        grads.W1[0, 0] = 1.0
        assert grads.flat[0] == 1.0


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = gcn.init_params(2, 3, 2, seed=0)
        zeros = gcn.GcnParams(*(np.zeros_like(t) for _, t in params.tensors()))
        state = gcn.init_adam(params)
        new_p, new_s = gcn.adam_step(params, zeros, state, lr=0.1)
        for (_, a), (_, b) in zip(params.tensors(), new_p.tensors()):
            assert np.array_equal(a, b)
        assert new_s.step == 1

    def test_first_step_closed_form(self):
        g = 0.37
        params = gcn.GcnParams(W1=np.array([[1.0]]), b1=np.zeros(1),
                               W2=np.zeros((1, 1)), b2=np.zeros(1))
        grads = gcn.GcnParams(W1=np.array([[g]]), b1=np.zeros(1),
                              W2=np.zeros((1, 1)), b2=np.zeros(1))
        state = gcn.init_adam(params)
        lr = 0.01
        new_p, _ = gcn.adam_step(params, grads, state, lr)
        expected = 1.0 - lr * g / (abs(g) + gcn.ADAM_EPS * np.sqrt(1 - gcn.ADAM_BETA2)
                                   / (1 - gcn.ADAM_BETA1))
        # epsilon placement differs by O(eps) across Adam conventions
        assert new_p.W1[0, 0] == pytest.approx(expected, abs=1e-9)
        assert new_p.W1[0, 0] == pytest.approx(1.0 - lr * np.sign(g), abs=1e-7)

    def test_two_steps_match_scalar_oracle(self):
        g = -0.8
        lr = 0.05
        b1, b2, eps = 0.9, 0.999, 1e-8
        # scalar recomputation of two identical Adam steps
        m = v = 0.0
        x = 2.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        params = gcn.GcnParams(W1=np.array([[2.0]]), b1=np.zeros(1),
                               W2=np.zeros((1, 1)), b2=np.zeros(1))
        grads = gcn.GcnParams(W1=np.array([[g]]), b1=np.zeros(1),
                              W2=np.zeros((1, 1)), b2=np.zeros(1))
        state = gcn.init_adam(params)
        p, state = gcn.adam_step(params, grads, state, lr)
        p, state = gcn.adam_step(p, grads, state, lr)
        assert p.W1[0, 0] == pytest.approx(x, abs=1e-12)

    def test_nonfinite_gradient_names_tensor(self):
        params = gcn.init_params(2, 3, 2, seed=0)
        grads = gcn.GcnParams(*(np.zeros_like(t) for _, t in params.tensors()))
        grads.b2[0] = np.nan
        with pytest.raises(ValueError, match="b2"):
            gcn.adam_step(params, grads, gcn.init_adam(params), 0.1)


def reference_adam_step(params, grads, state, lr):
    """The former update: each line a new array. Returns (params, m, v) flats."""
    t = state.step + 1
    g = grads.flat
    m = gcn.ADAM_BETA1 * state.m + (1 - gcn.ADAM_BETA1) * g
    v = gcn.ADAM_BETA2 * state.v + (1 - gcn.ADAM_BETA2) * g * g
    mhat = m / (1 - gcn.ADAM_BETA1 ** t)
    vhat = v / (1 - gcn.ADAM_BETA2 ** t)
    return params.flat - lr * mhat / (np.sqrt(vhat) + gcn.ADAM_EPS), m, v


@pytest.mark.parametrize("zero_grads", [False, True])
@pytest.mark.parametrize("step", [0, 1, 9, 10**6])
def test_adam_matches_former_expressions_bytes(step, zero_grads):
    """Step 0 is t = 1 from zero moments; at t = 10**6 both bias corrections are 1."""
    rng = np.random.default_rng(step)
    params = gcn.init_params(6, 32, 3, seed=1)
    size = params.flat.size
    if step == 0:
        state = gcn.init_adam(params)
    else:
        state = gcn.AdamState(m=rng.standard_normal(size) * 1e-2,
                              v=rng.random(size) * 1e-4, step=step)
    scale = 10.0 ** rng.uniform(-12, 2, size)  # gradients over many magnitudes
    grads = params.like(np.zeros(size) if zero_grads else rng.standard_normal(size) * scale)
    before = [a.copy() for a in (params.flat, grads.flat, state.m, state.v)]
    for lr in (0.01, 0.3):
        new_p, new_s = gcn.adam_step(params, grads, state, lr)
        ref_p, ref_m, ref_v = reference_adam_step(params, grads, state, lr)
        assert new_p.flat.tobytes() == ref_p.tobytes()
        assert new_s.m.tobytes() == ref_m.tobytes()
        assert new_s.v.tobytes() == ref_v.tobytes()
        assert new_s.step == step + 1
    # the inputs are read, never written
    for a, b in zip(before, (params.flat, grads.flat, state.m, state.v)):
        assert a.tobytes() == b.tobytes()


class TestAccuracy:
    def test_one_hot_perfect(self):
        y = np.array([0, 1, 2])
        emb = gcn.Embeddings(H1=np.zeros((3, 1)), H2=np.eye(3), AX=np.zeros((3, 1)))
        assert gcn.accuracy(emb, y, np.ones(3, dtype=bool)) == 1.0

    def test_shifted_one_hot_zero(self):
        y = np.array([0, 1, 2])
        emb = gcn.Embeddings(H1=np.zeros((3, 1)), H2=np.eye(3)[(y + 1) % 3],
                             AX=np.zeros((3, 1)))
        assert gcn.accuracy(emb, y, np.ones(3, dtype=bool)) == 0.0

    def test_random_logits_near_half(self):
        rng = np.random.default_rng(0)
        accs = []
        for _ in range(20):
            y = rng.integers(0, 2, size=1000)
            emb = gcn.Embeddings(H1=np.zeros((1000, 1)),
                                 H2=rng.standard_normal((1000, 2)),
                                 AX=np.zeros((1000, 1)))
            accs.append(gcn.accuracy(emb, y, np.ones(1000, dtype=bool)))
        assert abs(np.mean(accs) - 0.5) < 0.05

    def test_empty_split_rejected(self):
        emb = gcn.Embeddings(H1=np.zeros((2, 1)), H2=np.zeros((2, 2)), AX=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            gcn.accuracy(emb, np.zeros(2, dtype=int), np.zeros(2, dtype=bool))


class TestProperties:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        params, adj, X, y, train, anchor = random_instance(3, n=6)
        edges = np.array([(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)])
        w = rng.random(5)
        adj = gcn.normalize_masked_adjacency(edges, w, 6)
        X = rng.standard_normal((6, 3))
        emb = gcn.forward(params, adj, X)
        loss, _ = gcn.loss_and_grads(params, adj, X, y[:6] if len(y) >= 6
                                     else np.resize(y, 6), train[:6] if len(train) >= 6
                                     else np.resize(train, 6), anchor, 0.0)
        pi = rng.permutation(6)
        inv = np.argsort(pi)
        pedges = np.sort(pi[edges], axis=1)
        padj = gcn.normalize_masked_adjacency(pedges, w, 6)
        pemb = gcn.forward(params, padj, X[inv])
        assert np.allclose(pemb.H2[pi], emb.H2, atol=1e-12)
        ploss, _ = gcn.loss_and_grads(params, padj, X[inv],
                                      np.resize(y, 6)[inv], np.resize(train, 6)[inv],
                                      anchor, 0.0)
        assert ploss == pytest.approx(loss, abs=1e-12)

    def test_proximal_pull(self):
        for seed in range(3):
            params0, adj, X, y, train, _ = random_instance(seed + 20, n=8, d_x=3,
                                                           hidden=4, C=2)
            dists = []
            for beta in (0.0, 0.1, 10.0):
                p = anchor = params0
                state = gcn.init_adam(p)
                for _ in range(20):
                    _, grads = gcn.loss_and_grads(p, adj, X, y, train, anchor, beta)
                    p, state = gcn.adam_step(p, grads, state, 0.01)
                dists.append(np.sqrt(p.sq_distance(anchor)))
            assert dists[0] >= dists[1] - 1e-9 >= dists[2] - 2e-9

    def test_zero_mask_equals_mlp(self):
        params, _, X, y, train, anchor = random_instance(5)
        edges = np.array([(0, 1), (2, 3)])
        adj = gcn.normalize_masked_adjacency(edges, np.zeros(2), 5)
        emb = gcn.forward(params, adj, X)
        # no-graph oracle: per-node MLP
        H1 = np.maximum(X @ params.W1 + params.b1, 0.0)
        H2 = H1 @ params.W2 + params.b2
        assert np.array_equal(emb.H2, H2)

