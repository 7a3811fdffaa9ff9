import numpy as np
import pytest
from hypothesis import given, strategies as st

from subfedsim import gcn, graphs, ies


def line_graph(n=4, d=3, seed=0):
    rng = np.random.default_rng(seed)
    edges = np.array([(i, i + 1) for i in range(n - 1)])
    return graphs.Graph(n, rng.standard_normal((n, d)),
                        np.zeros(n, dtype=int), edges, 2)


class TestPacing:
    def test_zero_round(self):
        assert ies.g_lambda(1.5, 100, 0) == 0.0

    def test_midpoint(self):
        assert ies.g_lambda(1.5, 100, 50) == 0.75

    def test_clipped_at_one(self):
        assert ies.g_lambda(1.5, 100, 100) == 1.0
        for t in range(67, 120):
            assert ies.g_lambda(1.5, 100, t) == 1.0
        assert ies.g_lambda(1.5, 100, 66) < 1.0

    def test_monotone(self):
        vals = [ies.g_lambda(0.7, 40, t) for t in range(100)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestReconstruct:
    def test_identical_vectors(self):
        H = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert ies.reconstruct(H, np.array([(0, 1)]))[0] == pytest.approx(1.0)

    def test_orthogonal(self):
        H = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert ies.reconstruct(H, np.array([(0, 1)]))[0] == pytest.approx(0.0)

    def test_parallel(self):
        H = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert ies.reconstruct(H, np.array([(0, 1)]))[0] == pytest.approx(1.0)

    def test_zero_vector_convention(self):
        H = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert ies.reconstruct(H, np.array([(0, 1)]))[0] == 0.0


def reference_reconstruct(embeddings, edges):
    """Full endpoint gathers and per-edge norms, which `reconstruct` must reproduce."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size == 0:
        return np.zeros(0)
    hu = embeddings[edges[:, 0]]
    hv = embeddings[edges[:, 1]]
    denom = np.linalg.norm(hu, axis=1) * np.linalg.norm(hv, axis=1)
    dots = np.einsum("ij,ij->i", hu, hv)
    out = np.zeros(edges.shape[0])
    ok = denom > 0
    out[ok] = dots[ok] / denom[ok]
    return np.clip(out, -1.0, 1.0)


@pytest.mark.parametrize("num_edges", [0, 1, 255, 256, 257, 20000])
@pytest.mark.parametrize("hidden", [2, 128])
@pytest.mark.parametrize("order", ["C", "F"])
def test_reconstruct_matches_reference_bytes(num_edges, hidden, order):
    for kind in ("relu", "signed", "parallel", "nan"):
        rng = np.random.default_rng(num_edges + hidden)
        n = 500
        H = rng.standard_normal((n, hidden))
        if kind == "relu":
            H = np.maximum(H, 0.0)
        elif kind == "parallel":  # scaled copies: cosines at +-1, where rounding needs the clip
            H = rng.uniform(-3, 3, (n, 1)) * H[rng.integers(0, 4, n)]
        H[rng.random(n) < 0.1] = 0.0  # zero rows
        if kind == "signed":
            H[rng.random(n) < 0.05] = -0.0
        elif kind == "nan":  # a NaN norm fails `denom > 0`, so its edges read 0
            H[rng.random(n) < 0.05] = np.nan
        H = np.asarray(H, order=order)
        edges = rng.integers(0, n, size=(num_edges, 2))
        got = ies.reconstruct(H, edges)
        want = reference_reconstruct(H, edges)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), kind


@pytest.mark.parametrize("use_logits", [False, True])
def test_model_reconstruction_is_forward_then_reconstruct(use_logits):
    g = graphs.generate_sbm(2, 30, 0.3, 0.05, 16, 2, np.random.default_rng(0))
    params = gcn.init_params(16, 32, 2, seed=1)
    adj = gcn.Adjacency(g.edges, g.num_nodes).normalized(
        np.random.default_rng(2).random(g.num_edges))
    emb = gcn.forward(params, adj, g.features)
    want = ies.reconstruct(emb.H2 if use_logits else emb.H1, g.edges)
    got = ies.model_reconstruction(params, adj, g, use_logits)
    assert got.tobytes() == want.tobytes()


def mask_objective(mask, recon, lam, gamma, anchor):
    """sum S*(r - lambda) + (gamma/2) * sum (S - anchor)^2: the objective whose
    clipped gradient steps `ies.mask_step` takes, anchored at the mask it is given."""
    if recon.shape[0] != mask.shape[0] or anchor.shape[0] != mask.shape[0]:
        raise ValueError("mask, reconstruction and anchor must align")
    r = ies.residuals(recon)
    return float(np.sum(mask * (r - lam)) + 0.5 * gamma * np.sum((mask - anchor) ** 2))


class TestObjective:
    def test_zero_mask_zero_objective(self):
        mask = np.zeros(3)
        anchor = np.zeros(3)
        assert mask_objective(mask, np.full(3, 0.2), 0.5, 1.0, anchor) == 0.0

    def test_single_edge_value(self):
        mask = np.ones(1)
        anchor = np.zeros(1)
        # r = |1 - 0.8| = 0.2; S*(r - 0.5) = -0.3
        val = mask_objective(mask, np.array([0.8]), 0.5, 0.0, anchor)
        assert val == pytest.approx(-0.3, abs=1e-15)

    def test_anchor_equal_kills_proximal(self):
        w = np.array([0.3, 0.9])
        mask = w
        anchor = w.copy()
        a = mask_objective(mask, np.zeros(2), 0.1, 0.0, anchor)
        b = mask_objective(mask, np.zeros(2), 0.1, 100.0, anchor)
        assert a == pytest.approx(b, abs=1e-15)

    def test_misaligned_lists(self):
        mask = np.zeros(2)
        anchor = np.zeros(2)
        with pytest.raises(ValueError):
            mask_objective(mask, np.zeros(3), 0.1, 0.0, anchor)


class TestMaskStep:
    def test_zero_gradient_fixed_point(self):
        # r == lam: a -0.0 weight comes out +0.0, as the anchored form gave it
        mask = np.array([0.4, -0.0])
        out = ies.mask_step(mask, np.array([0.5, 0.5]), 0.5, 0.7, 0.1, 5)
        assert out[0] == pytest.approx(0.4)
        assert out[1:].tobytes() == np.array([0.0]).tobytes()

    def test_single_step_delta(self):
        mask = np.array([0.5])
        out = ies.mask_step(mask, np.array([0.8]), 0.5, 0.0, 0.1, 1)
        assert out[0] == pytest.approx(0.53, abs=1e-15)

    def test_clip_at_one(self):
        mask = np.array([0.99])
        out = ies.mask_step(mask, np.array([1.0]), 1.0, 0.0, 0.5, 3)
        assert out[0] == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        w = rng.random(6)
        recon = rng.uniform(-1, 1, 6)
        anchor = w.copy()  # mask_step anchors the objective at the mask it is given
        lam, gamma = 0.4, 0.3
        lr = 1e-3
        out = ies.mask_step(w.copy(), recon, lam, gamma, lr, 1)
        step = (w - out) / lr  # realized gradient (no clipping hit)
        h = 1e-6
        for i in range(6):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fp = mask_objective(wp, recon, lam, gamma, anchor)
            fm = mask_objective(wm, recon, lam, gamma, anchor)
            fd = (fp - fm) / (2 * h)
            assert abs(step[i] - fd) / max(abs(fd), 1e-9) < 1e-6

    def test_curriculum_ordering(self):
        # easier edge (smaller residual) never falls behind under identical steps
        lam = 0.6
        recon = np.array([1.0 - 0.1, 1.0 - 0.5])  # residuals 0.1 < 0.5 <= lam
        mask = np.array([0.5, 0.5])
        for steps in (1, 5, 50):
            out = ies.mask_step(mask, recon, lam, 0.001, 0.01, steps)
            assert out[0] >= out[1]

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=20),
           st.floats(-1, 1), st.floats(0, 1), st.integers(1, 20))
    def test_clip_safety(self, ws, recon_w, lam, steps):
        mask = np.array(ws)
        out = ies.mask_step(mask, np.full(len(ws), recon_w), lam, 0.001, 0.5, steps)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestApplyMask:
    """Mask weights scale the edges of `gcn.Adjacency.normalized`, called here
    through its one-shot wrapper `gcn.normalize_masked_adjacency`."""

    def test_all_ones_identity(self):
        g = line_graph()
        mask = np.full(g.num_edges, 1.0)
        adj = gcn.normalize_masked_adjacency(g.edges, mask, g.num_nodes)
        plain = gcn.normalize_masked_adjacency(g.edges, np.ones(g.num_edges), g.num_nodes)
        assert np.array_equal(adj.toarray(), plain.toarray())

    def test_zero_mask_edgeless(self):
        g = line_graph()
        mask = np.full(g.num_edges, 0.0)
        adj = gcn.normalize_masked_adjacency(g.edges, mask, g.num_nodes)
        assert np.allclose(adj.toarray(), np.eye(g.num_nodes))

    def test_mixed_mask_matches_dense_oracle(self):
        g = line_graph(n=5, seed=2)
        rng = np.random.default_rng(1)
        mask = rng.random(g.num_edges)
        adj = gcn.normalize_masked_adjacency(g.edges, mask, g.num_nodes)
        A = np.eye(5)
        for (u, v), w in zip(g.edges, mask):
            A[u, v] = A[v, u] = w
        d = A.sum(axis=1)
        expect = A / np.sqrt(np.outer(d, d))
        assert np.allclose(adj.toarray(), expect, atol=1e-12)

    def test_foreign_mask_rejected(self):
        g = line_graph()
        other = line_graph(n=7)
        mask = np.full(other.num_edges, 0.5)
        with pytest.raises(ValueError, match="align"):
            gcn.normalize_masked_adjacency(g.edges, mask, g.num_nodes)


class TestWarmupMask:
    def test_zero_steps_uniform(self):
        g = line_graph()
        params = gcn.init_params(3, 4, 2, seed=0)
        lam = ies.g_lambda(1.5, 100, 1)
        mask = ies.warmup_mask(g, gcn.Adjacency(g.edges, g.num_nodes),
                               np.full(g.num_edges, 0.25), params, lam, 0.001, 0.0005, 0)
        assert np.all(mask == 0.25)

    def test_perfect_reconstruction_grows_weights(self):
        # duplicated-feature nodes with identity-ish first layer give cos = 1
        g = line_graph()
        g.features[:] = np.array([1.0, 1.0, 1.0])
        params = gcn.GcnParams(W1=np.eye(3), b1=np.zeros(3),
                               W2=np.zeros((3, 2)), b2=np.zeros(2))
        lam = ies.g_lambda(1.5, 100, 1)
        mask = ies.warmup_mask(g, gcn.Adjacency(g.edges, g.num_nodes),
                               np.full(g.num_edges, 0.5), params, lam, 0.0, 0.01, 5)
        assert np.all(mask > 0.5)

    def test_single_step_arithmetic(self):
        # residual 1.5 at lambda = g(1) = 0.015 with lr 0.0005 drops 0.0007425
        mask = np.array([0.5])
        out = ies.mask_step(mask, np.array([-0.5]), 0.015, 0.001, 0.0005, 1)
        assert out[0] == pytest.approx(0.4992575, abs=1e-12)


def test_warmup_mask_matches_one_shot_adjacency_bytes():
    """Reusing the client's Adjacency gives the mask the per-call normalization gave."""
    g = graphs.generate_sbm(2, 30, 0.3, 0.05, 16, 2, np.random.default_rng(3))
    params = gcn.init_params(16, 32, 2, seed=4)
    lam = ies.g_lambda(1.5, 50, 1)
    for use_logits in (False, True):
        mask = np.full(g.num_edges, 0.5)
        adj = gcn.normalize_masked_adjacency(g.edges, mask, g.num_nodes)
        recon = ies.model_reconstruction(params, adj, g, use_logits)
        want = ies.mask_step(mask, recon, lam, 0.001, 0.0005, 10)
        got = ies.warmup_mask(g, gcn.Adjacency(g.edges, g.num_nodes), mask, params, lam,
                              0.001, 0.0005, 10, use_logits)
        assert got.tobytes() == want.tobytes(), use_logits


def reference_mask_step(weights, recon, lam, gamma, lr_mask, n_steps):
    """The projected gradient loop whose result `mask_step` computes in closed form,
    anchored at the starting weights."""
    r = np.abs(1.0 - recon)
    w = weights.copy()
    for _ in range(n_steps):
        grad = (r - lam) + gamma * (w - weights)
        w = np.clip(w - lr_mask * grad, 0.0, 1.0)
    return w


@pytest.mark.parametrize("n", [0, 1, 2489])
@pytest.mark.parametrize("contiguous", [True, False])
@pytest.mark.parametrize("lr_mask", [1e-5, 0.0005, 0.5])
def test_mask_step_matches_reference_bytes(n, contiguous, lr_mask):
    """The closed form rounds differently from the loop, so it matches within 1e-12.

    The mask is a contiguous array, or a strided view of one."""
    rng = np.random.default_rng(n)
    for ws in (rng.random(n), rng.integers(0, 4, size=n) / 4.0,
               rng.choice([0.0, -0.0, 5e-324, 0.5, 1.0], size=n)):
        recon = rng.uniform(-1, 1, n)
        recon[rng.random(n) < 0.2] = 1.0
        mask = ws.copy() if contiguous else np.repeat(ws, 2)[::2]
        for lam, gamma, steps in ((0.0, 0.001, 1), (0.3, 0.001, 10), (1.0, 0.0, 3),
                                  (0.3, 5e-324, 10), (0.6, 0.001, 1000)):
            got = ies.mask_step(mask, recon, lam, gamma, lr_mask, steps)
            want = reference_mask_step(ws, recon, lam, gamma, lr_mask, steps)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12), (lam, gamma, steps)
            assert mask.tobytes() == ws.tobytes()  # the input is not written
        gamma = 1.0 / lr_mask  # lr*gamma == 1 (one ulp below at lr = 1e-5): no log1p(-1)
        for steps in (1, 4):
            with np.errstate(all="raise"):
                got = ies.mask_step(mask, recon, 0.3, gamma, lr_mask, steps)
            want = reference_mask_step(ws, recon, 0.3, gamma, lr_mask, steps)
            assert np.all(np.abs(got - want) <= 1e-12), steps


def test_mask_step_rejects_lr_gamma_above_one():
    mask = np.full(3, 0.5)
    with pytest.raises(ValueError, match="lr_mask \\* gamma"):
        ies.mask_step(mask, np.zeros(3), 0.1, 2.5, 0.5, 3)


@pytest.mark.parametrize("bad", [1.5, -0.1, np.nan])
def test_mask_step_rejects_a_mask_outside_the_unit_interval(bad):
    mask = np.array([0.5, bad, 1.0])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ies.mask_step(mask, np.zeros(3), 0.1, 0.001, 0.5, 3)
