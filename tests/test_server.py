import numpy as np
import pytest
from hypothesis import given, strategies as st

from subfedsim import config, gcn, graphs, ies, server


def small_ref(seed=0):
    return graphs.generate_sbm(2, 10, 0.5, 0.1, 6, 2, np.random.default_rng(seed))


def uniform_mask(ref, value=0.5):
    return np.full(ref.num_edges, value)


def lam(t):
    """The pacing threshold of round t in a 50-round run at zeta = 1.5."""
    return ies.g_lambda(1.5, 50, t)


class TestExtVectorize:
    def mask(self, ws):
        return np.asarray(ws, dtype=float)

    def test_prune_count_ten_edges(self):
        ws = np.linspace(0.1, 1.0, 10)
        out = server.ext_vectorize(self.mask(ws), 0.3)
        assert int((out == 0.0).sum()) == 3
        assert np.array_equal(out[3:], ws[3:])

    def test_floor_rounding(self):
        out = server.ext_vectorize(self.mask([0.5] * 7), 0.3)
        assert int((out == 0.0).sum()) == 2  # floor(2.1)

    def test_zero_frac_identity(self):
        ws = np.array([0.9, 0.1, 0.4])
        assert np.array_equal(server.ext_vectorize(self.mask(ws), 0.0), ws)

    def test_tie_breaks_toward_lower_index(self):
        out = server.ext_vectorize(self.mask([0.5, 0.5, 0.5, 0.5]), 0.5)
        assert np.array_equal(out, [0.0, 0.0, 0.5, 0.5])

    def test_prunes_smallest(self):
        out = server.ext_vectorize(self.mask([0.9, 0.1, 0.8, 0.2, 0.7]), 0.4)
        assert np.array_equal(out, [0.9, 0.0, 0.8, 0.0, 0.7])

    def test_bad_frac(self):
        with pytest.raises(ValueError):
            server.ext_vectorize(self.mask([0.5]), 1.0)
        with pytest.raises(ValueError):
            server.ext_vectorize(self.mask([0.5]), -0.1)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=40),
           st.floats(0, 0.99))
    def test_count_and_survivor_property(self, ws, frac):
        ws = np.array(ws)
        out = server.ext_vectorize(self.mask(ws), frac)
        k = int(np.floor(frac * len(ws)))
        order = np.argsort(ws, kind="stable")
        # exactly the k stably-smallest entries are zeroed, the rest untouched
        assert np.array_equal(out[order[:k]], np.zeros(k))
        assert np.array_equal(out[order[k:]], ws[order[k:]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("frac", [0.0, 0.3])
    def test_nonfinite_weights_rejected(self, bad, frac):
        ws = np.linspace(0.1, 1.0, 10)
        ws[[2, 5]] = bad
        with pytest.raises(ValueError, match="2 of 10 mask weights are non-finite"):
            server.ext_vectorize(self.mask(ws), frac)


def reference_ext_vectorize(weights, prune_frac):
    """The stable-argsort pruning that `ext_vectorize` must reproduce."""
    u = np.array(weights, dtype=np.float64)
    k = int(np.floor(prune_frac * u.shape[0]))
    if k > 0:
        u[np.argsort(u, kind="stable")[:k]] = 0.0
    return u


def pruning_cases(n, seed):
    rng = np.random.default_rng(seed)
    yield rng.random(n)                                    # distinct values
    yield rng.integers(0, 4, size=n) / 4.0                 # many ties
    yield rng.choice([0.0, -0.0, 5e-324, 0.5, 1.0], size=n)  # signed zeros, subnormal
    w = rng.random(n)                                      # clipped mask values
    w[rng.random(n) < 0.3] = 1.0
    w[rng.random(n) < 0.3] = 0.0
    yield w


@pytest.mark.parametrize("n", [0, 1, 2, 7, 2489])
@pytest.mark.parametrize("frac", [0.0, 0.3, 0.5, 0.99])
def test_ext_vectorize_matches_argsort_reference_bytes(n, frac):
    for ws in pruning_cases(n, seed=n):
        got = server.ext_vectorize(ws.copy(), frac)
        want = reference_ext_vectorize(ws, frac)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestLinearCka:
    def test_identical(self):
        v = np.array([0.2, 0.5, 0.9])
        assert server.linear_cka(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert server.linear_cka([1.0, 0.0], [0.0, 2.0]) == pytest.approx(0.0)

    def test_half_overlap(self):
        # cos^2 of 45 degrees
        assert server.linear_cka([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        u, v = rng.random(20), rng.random(20)
        base = server.linear_cka(u, v)
        assert server.linear_cka(7.5 * u, 0.01 * v) == pytest.approx(base)
        assert server.linear_cka(-u, v) == pytest.approx(base)

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = server.linear_cka(rng.standard_normal(8), rng.standard_normal(8))
            assert 0.0 <= s <= 1.0 + 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            server.linear_cka([0.0, 0.0], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            server.linear_cka([1.0], [1.0, 2.0])


class TestSimilarityMatrix:
    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(5)
        inds = [rng.random(12) for _ in range(4)]
        sim = server.similarity_matrix(inds)
        assert np.array_equal(sim, sim.T)
        assert np.array_equal(np.diag(sim), np.ones(4))

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(6)
        inds = [rng.random(9) for _ in range(3)]
        sim = server.similarity_matrix(inds)
        for k in range(3):
            for n in range(3):
                if k != n:
                    assert sim[k, n] == pytest.approx(
                        server.linear_cka(inds[k], inds[n]))

    def test_error_names_pair(self):
        inds = [np.ones(4), np.zeros(4), np.ones(4)]
        with pytest.raises(ValueError, match="clients 0,1"):
            server.similarity_matrix(inds)


class TestAggregate:
    def params_list(self, seeds, d=3, h=4, c=2):
        return [gcn.init_params(d, h, c, seed=s) for s in seeds]

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for tau in (0.0, 3.0, 10.0):
            w = server.softmax_weights(rng.random(6), tau)
            assert w.sum() == pytest.approx(1.0)
            assert np.all(w > 0)

    def test_tau_zero_uniform_mean(self):
        ps = self.params_list([0, 1, 2])
        out = server.aggregate(np.array([1.0, 0.3, 0.7]), 0.0, ps)
        mean_w1 = sum(p.W1 for p in ps) / 3
        assert np.allclose(out.W1, mean_w1, atol=1e-12)

    def test_two_client_reference_value(self):
        # sims (1.0, 0.5), tau 5 -> alpha_0 = 1/(1+e^{-2.5}) = 0.92414...
        alpha = server.softmax_weights(np.array([1.0, 0.5]), 5.0)
        assert alpha[0] == pytest.approx(0.92414, abs=1e-4)
        ps = self.params_list([3, 4])
        out = server.aggregate(np.array([1.0, 0.5]), 5.0, ps)
        expect = alpha[0] * ps[0].b2 + alpha[1] * ps[1].b2
        assert np.allclose(out.b2, expect, atol=1e-14)

    def test_large_tau_picks_self(self):
        ps = self.params_list([5, 6, 7])
        out = server.aggregate(np.array([1.0, 0.5, 0.2]), 1e4, ps)
        assert np.allclose(out.W1, ps[0].W1, atol=1e-10)

    def test_overflow_safe(self):
        w = server.softmax_weights(np.array([1.0, 0.999]), 1e6)
        assert np.isfinite(w).all() and w.sum() == pytest.approx(1.0)

    def test_aggregated_model_is_read_only(self):
        out = server.aggregate(np.array([1.0, 0.5]), 5.0, self.params_list([0, 1]))
        for t in (out.flat, out.W1, out.b1, out.W2, out.b2):
            with pytest.raises(ValueError):
                t[(0,) * t.ndim] = 1.0

    def test_nonfinite_param_named(self):
        ps = self.params_list([0, 1])
        ps[1].W2[0, 0] = np.nan
        with pytest.raises(ValueError, match="W2 from client 1"):
            server.aggregate(np.array([1.0, 0.5]), 5.0, ps)


class TestBuildIndicator:
    def test_prune_count_and_shape(self):
        ref = small_ref()
        d = ref.features.shape[1]
        params = gcn.init_params(d, 8, 2, seed=0)
        _, vec = server.build_indicator(ref, params, uniform_mask(ref), lam(1), 0.001, 1e-5, 10)
        E = ref.num_edges
        assert vec.shape == (E,)
        assert int((vec == 0.0).sum()) >= int(np.floor(0.3 * E))

    def test_mask_state_persists(self):
        ref = small_ref()
        d = ref.features.shape[1]
        params = gcn.init_params(d, 8, 2, seed=1)
        mask = uniform_mask(ref)
        mask.flags.writeable = False  # the step returns a new mask and writes nothing
        before = mask.copy()
        after, _ = server.build_indicator(ref, params, mask, lam(1), 0.001, 0.01, 10)
        assert not np.array_equal(before, after)
        # the input mask untouched
        assert np.all(mask == 0.5)

    def test_deterministic(self):
        out = []
        for _ in range(2):
            ref = small_ref(seed=2)
            d = ref.features.shape[1]
            params = gcn.init_params(d, 8, 2, seed=3)
            out.append(server.build_indicator(ref, params, uniform_mask(ref), lam(2), 0.001,
                                              1e-5, 10)[1])
        assert np.array_equal(out[0], out[1])

    def test_zero_steps_keeps_mask(self):
        ref = small_ref()
        d = ref.features.shape[1]
        params = gcn.init_params(d, 8, 2, seed=0)
        mask = uniform_mask(ref)
        stepped, _ = server.build_indicator(ref, params, mask, lam(1), 0.001, 1e-5, 0)
        assert stepped is mask
        assert np.all(mask == 0.5)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_support_does_not_depend_on_lambda(self, seed):
        """While no weight clips, a step from a uniform mask lowers each weight by
        k*(r - lambda) with one k, so the indicator keeps the edges of lowest
        residual whatever lambda is (k = 1e-4 at the defaults)."""
        cfg = config.ExperimentConfig()
        d = cfg.dataset.dx
        g = graphs.generate_sbm(2, 30, 0.3, 0.05, d, 2, seed=seed)
        params = gcn.init_params(d, cfg.model.hidden, 2, seed=seed + 10)
        init = uniform_mask(g, cfg.ies.init_value)
        r = ies.residuals(ies.model_reconstruction(params, g.adjacency.normalized(init), g))
        assert np.diff(np.sort(r)).min() > 1e-9  # no near-ties
        kept = g.num_edges - int(np.floor(cfg.fed.prune_frac * g.num_edges))
        lowest = np.sort(np.argsort(r)[:kept])
        for lam_ in (0.0, 0.5, 1.0):
            mask, vec = server.build_indicator(g, params, init, lam_, cfg.ies.gamma,
                                               cfg.ies.lr_aggr, cfg.ies.steps,
                                               cfg.fed.prune_frac)
            assert 0.0 < mask.min() and mask.max() < 1.0  # no weight clipped
            assert np.array_equal(np.flatnonzero(vec), lowest)

    def test_feature_mismatch_rejected(self):
        ref = small_ref()
        bad = gcn.init_params(ref.features.shape[1] + 1, 8, 2, seed=0)
        with pytest.raises(ValueError):
            server.build_indicator(ref, bad, uniform_mask(ref), lam(1), 0.001, 1e-5, 10)


class TestTauSchedule:
    def test_improvement_streak_raises_tau(self):
        st_ = server.TauState()
        for perf in np.linspace(0.1, 0.7, 6):
            st_ = server.tau_step(st_, float(perf))
        assert st_.tau == pytest.approx(6.25)
        assert st_.r_good == 0  # streak counter reset after the bump

    def test_decline_streak_flips_and_lowers(self):
        st_ = server.TauState(last_perf=1.0)
        for perf in np.linspace(0.9, 0.4, 6):
            st_ = server.tau_step(st_, float(perf))
        assert st_.s == -1
        assert st_.tau == pytest.approx(4.0)

    def test_patience_is_strict(self):
        st_ = server.TauState()
        for perf in np.linspace(0.1, 0.5, 5):
            st_ = server.tau_step(st_, float(perf))
        assert st_.tau == 5.0  # 5 improvements == patience: no change yet
        assert st_.r_good == 5

    def test_equal_perf_counts_as_improvement(self):
        st_ = server.TauState()
        for _ in range(6):
            st_ = server.tau_step(st_, 0.5)
        assert st_.tau == pytest.approx(6.25)

    def test_clamped_to_range(self):
        st_ = server.TauState(tau=9.9)
        for perf in range(1, 8):
            st_ = server.tau_step(st_, float(perf))
        assert st_.tau == 10.0
        st_ = server.TauState(tau=3.1, last_perf=100.0)
        for perf in range(20, 0, -1):
            st_ = server.tau_step(st_, float(perf))
        assert st_.tau >= 3.0
        assert st_.tau == pytest.approx(3.0)

    def test_mixed_signal_holds_tau(self):
        st_ = server.TauState()
        for i in range(40):
            st_ = server.tau_step(st_, 0.5 if i % 2 else 0.4)
        assert st_.tau == 5.0

    def test_input_state_not_mutated(self):
        st_ = server.TauState()
        server.tau_step(st_, 0.9)
        assert st_.tau == 5.0 and st_.r_good == 0

    def test_nonfinite_perf_rejected(self):
        with pytest.raises(ValueError):
            server.tau_step(server.TauState(), float("nan"))
