import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest

import golden
from subfedsim import analyze, config, experiment, gcn, graphs, ies, server


def tiny_cfg(**kw):
    cfg = config.ExperimentConfig()
    cfg.rounds = 3
    cfg.num_clients = 2
    cfg.dataset = config.DatasetSpec(blocks=2, block_size=30, p_in=0.25,
                                     p_cross=0.05, dx=8)
    cfg.model = config.ModelSpec(hidden=16, lr=0.01)
    cfg.reference = config.ReferenceSpec(blocks=2, block_size=20, p_in=0.2)
    cfg.warmup = config.WarmupSpec(rounds=2, steps=5)
    for k, v in kw.items():
        setattr(cfg, k, v)
    cfg.validate()
    return cfg


def make_state(k, cfg, seed=0, params=None, block_size=15):
    g = graphs.generate_sbm(2, block_size, 0.3, 0.1, cfg.dataset.dx, 2,
                            np.random.default_rng(seed + k))
    split = graphs.make_splits(g, cfg.split_ratios, seed + 100 + k)
    p = params if params is not None else gcn.init_params(
        cfg.dataset.dx, cfg.model.hidden, 2, seed=seed + 200 + k)
    return experiment.ClientState(
        client_id=k, graph=g, split=split, params=p, trained=p,
        mask=np.full(g.num_edges, cfg.ies.init_value), adam=gcn.init_adam(p),
        tau_state=server.TauState())


def make_reference(cfg, states):
    """The run's reference graph, with a fresh reference mask for each state."""
    ref = experiment._build_reference(cfg, cfg.dataset.dx)
    for st in states:
        st.ref_mask = np.full(ref.num_edges, cfg.ies.init_value)
    return ref


class TestMixSeed:
    def test_deterministic(self):
        assert experiment.mix_seed(7, 3, 11) == experiment.mix_seed(7, 3, 11)

    def test_order_sensitive(self):
        assert experiment.mix_seed(1, 2) != experiment.mix_seed(2, 1)

    def test_spread(self):
        seen = {experiment.mix_seed(s, k) for s in range(50) for k in range(10)}
        assert len(seen) == 500

    def test_64_bit(self):
        for s in range(100):
            assert 0 <= experiment.mix_seed(s) < 2 ** 64


class TestClusterProportion:
    def test_single_cluster_is_one(self):
        rng = np.random.default_rng(0)
        m = rng.random((4, 4)) + 0.1
        assert experiment.same_cluster_weight_proportion(m, [0, 0, 0, 0]) == \
            pytest.approx(1.0)

    def test_block_diagonal(self):
        m = np.kron(np.eye(2), np.ones((2, 2)))
        assert experiment.same_cluster_weight_proportion(m, [0, 0, 1, 1]) == \
            pytest.approx(1.0)

    def test_uniform_matrix_two_halves(self):
        m = np.ones((4, 4))
        assert experiment.same_cluster_weight_proportion(m, [0, 0, 1, 1]) == \
            pytest.approx(0.5)

    def test_includes_diagonal(self):
        m = np.eye(3)
        # every client's mass is entirely on itself -> proportion 1 even for
        # singleton clusters
        assert experiment.same_cluster_weight_proportion(m, [0, 1, 2]) == \
            pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            experiment.same_cluster_weight_proportion(np.eye(3), [0, 1])

    @pytest.mark.parametrize("K", [1, 2, 5, 16])
    def test_matches_membership_loop_bytes(self, K):
        rng = np.random.default_rng(K)
        for _ in range(5):
            m = rng.random((K, K)) + 0.01
            clusters = rng.integers(0, 3, size=K).tolist()  # ids repeat
            assert (experiment.same_cluster_weight_proportion(m, clusters)
                    == reference_same_cluster_weight_proportion(m, clusters))


def reference_same_cluster_weight_proportion(matrix, clusters):
    """The per-row membership loop: one Python comparison per pair of clients."""
    K = len(clusters)
    total = 0.0
    for k in range(K):
        members = np.array([clusters[n] == clusters[k] for n in range(K)])
        total += matrix[k][members].sum() / matrix[k].sum()
    return total / K


class TestBinMatch:
    def test_identical_recon_all_ones(self):
        r = np.array([-0.9, -0.5, 0.0, 0.5, 0.9])
        out = analyze.bin_match_ratio(r, r)
        assert np.all(out[np.isfinite(out)] == 1.0)
        assert np.isfinite(out).all()

    def test_disjoint_bins_zero(self):
        r = np.full(10, -0.9)
        o = np.full(10, 0.9)
        out = analyze.bin_match_ratio(r, o)
        assert out[0] == 0.0
        assert np.isnan(out[1:]).all()

    def test_boundary_one_lands_in_last_bin(self):
        out = analyze.bin_match_ratio(np.array([1.0]), np.array([1.0]))
        assert out[4] == 1.0

    def test_independent_uniform_matches_one_over_bins(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(-1, 1, 100_000)
        o = rng.uniform(-1, 1, 100_000)
        out = analyze.bin_match_ratio(r, o)
        assert np.all(np.abs(out - 0.2) < 0.01)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            analyze.bin_match_ratio(np.zeros(3), np.zeros(4))


class TestWarmup:
    def test_params_reset_after_warmup(self):
        cfg = tiny_cfg()
        init = gcn.init_params(cfg.dataset.dx, cfg.model.hidden, 2, seed=9)
        states = [make_state(k, cfg) for k in range(2)]
        experiment.warmup(states, cfg, init)
        for st in states:
            for (_, a), (_, b) in zip(st.params.tensors(), init.tensors()):
                assert np.array_equal(a, b)
            assert np.all(st.adam.m == 0.0) and st.adam.step == 0

    def test_masks_move_off_init(self):
        cfg = tiny_cfg()
        init = gcn.init_params(cfg.dataset.dx, cfg.model.hidden, 2, seed=9)
        states = [make_state(k, cfg) for k in range(2)]
        experiment.warmup(states, cfg, init)
        for st in states:
            assert not np.all(st.mask == cfg.ies.init_value)
            assert np.all((st.mask >= 0) & (st.mask <= 1))

    def test_no_rounds_no_steps_keeps_uniform(self):
        cfg = tiny_cfg(warmup=config.WarmupSpec(rounds=0, steps=0))
        init = gcn.init_params(cfg.dataset.dx, cfg.model.hidden, 2, seed=9)
        states = [make_state(0, cfg)]
        experiment.warmup(states, cfg, init)
        assert np.all(states[0].mask == cfg.ies.init_value)


def reference_warmup(states, cfg, init_params):
    """The hand-written FedProx loop `warmup` ran before it shared the round's epoch loop."""
    if cfg.warmup.rounds > 0:
        global_p = init_params
        for _ in range(cfg.warmup.rounds):
            for st in states:
                trained = global_p
                adam = gcn.init_adam(trained)
                g = st.graph
                tm = st.split.mask(graphs.TRAIN)
                for _ in range(cfg.epochs):
                    _, grads = gcn.loss_and_grads(trained, g.adjacency.unmasked,
                                                  g.features, g.labels,
                                                  tm, global_p, cfg.fed.beta)
                    trained, adam = gcn.adam_step(trained, grads, adam, cfg.model.lr)
                st.trained = trained
            global_p = experiment._size_weighted_mean(states)
        pretrained = global_p
    else:
        pretrained = init_params
    lam = ies.g_lambda(cfg.ies.zeta, cfg.rounds, 1)
    for st in states:
        st.mask = ies.warmup_mask(st.graph, np.full(st.graph.num_edges, cfg.ies.init_value),
                                  pretrained, lam, cfg.ies.gamma, cfg.ies.lr_train,
                                  cfg.warmup.steps, cfg.ies.embeddings == "logits")
    return pretrained


@pytest.mark.parametrize("rounds", [0, 1, 3])
@pytest.mark.parametrize("epochs", [1, 2])
def test_warmup_matches_reference_bytes(rounds, epochs):
    cfg = tiny_cfg(epochs=epochs, warmup=config.WarmupSpec(rounds=rounds, steps=5))
    init = gcn.init_params(cfg.dataset.dx, cfg.model.hidden, 2, seed=9)
    # clients of different sizes, so the size-weighted mean is not a plain mean
    got = [make_state(0, cfg), make_state(1, cfg, block_size=25)]
    want = [make_state(0, cfg), make_state(1, cfg, block_size=25)]
    pretrained = experiment.warmup(got, cfg, init)
    ref_pretrained = reference_warmup(want, cfg, init)
    assert pretrained.flat.tobytes() == ref_pretrained.flat.tobytes()
    for a, b in zip(got, want):
        assert a.mask.tobytes() == b.mask.tobytes()
        assert a.params.flat.tobytes() == init.flat.tobytes()
        assert a.trained.flat.tobytes() == init.flat.tobytes()
        assert a.adam.step == 0 and not a.adam.m.any() and not a.adam.v.any()


def reference_evaluate(state, params):
    """The former evaluation: its own A·X, and one `gcn.accuracy` call per split."""
    g = state.graph
    emb = gcn.forward(params, g.adjacency.unmasked, g.features)
    out = {}
    for which in (graphs.TRAIN, graphs.VAL, graphs.TEST):
        m = state.split.mask(which)
        out[which] = gcn.accuracy(emb, g.labels, m) if m.any() else float("nan")
    return out


def test_evaluate_matches_per_split_accuracy_bytes():
    cfg = tiny_cfg()
    states = [make_state(k, cfg, seed=s) for k in range(2) for s in range(3)]
    # a split with no validation node evaluates to NaN there
    st = states[-1]
    st.split = graphs.NodeSplit(["train" if t == "val" else t for t in st.split.tags])
    for st in states:
        for seed in range(8):
            params = gcn.init_params(cfg.dataset.dx, cfg.model.hidden, 2, seed=seed)
            got, want = experiment._evaluate(st, params), reference_evaluate(st, params)
            assert list(got) == list(want)
            for which in want:
                assert type(got[which]) is float
                assert np.float64(got[which]).tobytes() == np.float64(want[which]).tobytes()
    assert np.isnan(experiment._evaluate(states[-1], params)[graphs.VAL])


class TestPropagationCache:
    def test_fedavg_run_propagates_once_per_client(self, monkeypatch):
        """Training and evaluation on the unmasked graph all read one cached A·X."""
        cache = graphs.Graph.unmasked_ax  # the cached_property itself
        fill = cache.func
        fills = []

        def counting_fill(g):
            fills.append(id(g))
            return fill(g)

        induced_subgraph = graphs.induced_subgraph
        clients = []

        def recorded_subgraph(g, nodes):
            clients.append(induced_subgraph(g, nodes))
            return clients[-1]

        forward = gcn.forward
        uncached = []

        def checked_forward(params, norm_adj, features, AX=None):
            uncached.append(AX is None)
            return forward(params, norm_adj, features, AX)

        monkeypatch.setattr(cache, "func", counting_fill)
        monkeypatch.setattr(graphs, "induced_subgraph", recorded_subgraph)
        monkeypatch.setattr(gcn, "forward", checked_forward)
        cfg = config.ExperimentConfig(method="FedAvg", rounds=3, num_clients=2)
        res = experiment.run_experiment(cfg)
        assert len(res.records) == 3
        assert len(clients) == 2
        assert sorted(fills) == sorted(map(id, clients))  # once per client graph
        # 3 rounds x 2 clients, one training and one evaluation forward each
        assert len(uncached) == 12 and not any(uncached)

    def test_cached_ax_is_read_only(self):
        g = make_state(0, tiny_cfg()).graph
        ax = g.unmasked_ax
        assert g.unmasked_ax is ax
        assert ax.tobytes() == (g.adjacency.unmasked @ g.features).tobytes()
        with pytest.raises(ValueError):
            ax[0, 0] = 1.0


class TestLocalStage:
    def test_tiny_lr_leaves_params_near_anchor(self):
        cfg = tiny_cfg(model=config.ModelSpec(hidden=16, lr=1e-12))
        st = make_state(0, cfg)
        before = st.params
        experiment.local_training_stage(st, 1, cfg, config.METHODS["FedProx"])
        assert st.trained.sq_distance(before) < 1e-18

    def test_training_reduces_loss_over_rounds(self):
        cfg = tiny_cfg()
        st = make_state(0, cfg)
        losses = []
        for t in range(1, 30):
            losses.append(experiment.local_training_stage(st, t, cfg,
                                                          config.METHODS["FedAvg"]))
            st.params = st.trained
        assert losses[-1] < losses[0]

    def test_round_t_mask_step_uses_g_lambda_of_t(self):
        cfg = tiny_cfg()
        st = make_state(0, cfg)
        ref = make_state(0, cfg)
        lams = [ies.g_lambda(cfg.ies.zeta, cfg.rounds, t) for t in (1, 2, 3)]
        assert lams[0] < lams[1]  # the rounds below see different thresholds
        for t, lam in zip((1, 2, 3), lams):
            experiment.local_training_stage(st, t, cfg, config.METHODS["CUFL"])
            # the same round by hand: one epoch, then a mask step at g_lambda(t)
            adj = ref.graph.adjacency.normalized(ref.mask)
            _, grads = gcn.loss_and_grads(ref.params, adj, ref.graph.features,
                                          ref.graph.labels, ref.split.mask(graphs.TRAIN),
                                          ref.params, cfg.fed.beta)
            ref.trained, ref.adam = gcn.adam_step(ref.params, grads, ref.adam, cfg.model.lr)
            recon = ies.model_reconstruction(ref.trained, adj, ref.graph)
            ref.mask = ies.mask_step(ref.mask, recon, lam, cfg.ies.gamma, cfg.ies.lr_train,
                                     cfg.ies.steps)
            assert st.mask.tobytes() == ref.mask.tobytes(), t
            assert st.trained.flat.tobytes() == ref.trained.flat.tobytes(), t
            st.params, ref.params = st.trained, ref.trained

    def test_mask_untouched_without_use_mask(self):
        cfg = tiny_cfg()
        st = make_state(0, cfg)
        before = st.mask.copy()
        experiment.local_training_stage(st, 1, cfg, config.METHODS["FedAvg"])
        assert np.array_equal(st.mask, before)


class TestServerStage:
    def test_single_client_keeps_own_params(self):
        cfg = tiny_cfg(num_clients=1)
        st = make_state(0, cfg)
        ref = make_reference(cfg, [st])
        before = st.ref_mask
        sim, alpha, taus, _ = experiment.server_aggregation_stage([st], ref, 1, cfg)
        assert not np.array_equal(st.ref_mask, before)  # the stepped mask is kept
        assert np.array_equal(sim, [[1.0]])
        assert np.array_equal(alpha, [[1.0]])
        assert st.params.sq_distance(st.trained) == 0.0

    def test_identical_clients_uniform_alpha(self):
        cfg = tiny_cfg()
        shared = gcn.init_params(cfg.dataset.dx, cfg.model.hidden, 2, seed=5)
        states = [make_state(k, cfg, params=shared) for k in range(3)]
        ref = make_reference(cfg, states)
        sim, alpha, _, _ = experiment.server_aggregation_stage(states, ref, 1, cfg)
        assert np.allclose(sim, 1.0)
        assert np.allclose(alpha, 1.0 / 3.0)
        for st in states:
            assert st.params.sq_distance(shared) < 1e-24

    def test_each_trained_model_is_scanned_once(self, monkeypatch):
        """K aggregations read the same K read-only trained models."""
        cfg = tiny_cfg(num_clients=4)
        states = [make_state(k, cfg) for k in range(4)]
        for st in states:
            experiment.local_training_stage(st, 1, cfg, config.METHODS["CUFL"])
        ref = make_reference(cfg, states)
        scans = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite",
                            lambda x, *args, **kw: scans.append(x) or isfinite(x, *args, **kw))
        experiment.server_aggregation_stage(states, ref, 1, cfg)
        assert [sum(x is st.trained.flat for x in scans) for st in states] == [1] * 4

    def test_old_models_die_before_aggregation(self, monkeypatch):
        """The K models entering the round are released before the K new ones are built."""
        cfg = tiny_cfg(num_clients=3)
        states = [make_state(k, cfg) for k in range(3)]
        for st in states:
            experiment.local_training_stage(st, 1, cfg, config.METHODS["CUFL"])
        ref = make_reference(cfg, states)
        old = [weakref.ref(st.params) for st in states]
        assert all(r() is not None and r() is not st.trained for r, st in zip(old, states))
        alive = []
        aggregate = server.aggregate

        def spy(alpha, all_params):
            alive.append([r() is not None for r in old])
            return aggregate(alpha, all_params)

        monkeypatch.setattr(server, "aggregate", spy)
        experiment.server_aggregation_stage(states, ref, 1, cfg)
        assert alive == [[False] * 3]
        assert all(st.params is not None for st in states)

    def test_zero_reference_mask_names_client_and_round(self):
        """At lambda = 0 a step never raises a weight (r >= 0), so an all-zero
        reference mask stays all zero and its indicator is the zero vector."""
        cfg = tiny_cfg(num_clients=3)
        states = [make_state(k, cfg) for k in range(3)]
        ref = make_reference(cfg, states)
        states[2].ref_mask = np.zeros(ref.num_edges)
        assert ies.g_lambda(cfg.ies.zeta, cfg.rounds, 0) == 0.0
        with pytest.raises(ValueError, match=r"^zero indicator for client 2 at round 0$"):
            experiment.server_aggregation_stage(states, ref, 0, cfg)


class TestFedAvgReduction:
    def test_equal_sizes_reduce_to_plain_mean(self):
        cfg = tiny_cfg()
        states = [make_state(k, cfg, seed=0) for k in range(3)]
        out = experiment._size_weighted_mean(states)
        for i, (name, _) in enumerate(out.tensors()):
            mean = sum(dict(st.trained.tensors())[name] for st in states) / 3
            assert np.allclose(dict(out.tensors())[name], mean, atol=1e-12)

    def test_weighted_by_node_count(self):
        cfg = tiny_cfg()
        a = make_state(0, cfg, seed=0)
        b = make_state(1, cfg, seed=0)
        b.graph = graphs.generate_sbm(2, 30, 0.3, 0.1, cfg.dataset.dx, 2,
                                      np.random.default_rng(1))
        out = experiment._size_weighted_mean([a, b])
        expect = (30 * a.trained.W1 + 60 * b.trained.W1) / 90
        assert np.allclose(out.W1, expect, atol=1e-12)


class TestRunExperiment:
    def run(self, tmp_path, name, **kw):
        cfg = tiny_cfg(**kw)
        out = tmp_path / name
        res = experiment.run_experiment(cfg, out_dir=str(out))
        return res, out

    def test_metrics_csv_byte_identical_across_reruns(self, tmp_path):
        _, a = self.run(tmp_path, "a")
        _, b = self.run(tmp_path, "b")
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "similarity_round_all.csv").read_bytes() == \
            (b / "similarity_round_all.csv").read_bytes()

    def test_zero_rounds(self, tmp_path):
        res, out = self.run(tmp_path, "r0", rounds=0)
        assert res.records == []
        assert res.summary["final"]["test_acc_mean"] is not None
        assert (out / "metrics.csv").read_text().count("\n") == 1  # header only

    def test_summary_config_echo_reparses(self, tmp_path):
        _, out = self.run(tmp_path, "echo")
        data = json.loads((out / "summary.json").read_text())
        cfg2 = config.from_dict(data["config"])
        assert config.to_dict(cfg2) == data["config"]

    def test_local_method_no_similarity(self, tmp_path):
        res, out = self.run(tmp_path, "local", method="Local")
        assert all(rec.similarity is None for rec in res.records)
        assert not list(out.glob("similarity_round_*.csv"))
        assert not list(out.glob("alpha_round_*.csv"))

    def test_local_clients_stay_independent(self, tmp_path):
        res, _ = self.run(tmp_path, "indep", method="Local",
                          dataset=config.DatasetSpec(blocks=2, block_size=30,
                                                     p_in=0.25, p_cross=0.05, dx=8))
        last = res.records[-1].client_metrics
        assert last[0]["train_loss"] != last[1]["train_loss"]

    def test_cufl_records_similarity_and_proportion(self, tmp_path):
        res, out = self.run(tmp_path, "cufl")
        for rec in res.records:
            assert rec.similarity is not None
            assert rec.similarity.shape == (2, 2)
            assert np.allclose(np.diag(rec.similarity), 1.0)
            assert rec.alpha.sum(axis=1) == pytest.approx([1.0, 1.0])
            assert 0.0 <= rec.same_cluster_proportion <= 1.0
        assert (out / "mask_round_1_client_0.csv").exists()
        assert (out / "refrecon_round_3.csv").exists()
        assert not list(out.glob("refrecon_round_*_client_*.csv"))

    def test_partition_count_mismatch_rejected(self, tmp_path):
        # validate() checks an overlap partition's count; a file's is known once read
        with pytest.raises(config.ConfigError, match="'num_clients'"):
            tiny_cfg(num_clients=3, partition=config.PartitionSpec(
                kind="overlap", base_parts=2, copies_per_part=2))
        g = experiment._build_dataset(tiny_cfg())
        graphs.save_graph_dir(g, str(tmp_path))
        (tmp_path / "partition.csv").write_text(
            "node,client\n" + "".join(f"{i},{i % 2}\n" for i in range(g.num_nodes)))
        cfg = tiny_cfg(num_clients=3, partition=config.PartitionSpec(kind="file"),
                       dataset=config.DatasetSpec(kind="dir", path=str(tmp_path)))
        with pytest.raises(ValueError, match="partition has 2 clients, config says 3"):
            experiment.run_experiment(cfg)

    def test_alpha_rows_use_the_tau_in_metrics(self, tmp_path):
        cfg = config.ExperimentConfig(rounds=6)
        cfg.fed.tau, cfg.fed.tau_patience = "adaptive", 0  # tau moves every round
        out = tmp_path / "adaptive"
        experiment.run_experiment(cfg, out_dir=str(out))
        assert not list(out.glob("tau_*"))  # metrics.csv is tau's one home
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].endswith(",tau")
        tau = {(int(f[0]), int(f[1])): float(f[-1])
               for f in (line.split(",") for line in lines[1:])}
        assert len(tau) == cfg.rounds * cfg.num_clients and len(set(tau.values())) > 1
        K = cfg.num_clients
        sims = (out / "similarity_round_all.csv").read_text().splitlines()
        alphas = (out / "alpha_round_all.csv").read_text().splitlines()
        assert len(sims) == len(alphas) == cfg.rounds * K
        for t in range(1, cfg.rounds + 1):
            sim, alpha = sims[(t - 1) * K:t * K], alphas[(t - 1) * K:t * K]
            for k, row in enumerate(sim):
                weights = server.softmax_weights(np.array(row.split(","), dtype=float),
                                                 tau[t, k])
                assert alpha[k] == ",".join(map(repr, weights.tolist()))

    def test_adaptive_tau_stays_in_range(self, tmp_path):
        cfg = tiny_cfg(rounds=8)
        cfg.fed.tau = "adaptive"
        res = experiment.run_experiment(cfg)
        for rec in res.records:
            for m in rec.client_metrics:
                assert 3.0 <= m["tau"] <= 10.0

    def test_overlap_clusters_inferred(self):
        cfg = tiny_cfg(num_clients=4,
                       partition=config.PartitionSpec(kind="overlap",
                                                      base_parts=2,
                                                      copies_per_part=2,
                                                      frac=0.5),
                       rounds=1)
        res = experiment.run_experiment(cfg)
        assert res.clusters == [0, 0, 1, 1]

    def test_empty_split_has_no_mean_and_no_std(self):
        final = experiment.run_experiment(
            tiny_cfg(rounds=1, split_ratios=(1.0, 0.0, 0.0))).summary["final"]
        assert final["train_acc_mean"] is not None and final["train_acc_std"] is not None
        for key in ("val_acc", "test_acc"):
            assert final[f"{key}_mean"] is None and final[f"{key}_std"] is None

    def test_single_client_std_is_zero(self):
        final = experiment.run_experiment(
            tiny_cfg(rounds=1, num_clients=1, method="Local")).summary["final"]
        assert final["test_acc_mean"] is not None and final["test_acc_std"] == 0.0


# every method, plus each golden run that overrides a key to reach another path
MODEL_RUNS = [(m, ()) for m in config.METHODS] + [(m, o) for m, _, _, o in golden.RUNS if o]


class TestModelsAreValues:
    """Models are shared, never copied: no stage writes into one."""

    @pytest.mark.parametrize("method, overrides", MODEL_RUNS,
                             ids=["-".join((m, *o)) for m, o in MODEL_RUNS])
    def test_runs_never_write_a_model(self, tmp_path, monkeypatch, method, overrides):
        init_params = gcn.init_params

        def read_only_init_params(*args, **kw):
            p = init_params(*args, **kw)
            flat = p.flat.copy()
            flat.flags.writeable = False
            return p.like(flat)

        monkeypatch.setattr(gcn, "init_params", read_only_init_params)
        cfg = config.apply_overrides(tiny_cfg(method=method, rounds=2), list(overrides))
        res = experiment.run_experiment(cfg, out_dir=str(tmp_path))
        assert len(res.records) == 2

    @pytest.mark.parametrize("method", ["FedAvg", "Local"])
    def test_round_hands_out_shared_models(self, monkeypatch, method):
        seen = []  # (params, trained) of each client after each round's aggregation
        client_metrics = experiment._client_metrics

        def spy(state, *args):
            seen.append((state.params, state.trained))
            return client_metrics(state, *args)

        monkeypatch.setattr(experiment, "_client_metrics", spy)
        res = experiment.run_experiment(tiny_cfg(method=method, rounds=2))
        assert len(res.records) == 2
        assert all(rec.similarity is None for rec in res.records)
        for a, b in (seen[:2], seen[2:]):
            if method == "FedAvg":  # one size-weighted mean for every client
                assert a[0] is b[0] and a[0] is not a[1]
            else:
                assert a[0] is a[1] and b[0] is b[1]

    def test_fedavg_binds_one_model_per_step_and_one_mean_per_round(self, monkeypatch):
        calls = []
        bind = gcn.GcnParams._bind

        def counting_bind(self, flat, layout):
            calls.append(flat.size)
            bind(self, flat, layout)

        monkeypatch.setattr(gcn.GcnParams, "_bind", counting_bind)
        cfg = tiny_cfg(method="FedAvg", rounds=3)
        experiment.run_experiment(cfg)
        R, K = cfg.rounds, cfg.num_clients  # init, then per round K grads, K steps, a mean
        assert len(calls) == 1 + R * (2 * K + 1) == 16


def reference_build_dataset(cfg):
    """The per-kind dispatch `_build_dataset` used before `graphs.GENERATORS`."""
    ds = cfg.dataset
    seed = experiment.mix_seed(cfg.seed, 0xDA7A)
    if ds.kind == "sbm":
        return graphs.generate_sbm(ds.blocks, ds.block_size, ds.p_in, ds.p_cross,
                                   ds.dx, ds.num_classes, seed)
    if ds.kind == "er":
        return graphs.generate_er(ds.n, ds.p, ds.dx, ds.num_classes, seed)
    return graphs.generate_ba(ds.n, ds.m, ds.dx, ds.num_classes, seed)


def reference_build_reference(cfg, d_x):
    """The per-kind dispatch `_build_reference` used, with its class counts."""
    rs = cfg.reference
    seed = experiment.mix_seed(cfg.seed, 0x4EF)
    if rs.kind == "sbm":
        return graphs.generate_sbm(rs.blocks, rs.block_size, rs.p_in, rs.p_cross,
                                   d_x, max(rs.blocks, 1), seed)
    if rs.kind == "er":
        return graphs.generate_er(rs.n, rs.p, d_x, 2, seed)
    return graphs.generate_ba(rs.n, rs.m, d_x, 2, seed)


class TestGeneratorTable:
    @pytest.mark.parametrize("kind", ["sbm", "er", "ba"])
    @pytest.mark.parametrize("seed, num_classes", [(0, 2), (1, 3)])
    def test_dataset_matches_dispatch_bytes(self, kind, seed, num_classes):
        cfg = config.ExperimentConfig(seed=seed)
        cfg.dataset = config.DatasetSpec(kind=kind, blocks=3, block_size=40, p_in=0.2,
                                         p_cross=0.02, n=120, p=0.05, m=3, dx=5,
                                         num_classes=num_classes)
        got, ref = experiment._build_dataset(cfg), reference_build_dataset(cfg)
        assert got.num_nodes == ref.num_nodes and got.num_classes == ref.num_classes
        for a, b in ((got.edges, ref.edges), (got.features, ref.features),
                     (got.labels, ref.labels)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("spec", [
        config.ReferenceSpec(),
        config.ReferenceSpec(blocks=1, block_size=30, p_in=0.3),
        config.ReferenceSpec(blocks=2, block_size=20, p_in=0.2, p_cross=0.05),
        config.ReferenceSpec(kind="er", n=200, p=0.04),
        config.ReferenceSpec(kind="ba", n=200, m=3),
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_reference_matches_dispatch_bytes(self, spec, seed):
        cfg = config.ExperimentConfig(seed=seed, reference=spec)
        got, ref = experiment._build_reference(cfg, 7), reference_build_reference(cfg, 7)
        assert got.num_nodes == ref.num_nodes and got.num_classes == 2
        for a, b in ((got.edges, ref.edges), (got.features, ref.features)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        if spec.kind != "sbm":  # one class count for every kind changes sbm labels only
            assert got.labels.tobytes() == ref.labels.tobytes()

    def test_config_kinds_come_from_the_table(self):
        for kind in graphs.GENERATORS:
            config.from_dict({"dataset": {"kind": kind}, "reference": {"kind": kind}})
        with pytest.raises(config.ConfigError, match="'reference.kind'"):
            config.from_dict({"reference": {"kind": "dir"}})


def fmt(x) -> str:
    """The artifacts' float format: shortest round-trip decimal; None gives an empty field."""
    return "" if x is None else repr(float(x))


def reference_write_edge_weights(path, edges, header, weights):
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        for (u, v), row in zip(edges, weights):
            f.write(f"{u},{v}," + ",".join(fmt(w) for w in row) + "\n")


def edge_weight_header(columns):
    return "u,v," + (",".join(f"client_{k}" for k in range(columns)) if columns > 1
                     else "weight")


SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 5e-324, 1e-05, 1e-300, 1e16,
                  1 / 3]
ROW_COUNTS = [0, 1, 255, 256, 257, 500, 600]  # around one, two and three blocks


@pytest.mark.parametrize("num_edges", ROW_COUNTS)
def test_edge_weight_writer_matches_fmt_reference(tmp_path, num_edges):
    rng = np.random.default_rng(num_edges)
    edges = np.sort(rng.integers(0, 10**6, size=(num_edges, 2)), axis=1)
    for columns in (1, 3):  # a mask file, and a reference reconstruction of 3 clients
        weights = rng.random((num_edges, columns))
        weights.ravel()[:len(SPECIAL_VALUES)] = SPECIAL_VALUES[:weights.size]
        header = edge_weight_header(columns)
        with open(tmp_path / "new.csv", "w", newline="\n") as f:
            f.write(header + "\n")
            graphs.write_rows(f, [edges[:, 0], edges[:, 1], *weights.T])
        reference_write_edge_weights(str(tmp_path / "ref.csv"), edges, header, weights)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class CountingFile:
    """A text file stand-in that keeps each `write` call's text."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_writer_writes_one_block_of_lines_per_call(rows):
    f = CountingFile()
    f.write("u,v,weight\n")
    graphs.write_rows(f, [np.arange(rows), np.arange(rows) + 1, np.full(rows, 0.5)])
    blocks = -(-rows // graphs._ROW_BLOCK)
    assert len(f.writes) == 1 + blocks
    lines = [w.count("\n") for w in f.writes[1:]]
    assert lines == [min(graphs._ROW_BLOCK, rows - i * graphs._ROW_BLOCK)
                     for i in range(blocks)]
    assert "".join(f.writes[1:]) == "".join(f"{i},{i + 1},0.5\n" for i in range(rows))


def test_writer_prints_ints_strings_and_list_columns_as_given():
    f = CountingFile()
    graphs.write_rows(f, [[1, 2], ["", "x"], np.array([3, -4]), [0.1, np.float64(1e16)]])
    assert f.writes == ["1,,3,0.1\n2,x,-4,1e+16\n"]
    graphs.write_rows(f, [])
    assert len(f.writes) == 1


def spy_reference(monkeypatch) -> list:
    """Patch `experiment._build_reference` to append each graph it builds to the list."""
    refs = []
    build_reference = experiment._build_reference

    def recorded(cfg, d_x):
        refs.append(build_reference(cfg, d_x))
        return refs[-1]

    monkeypatch.setattr(experiment, "_build_reference", recorded)
    return refs


def test_reference_rows_are_built_once_per_dump(tmp_path, monkeypatch):
    """Column k of round t's file is what round t's `build_indicator` returned for
    client k, from the hidden embeddings and from the logits."""
    refs = spy_reference(monkeypatch)
    returned = []  # one reconstruction per build_indicator call, in call order
    build_indicator = server.build_indicator

    def spy(*args, **kw):
        out = build_indicator(*args, **kw)
        returned.append(out[2])
        return out

    monkeypatch.setattr(server, "build_indicator", spy)
    for embeddings in ("hidden", "logits"):
        for seen in (refs, returned):
            seen.clear()
        cfg = tiny_cfg(num_clients=3, rounds=3, dump_rounds=[1, 3])
        cfg.ies.embeddings = embeddings
        out = tmp_path / embeddings
        experiment.run_experiment(cfg, out_dir=str(out))
        (ref,) = refs
        K = cfg.num_clients
        assert len(returned) == cfg.rounds * K
        assert sorted(p.name for p in out.glob("refrecon_*")) == \
            ["refrecon_round_1.csv", "refrecon_round_3.csv"]
        for t in (1, 3):
            text = (out / f"refrecon_round_{t}.csv").read_text()
            assert text.count("\n") == ref.num_edges + 1
            assert text.startswith("u,v,client_0,client_1,client_2\n")
            table = np.loadtxt(out / f"refrecon_round_{t}.csv", delimiter=",", skiprows=1,
                               ndmin=2)
            assert np.array_equal(table[:, :2], ref.edges)
            for k in range(K):  # bit for bit
                assert table[:, 2 + k].tobytes() == returned[(t - 1) * K + k].tobytes(), \
                    (embeddings, t, k)


def test_dump_round_reconstructs_the_reference_once_per_client(tmp_path, monkeypatch):
    """Every round below dumps; each reconstructs the reference edges K times, all of
    them under the normalization `build_indicator` makes."""
    cfg = tiny_cfg(num_clients=3, rounds=2)
    refs = spy_reference(monkeypatch)
    inside = []  # a build_indicator call is running
    recon_calls, norm_calls = [], []  # per call on the reference: inside build_indicator?
    build_indicator, reconstruct = server.build_indicator, ies.reconstruct
    normalized = gcn.Adjacency.normalized

    def spy_build(*args, **kw):
        inside.append(True)
        try:
            return build_indicator(*args, **kw)
        finally:
            inside.pop()

    def spy_reconstruct(embeddings, edges):
        if refs and edges is refs[0].edges:
            recon_calls.append(bool(inside))
        return reconstruct(embeddings, edges)

    def spy_normalized(adj, mask_weights):
        if refs and adj is refs[0].adjacency:
            norm_calls.append(bool(inside))
        return normalized(adj, mask_weights)

    monkeypatch.setattr(server, "build_indicator", spy_build)
    monkeypatch.setattr(ies, "reconstruct", spy_reconstruct)
    monkeypatch.setattr(gcn.Adjacency, "normalized", spy_normalized)
    experiment.run_experiment(cfg, out_dir=str(tmp_path))
    assert sorted(p.name for p in tmp_path.glob("refrecon_*")) == \
        ["refrecon_round_1.csv", "refrecon_round_2.csv"]
    assert recon_calls == [True] * cfg.rounds * cfg.num_clients
    assert norm_calls == [True] * cfg.rounds * cfg.num_clients


def reference_write_matrix(path, mat):
    with open(path, "w", newline="\n") as f:
        for row in mat:
            f.write(",".join(map(fmt, row)) + "\n")


# a matrix with rows but no column has no columns to write, so no line: runs
# write K x K matrices with K >= 1
@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (0, 3), (16, 16)])
def test_matrix_writer_matches_fmt_reference(tmp_path, shape):
    rng = np.random.default_rng(shape[0])
    mat = rng.random(shape)
    mat.ravel()[:len(SPECIAL_VALUES)] = SPECIAL_VALUES[:mat.size]
    with open(tmp_path / "new.csv", "w", newline="\n") as f:
        graphs.write_rows(f, list(mat.T))
    reference_write_matrix(str(tmp_path / "ref.csv"), mat)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    experiment._write_matrix(str(tmp_path / "stacked.csv"), [mat, mat[::-1]])
    reference_write_matrix(str(tmp_path / "ref2.csv"), mat[::-1])
    assert ((tmp_path / "stacked.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes() + (tmp_path / "ref2.csv").read_bytes())


def expected_files(K: int, dump_rounds, mask: bool, similarity: bool) -> list:
    """The files a run of at least one round writes."""
    names = ["metrics.csv", "summary.json"]
    if similarity:
        names += ["similarity_round_all.csv", "alpha_round_all.csv"]
    for t in set(dump_rounds):
        if mask:
            names += [f"mask_round_{t}_client_{k}.csv" for k in range(K)]
        if similarity:
            names.append(f"refrecon_round_{t}.csv")
    return sorted(names)


@pytest.mark.parametrize("rounds, dump_rounds", [(1, None), (3, None), (3, (2,)),
                                                 (4, (1, 3, 3)), (3, ())])
def test_cufl_run_writes_exactly_its_file_set(tmp_path, rounds, dump_rounds):
    cfg = tiny_cfg(rounds=rounds, dump_rounds=dump_rounds)
    experiment.run_experiment(cfg, out_dir=str(tmp_path))
    D = config.dump_rounds_of(dump_rounds, rounds)
    want = expected_files(cfg.num_clients, D, mask=True, similarity=True)
    assert sorted(os.listdir(tmp_path)) == want
    assert len(want) == 4 + len(set(D)) * (cfg.num_clients + 1)


def test_ten_clients_and_two_dump_rounds_write_26_files(tmp_path):
    # the cufl-disjoint10 benchmark config (10 clients, 50 rounds, dumps at 1 and 50)
    # cut to 2 rounds: the file set depends on K and the dump rounds only
    cfg = config.ExperimentConfig(num_clients=10, rounds=2)
    cfg.fed.tau = 5.0
    experiment.run_experiment(cfg, out_dir=str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == expected_files(10, (1, 2), True, True)
    assert len(os.listdir(tmp_path)) == 26 == len(expected_files(10, (1, 50), True, True))


@pytest.mark.parametrize("method, rounds", [("FedAvg", 3), ("CUFL", 0), ("FedAvg", 0)])
def test_fedavg_and_zero_round_runs_write_only_metrics_and_summary(tmp_path, method, rounds):
    experiment.run_experiment(tiny_cfg(method=method, rounds=rounds), out_dir=str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == ["metrics.csv", "summary.json"]


def reference_metrics_csv(records) -> str:
    """metrics.csv as the per-row f-string writer formatted it."""
    lines = ["round,client,train_loss,train_acc,val_acc,test_acc,tau\n"]
    for rec in records:
        for m in rec.client_metrics:
            lines.append(f"{rec.round},{m['client']},{fmt(m['train_loss'])},"
                         f"{fmt(m['train_acc'])},{fmt(m['val_acc'])},"
                         f"{fmt(m['test_acc'])},{fmt(m['tau'])}\n")
    return "".join(lines)


@pytest.mark.parametrize("method, tau", [("FedAvg", None), ("CUFL", 5.0),
                                         ("CUFL", "adaptive")])
def test_metrics_csv_matches_fmt_reference(tmp_path, method, tau):
    # a val share of 0.02 / 5.02 leaves a 30-node client no val node: a NaN accuracy
    cfg = tiny_cfg(method=method, split_ratios=(1.0, 0.02, 4.0))
    if tau is not None:
        cfg.fed.tau = tau
    res = experiment.run_experiment(cfg, out_dir=str(tmp_path))
    text = (tmp_path / "metrics.csv").read_text()
    assert text == reference_metrics_csv(res.records)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert len(rows) == cfg.rounds * cfg.num_clients
    assert any(row[4] == "nan" for row in rows)
    assert all((row[6] == "") == (method == "FedAvg") for row in rows)


def test_stacked_matrices_round_trip_the_records(tmp_path):
    cfg = tiny_cfg(rounds=4, num_clients=3)
    cfg.fed.tau = "adaptive"
    res = experiment.run_experiment(cfg, out_dir=str(tmp_path))
    R, K = cfg.rounds, cfg.num_clients
    for name, field in (("similarity_round_all.csv", "similarity"),
                        ("alpha_round_all.csv", "alpha")):
        data = (tmp_path / name).read_bytes()
        stacked = np.loadtxt(tmp_path / name, delimiter=",", ndmin=2).reshape(R, K, K)
        lines = data.splitlines(keepends=True)
        assert len(lines) == R * K
        for t, rec in enumerate(res.records):
            mat = getattr(rec, field)
            assert stacked[t].tobytes() == mat.tobytes(), (name, t + 1)
            one = tmp_path / f"one-{field}-{t + 1}.csv"
            experiment._write_matrix(str(one), [mat])
            assert b"".join(lines[t * K:(t + 1) * K]) == one.read_bytes(), (name, t + 1)


@pytest.mark.parametrize("embeddings, per_call", [("hidden", 0), ("logits", 1)])
def test_model_reconstruction_runs_the_logits_layer_only_for_logits(monkeypatch,
                                                                    embeddings, per_call):
    inside, counts = [False], {"recon": 0, "forward": 0}
    real_recon, real_forward = ies.model_reconstruction, gcn.forward

    def spy_recon(*args, **kwargs):
        inside[0] = True
        counts["recon"] += 1
        try:
            return real_recon(*args, **kwargs)
        finally:
            inside[0] = False

    def spy_forward(*args, **kwargs):
        counts["forward"] += inside[0]
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(ies, "model_reconstruction", spy_recon)
    monkeypatch.setattr(gcn, "forward", spy_forward)
    cfg = tiny_cfg(rounds=2)
    cfg.ies.embeddings = embeddings
    experiment.run_experiment(cfg)
    assert counts["recon"] > 0
    assert counts["forward"] == per_call * counts["recon"]


@pytest.fixture(scope="module")
def twice_runs(tmp_path_factory):
    """A 2-round CUFL run and a 2-round FedAvg run, each written into two directories."""
    runs = {}
    for method in ("CUFL", "FedAvg"):
        dirs = [tmp_path_factory.mktemp(f"{method}-{i}") for i in range(2)]
        for d in dirs:
            experiment.run_experiment(tiny_cfg(method=method, rounds=2), out_dir=str(d))
        runs[method] = dirs
    return runs


@pytest.mark.parametrize("method", ["CUFL", "FedAvg"])
def test_rerun_writes_byte_identical_directory(twice_runs, method):
    a, b = twice_runs[method]
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) and "summary.json" in names
    assert [n for n in names if (a / n).read_bytes() != (b / n).read_bytes()] == []


def readme_artifact_patterns() -> dict:
    """{file name: regex} for the backticked file names in the bullets of the
    README's "Run artifacts" section, `{t}` and `{k}` standing for integers."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Run artifacts\n")[1]
    section = section.split("\n## ")[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.M)
    names = {n for b in bullets for n in re.findall(r"`([\w{}]+\.(?:csv|json))`", b)}
    return {n: re.compile(r"\d+".join(map(re.escape, re.split(r"\{[tk]\}", n))))
            for n in names}


def test_readme_artifact_list_matches_written_files(twice_runs):
    patterns = readme_artifact_patterns()
    assert "metrics.csv" in patterns and "summary.json" in patterns
    written = {m: os.listdir(dirs[0]) for m, dirs in twice_runs.items()}
    unlisted = [(m, n) for m, names in written.items() for n in names
                if not any(p.fullmatch(n) for p in patterns.values())]
    assert unlisted == [], "files a run writes that the README does not list"
    unwritten = [n for n, p in patterns.items()
                 if not any(p.fullmatch(f) for f in written["CUFL"])]
    assert unwritten == [], "README entries that a CUFL run does not write"


def test_readme_methods_table_matches_config():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    aggregation = {"similarity": "per-client softmax(τ·CKA similarity)",
                   "mean": "size-weighted global mean", "none": "none"}
    rows = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            rows[cells[0].strip("`")] = tuple(cells[1:])
    yes_no = {True: "yes", False: "no"}
    assert rows == {name: (yes_no[m.mask], yes_no[m.prox], aggregation[m.aggregation])
                    for name, m in config.METHODS.items()}


def test_runs_do_not_import_networkx(tmp_path):
    """A fresh interpreter builds, trains and writes runs on every generated
    partition kind without loading networkx, which the package does not depend on."""
    script = textwrap.dedent("""
        import sys
        from subfedsim import cli, config, experiment
        for kind in ("bisection", "overlap", "louvain"):
            cfg = config.ExperimentConfig(rounds=1)
            cfg.partition.kind = kind
            experiment.run_experiment(cfg, out_dir=sys.argv[1] + "/" + kind)
        assert "networkx" not in sys.modules, "networkx was imported"
    """)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["bisection", "louvain", "overlap"]
