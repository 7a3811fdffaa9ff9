"""End-to-end acceptance gate: one test (and one printed verdict line) per criterion."""

import time

import numpy as np
import pytest

from subfedsim import config, experiment, gcn, graphs, ies, server
from test_ies import mask_objective

SEEDS = (0, 1, 2)


def report(capsys, num, ok, detail=""):
    with capsys.disabled():
        print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}"
              f"{' — ' + detail if detail else ''}")


def overlap_cfg(seed, method="CUFL"):
    """Two-block SBM with two overlapping clients per block."""
    cfg = config.ExperimentConfig()
    cfg.seed = seed
    cfg.method = method
    cfg.rounds = 50
    cfg.num_clients = 4
    cfg.partition = config.PartitionSpec(kind="overlap", base_parts=2,
                                         copies_per_part=2, frac=0.5)
    return cfg


def disjoint_cfg(seed, method):
    cfg = config.ExperimentConfig()
    cfg.seed = seed
    cfg.method = method
    cfg.rounds = 50
    cfg.num_clients = 10
    cfg.partition = config.PartitionSpec(kind="bisection")
    return cfg


@pytest.fixture(scope="module")
def overlap_runs():
    return [experiment.run_experiment(overlap_cfg(s)) for s in SEEDS]


def random_instance(seed, n=5, d_x=3, hidden=4, C=2):
    rng = np.random.default_rng(seed)
    params = gcn.init_params(d_x, hidden, C, seed=seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = rng.random(len(pairs)) < 0.5
    edges = np.array([p for p, k in zip(pairs, keep) if k]).reshape(-1, 2)
    adj = gcn.normalize_masked_adjacency(edges, np.ones(len(edges)), n)
    X = rng.standard_normal((n, d_x))
    y = rng.integers(0, C, n)
    train = rng.random(n) < 0.7
    if not train.any():
        train[0] = True
    anchor = gcn.init_params(d_x, hidden, C, seed=seed + 1)
    return params, adj, X, y, train, anchor


def test_criterion_01_gradient_oracle(capsys):
    start = time.time()
    h = 1e-5
    worst = 0.0
    for seed in range(20):
        params, adj, X, y, train, anchor = random_instance(seed, n=4 + seed % 7,
                                                           d_x=2 + seed % 4,
                                                           hidden=3 + seed % 6)
        beta = 0.01
        _, grads = gcn.loss_and_grads(params, adj, X, y, train, anchor, beta)
        for name, t in params.tensors():
            g = dict(grads.tensors())[name].ravel()
            flat = t.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp, _ = gcn.loss_and_grads(params, adj, X, y, train, anchor, beta)
                flat[i] = orig - h
                lm, _ = gcn.loss_and_grads(params, adj, X, y, train, anchor, beta)
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                worst = max(worst, abs(g[i] - fd) / max(abs(fd), abs(g[i]), 1e-8))
    ok_model = worst < 1e-4

    worst_mask = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        E = rng.integers(2, 12)
        w = rng.random(E)
        recon = rng.uniform(-1, 1, E)
        anchor_m = w.copy()  # mask_step anchors the objective at the mask it is given
        lam, gamma, lr = float(rng.random()), 0.3, 1e-4
        out = ies.mask_step(w.copy(), recon, lam, gamma, lr, 1)
        step = (w - out) / lr
        hm = 1e-6
        for i in range(E):
            wp, wm = w.copy(), w.copy()
            wp[i] += hm
            wm[i] -= hm
            fp = mask_objective(wp, recon, lam, gamma, anchor_m)
            fm = mask_objective(wm, recon, lam, gamma, anchor_m)
            fd = (fp - fm) / (2 * hm)
            worst_mask = max(worst_mask, abs(step[i] - fd) / max(abs(fd), 1e-8))
    ok_mask = worst_mask < 1e-6

    elapsed = time.time() - start
    ok = ok_model and ok_mask and elapsed < 10
    report(capsys, 1, ok, f"model rel err {worst:.2e}, mask rel err "
           f"{worst_mask:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_similarity_kernel(capsys):
    start = time.time()
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(1000):
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        s = server.linear_cka(u, v)
        ok &= abs(server.linear_cka(u, u) - 1.0) <= 1e-12
        ok &= abs(s - server.linear_cka(v, u)) <= 1e-12
        ok &= -1e-12 <= s <= 1.0 + 1e-12
        ok &= abs(s - server.linear_cka(3.7 * u, 0.2 * v)) <= 1e-12
    ok &= abs(server.linear_cka([1.0, 1.0], [1.0, 0.0]) - 0.5) <= 1e-12
    elapsed = time.time() - start
    ok = bool(ok) and elapsed < 1
    report(capsys, 2, ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_03_aggregation(capsys):
    start = time.time()
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(100):
        row = rng.random(rng.integers(2, 8))
        tau = float(rng.uniform(0, 10))
        ok &= abs(server.softmax_weights(row, tau).sum() - 1.0) <= 1e-12
    params = [gcn.init_params(3, 4, 2, seed=s) for s in range(3)]
    mean = server.aggregate([server.softmax_weights(np.array([0.9, 0.2, 0.6]), 0.0)],
                            params)[0]
    for i, (_, t) in enumerate(mean.tensors()):
        target = sum(dict(p.tensors())[list(dict(p.tensors()))[i]] for p in params) / 3
        ok &= np.max(np.abs(t - target)) <= 1e-12
    alpha0 = server.softmax_weights(np.array([1.0, 0.5]), 5.0)[0]
    ok &= abs(alpha0 - 0.92414) <= 1e-4
    elapsed = time.time() - start
    ok = bool(ok) and elapsed < 1
    report(capsys, 3, ok, f"alpha0={alpha0:.5f}, {elapsed:.2f}s")
    assert ok


def test_criterion_04_pacing(capsys):
    ok = (ies.g_lambda(1.5, 100, 0) == 0.0 and ies.g_lambda(1.5, 100, 50) == 0.75
          and all(ies.g_lambda(1.5, 100, t) == 1.0 for t in range(67, 200)))
    report(capsys, 4, ok)
    assert ok


def test_criterion_05_adaptive_tau(capsys):
    st = server.TauState()
    for perf in np.linspace(0.1, 0.7, 6):
        st = server.tau_step(st, float(perf), config.FedSpec())
    ok = st.tau == pytest.approx(5.0 * 1.25)

    st = server.TauState(last_perf=1.0)
    for perf in np.linspace(0.9, 0.4, 6):
        st = server.tau_step(st, float(perf), config.FedSpec())
    ok = ok and st.tau == pytest.approx(5.0 / 1.25) and st.s == -1

    st = server.TauState(tau=9.9)
    seen = [st.tau]
    for perf in range(30):
        st = server.tau_step(st, float(perf), config.FedSpec())
        seen.append(st.tau)
    st = server.TauState(tau=3.1, last_perf=100.0)
    for perf in range(30, 0, -1):
        st = server.tau_step(st, float(perf), config.FedSpec())
        seen.append(st.tau)
    ok = ok and all(3.0 <= t <= 10.0 for t in seen)
    report(capsys, 5, bool(ok))
    assert ok


def _intra_inter(result):
    cl = result.clusters
    intra, inter = [], []
    for rec in result.records:
        if rec.round <= 10:
            continue
        s = rec.similarity
        K = s.shape[0]
        same = [s[a, b] for a in range(K) for b in range(a + 1, K) if cl[a] == cl[b]]
        diff = [s[a, b] for a in range(K) for b in range(a + 1, K) if cl[a] != cl[b]]
        intra.append(np.mean(same))
        inter.append(np.mean(diff))
    return float(np.mean(intra)), float(np.mean(inter))


def test_criterion_06_cluster_preservation(capsys, overlap_runs):
    start = time.time()
    pairs = [_intra_inter(res) for res in overlap_runs]
    elapsed = time.time() - start
    ok = all(intra > inter for intra, inter in pairs) and elapsed < 300
    detail = ", ".join(f"{a:.3f}>{b:.3f}" for a, b in pairs)
    report(capsys, 6, ok, detail)
    assert ok


def test_criterion_07_directional_performance(capsys):
    start = time.time()
    acc = {}
    gap = {}
    per_seed = []
    for method in ("CUFL", "FedAvg", "FedAvgCL"):
        accs, gaps = [], []
        for seed in SEEDS:
            final = experiment.run_experiment(disjoint_cfg(seed, method)).summary["final"]
            accs.append(final["test_acc_mean"])
            gaps.append(final["train_acc_mean"] - final["test_acc_mean"])
        acc[method] = float(np.mean(accs))
        gap[method] = float(np.mean(gaps))
        per_seed.append(f"{method} acc/gap per seed "
                        + " ".join(f"{a:.4f}/{g:.4f}" for a, g in zip(accs, gaps)))
    elapsed = time.time() - start
    ok = (acc["CUFL"] >= acc["FedAvg"] and gap["FedAvgCL"] <= gap["FedAvg"]
          and elapsed < 600)
    report(capsys, 7, ok,
           f"acc CUFL {acc['CUFL']:.4f} vs FedAvg {acc['FedAvg']:.4f}; "
           f"gap FedAvgCL {gap['FedAvgCL']:.4f} vs FedAvg {gap['FedAvg']:.4f}; "
           f"{elapsed:.0f}s; " + "; ".join(per_seed))
    assert ok


def test_criterion_08_weight_proportion_trend(capsys, overlap_runs):
    rises = sum(res.records[-1].same_cluster_proportion
                > res.records[0].same_cluster_proportion for res in overlap_runs)
    ok = rises >= 2
    report(capsys, 8, ok, f"rises in {rises}/3 seeds")
    assert ok


def test_criterion_09_determinism(capsys, tmp_path):
    cfg_kw = dict(rounds=5)

    def small_cfg():
        cfg = overlap_cfg(0)
        cfg.rounds = cfg_kw["rounds"]
        cfg.dataset.block_size = 60
        cfg.model.hidden = 32
        cfg.warmup.rounds = 3
        return cfg

    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        experiment.run_experiment(small_cfg(), out_dir=str(out))
        outs.append(out)
    ok = True
    names = ["metrics.csv"] + [f"similarity_round_{t}.csv" for t in range(1, 6)]
    for fname in names:
        blobs = [(o / fname).read_bytes() for o in outs]
        ok &= blobs[0] == blobs[1]
    report(capsys, 9, bool(ok), "rerun byte-identical")
    assert ok


def test_criterion_10_ext_pruning(capsys):
    out = server.ext_vectorize(np.linspace(0.1, 1.0, 10), 0.3)
    ok = int((out == 0.0).sum()) == 3
    tied = server.ext_vectorize(np.full(10, 0.5), 0.3)
    ok &= np.array_equal(tied[:3], np.zeros(3)) and np.all(tied[3:] == 0.5)

    rng = np.random.default_rng(7)
    for _ in range(200):
        E = int(rng.integers(1, 60))
        frac = float(rng.uniform(0, 0.99))
        ws = rng.random(E)
        got = server.ext_vectorize(ws, frac)
        k = int(np.floor(frac * E))
        order = np.argsort(ws, kind="stable")
        ok &= np.array_equal(got[order[:k]], np.zeros(k))
        ok &= np.array_equal(got[order[k:]], ws[order[k:]])
    report(capsys, 10, bool(ok))
    assert ok


def test_criterion_11_format_round_trips(capsys, tmp_path):
    g = graphs.generate_sbm(2, 25, 0.3, 0.05, 6, 2, np.random.default_rng(3))
    gdir = tmp_path / "graph"
    graphs.save_graph_dir(g, str(gdir))
    g2 = graphs.load_graph_dir(str(gdir))
    ok = (g.num_nodes == g2.num_nodes
          and np.array_equal(g.labels, g2.labels)
          and np.array_equal(g.features, g2.features)
          and np.array_equal(np.sort(g.edges, axis=0), np.sort(g2.edges, axis=0)))

    cfg = overlap_cfg(0)
    cfg.rounds = 2
    cfg.dataset.block_size = 40
    cfg.model.hidden = 16
    cfg.warmup.rounds = 2
    out = tmp_path / "run"
    experiment.run_experiment(cfg, out_dir=str(out))
    import json
    echoed = json.loads((out / "summary.json").read_text())["config"]
    ok &= config.to_dict(config.from_dict(echoed)) == echoed
    report(capsys, 11, bool(ok))
    assert ok
