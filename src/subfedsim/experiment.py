"""Round orchestration: warm-up, local stage, server stage, baselines, metrics."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__, gcn, graphs, ies, server
from .config import METHODS, ExperimentConfig, Method, dump_rounds_of, to_dict

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_seed(*parts: int) -> int:
    """Deterministic 64-bit seed derivation from (global seed, client id, round, ...)."""
    h = 0
    for p in parts:
        h = _splitmix64(h ^ (int(p) & _MASK64))
    return h


@dataclass
class ClientState:
    client_id: int
    graph: graphs.Graph
    split: graphs.NodeSplit
    params: gcn.GcnParams          # aggregated parameters entering the round
    trained: gcn.GcnParams         # locally trained parameters leaving the round
    mask: np.ndarray               # edge weights in [0, 1], aligned with graph.edges
    adam: gcn.AdamState
    tau_state: server.TauState
    ref_mask: np.ndarray | None = None  # edge weights aligned with the reference graph's edges


@dataclass
class RoundRecord:
    round: int
    client_metrics: list            # per-client dicts with train_loss/accs/tau
    similarity: np.ndarray | None = None
    alpha: np.ndarray | None = None
    same_cluster_proportion: float | None = None


@dataclass
class RunResult:
    records: list
    summary: dict
    clusters: list | None


def same_cluster_weight_proportion(matrix: np.ndarray, clusters: list) -> float:
    """Average per-client fraction of similarity (or weight) mass inside its cluster."""
    matrix = np.asarray(matrix, dtype=np.float64)
    c = np.asarray(clusters)
    K = len(c)
    if matrix.shape != (K, K):
        raise ValueError(f"a {'x'.join(map(str, matrix.shape))} matrix for {K} clustered clients")
    total = 0.0
    for k in range(K):
        members = c == c[k]
        denom = matrix[k].sum()
        if not (np.isfinite(denom) and denom != 0):
            raise ValueError(f"row {k + 1} sums to {float(denom)!r}")
        total += matrix[k][members].sum() / denom
    return total / K


def _build_dataset(cfg: ExperimentConfig) -> graphs.Graph:
    ds = cfg.dataset
    if ds.kind == "dir":
        return graphs.load_graph_dir(ds.path)
    return graphs.GENERATORS[ds.kind](ds, ds.dx, ds.num_classes, mix_seed(cfg.seed, 0xDA7A))


def _build_partition(cfg: ExperimentConfig, g: graphs.Graph) -> graphs.Partition:
    ps = cfg.partition
    seed = mix_seed(cfg.seed, 0x9A47)
    if ps.kind == "bisection":
        return graphs.partition_bisection(g, cfg.num_clients, seed)
    if ps.kind == "louvain":
        return graphs.partition_louvain_merge(g, cfg.num_clients, seed)
    if ps.kind == "overlap":
        return graphs.sample_overlap_clients(g, ps.base_parts, ps.copies_per_part,
                                             ps.frac, seed)
    if ps.kind == "file":
        return graphs.load_partition_csv(os.path.join(cfg.dataset.path, "partition.csv"),
                                         g.num_nodes)
    raise ValueError(f"unknown partition kind {ps.kind!r}")


def _build_reference(cfg: ExperimentConfig, d_x: int) -> graphs.Graph:
    # two classes for every kind: the reference graph's labels are never read
    rs = cfg.reference
    return graphs.GENERATORS[rs.kind](rs, d_x, 2, mix_seed(cfg.seed, 0x4EF))


def infer_clusters(cfg: ExperimentConfig, part: graphs.Partition) -> list | None:
    """Ground-truth client clusters when derivable from the setup."""
    if cfg.partition.kind == "overlap":
        return [i // cfg.partition.copies_per_part for i in range(part.K)]
    if cfg.dataset.kind == "sbm":
        # majority block of each client's nodes
        bs = cfg.dataset.block_size
        out = []
        for nodes in part.client_node_lists:
            blocks = np.asarray(nodes) // bs
            out.append(int(np.bincount(blocks).argmax()))
        return out
    return None


def _evaluate(state: ClientState, params: gcn.GcnParams) -> dict:
    """Accuracy on the full (unmasked) local subgraph for all three splits.

    One argmax over all nodes; each split's accuracy is its share of hits, as
    `gcn.accuracy` computes it, or NaN for an empty split.
    """
    g = state.graph
    emb = gcn.forward(params, g.adjacency.unmasked, g.features, g.unmasked_ax)
    hit = np.argmax(emb.H2, axis=1) == g.labels
    out = {}
    for which in (graphs.TRAIN, graphs.VAL, graphs.TEST):
        m = state.split.mask(which)
        n = int(np.count_nonzero(m))
        out[which] = int(np.count_nonzero(hit & m)) / n if n else float("nan")
    return out


def _client_metrics(state: ClientState, params: gcn.GcnParams, loss, tau) -> dict:
    """One row of metrics.csv: the loss and tau given, accuracies of params."""
    accs = _evaluate(state, params)
    return {"client": state.client_id, "train_loss": loss,
            "train_acc": accs[graphs.TRAIN], "val_acc": accs[graphs.VAL],
            "test_acc": accs[graphs.TEST], "tau": tau}


def _train_epochs(state: ClientState, cfg: ExperimentConfig, method: Method,
                  lam: float) -> float:
    """cfg.epochs of local training from state.params; returns the final epoch's loss."""
    g, anchor = state.graph, state.params  # read only: adam_step returns new arrays
    trained, adam, mask = state.params, state.adam, state.mask
    beta = cfg.fed.beta if method.prox else 0.0
    use_logits = cfg.ies.embeddings == "logits"
    train_mask = state.split.mask(graphs.TRAIN)
    loss = float("nan")
    for _ in range(cfg.epochs):
        if method.mask:  # training and reconstruction share this epoch's A·X
            adj = g.adjacency.normalized(mask)
            AX = adj @ g.features
        else:
            adj, AX = g.adjacency.unmasked, g.unmasked_ax
        loss, grads = gcn.loss_and_grads(trained, adj, g.features, g.labels,
                                         train_mask, anchor, beta, AX)
        trained, adam = gcn.adam_step(trained, grads, adam, cfg.model.lr)
        if method.mask and g.num_edges:
            recon = ies.model_reconstruction(trained, adj, g, use_logits, AX)
            mask = ies.mask_step(mask, recon, lam, cfg.ies.gamma, cfg.ies.lr_train,
                                 cfg.ies.steps)
    state.trained, state.adam, state.mask = trained, adam, mask
    return loss


def local_training_stage(state: ClientState, t: int, cfg: ExperimentConfig,
                         method: Method) -> float:
    """Run round t of local training; returns the final epoch's loss."""
    return _train_epochs(state, cfg, method, ies.g_lambda(cfg.ies.zeta, cfg.rounds, t))


def server_aggregation_stage(states: list, ref: graphs.Graph, t: int,
                             cfg: ExperimentConfig):
    """Indicators, similarity, per-client tau and personalized aggregation.

    Returns (similarity, alpha, taus, recons): recons[k] is client k's
    reconstruction of the reference edges that stepped its `ref_mask`. Writes
    each state's stepped `ref_mask`, and its aggregated `params` for round t+1.
    """
    use_logits = cfg.ies.embeddings == "logits"
    lam = ies.g_lambda(cfg.ies.zeta, cfg.rounds, t)
    indicators, recons = [], []
    for k, st in enumerate(states):
        st.ref_mask, u, recon = server.build_indicator(
            ref, st.trained, st.ref_mask, lam, cfg.ies.gamma, cfg.ies.lr_aggr,
            cfg.ies.steps, cfg.fed.prune_frac, use_logits)
        if not np.any(u):
            raise ValueError(f"zero indicator for client {k} at round {t}")
        indicators.append(u)
        recons.append(recon)
    sim = server.similarity_matrix(indicators)
    adaptive = cfg.fed.tau == "adaptive"
    taus = [st.tau_state.tau if adaptive else float(cfg.fed.tau) for st in states]
    alpha = np.array([server.softmax_weights(row, tau) for row, tau in zip(sim, taus)])
    for st in states:  # release the models that entered the round before building K new ones
        st.params = None
    mixed = server.aggregate(alpha, [st.trained for st in states])
    for st, params in zip(states, mixed):
        st.params = params
        if adaptive and t % cfg.fed.tau_update_interval == 0:
            val = _evaluate(st, st.params)[graphs.VAL]
            if np.isfinite(val):
                st.tau_state = server.tau_step(st.tau_state, val, cfg.fed)
    return sim, alpha, taus, recons


def _size_weighted_mean(states: list) -> gcn.GcnParams:
    """Mean of the clients' trained models, weighted by their node counts."""
    sizes = np.array([st.graph.num_nodes for st in states], dtype=np.float64)
    return gcn.weighted_sum(sizes / sizes.sum(), [st.trained for st in states])


def warmup(states: list, cfg: ExperimentConfig, init_params: gcn.GcnParams) -> gcn.GcnParams:
    """FedProx pre-training of a shared model (returned), then per-client mask warm-up.

    The pre-training leaves each client's initial mask as it is; the warm-up
    steps it. Only the masks keep warm-up state; GNN parameters are reset afterwards.
    """
    pretrained = init_params
    for _ in range(cfg.warmup.rounds):
        for st in states:
            st.params = pretrained
            st.adam = gcn.init_adam(pretrained)
            _train_epochs(st, cfg, METHODS["FedProx"], 0.0)
        pretrained = _size_weighted_mean(states)

    lam = ies.g_lambda(cfg.ies.zeta, cfg.rounds, 1)
    use_logits = cfg.ies.embeddings == "logits"
    for st in states:
        st.mask = ies.warmup_mask(st.graph, st.mask, pretrained, lam, cfg.ies.gamma,
                                  cfg.ies.lr_train, cfg.warmup.steps, use_logits)
        st.params = st.trained = init_params
        st.adam = gcn.init_adam(init_params)
    return pretrained


def _write_matrix(path: str, mats: list):
    """The matrices `mats` stacked in order, a line per row: one `graphs.write_rows`
    per matrix, so no stacked copy is made."""
    with open(path, "w", newline="\n") as f:
        for mat in mats:
            graphs.write_rows(f, list(mat.T))


def reference_recon_header(num_clients: int) -> str:
    """Header of `refrecon_round_{t}.csv`: the edge, then one column per client."""
    return "u,v," + ",".join(f"client_{k}" for k in range(num_clients))


def _dump_reference_recon(out_dir: str, ref: graphs.Graph, recons: list, t: int):
    """One file for the round: the reference edges once, then in column
    `client_k` the reconstruction `recons[k]` that round t's server step made
    of them with client k's model and the reference mask entering that step."""
    with open(os.path.join(out_dir, f"refrecon_round_{t}.csv"), "w", newline="\n") as f:
        f.write(reference_recon_header(len(recons)) + "\n")
        graphs.write_rows(f, [ref.edges[:, 0], ref.edges[:, 1], *recons])


def _dump_masks(out_dir: str, states: list, t: int):
    for k, st in enumerate(states):
        path = os.path.join(out_dir, f"mask_round_{t}_client_{k}.csv")
        with open(path, "w", newline="\n") as f:
            f.write("u,v,weight\n")
            graphs.write_rows(f, [st.graph.edges[:, 0], st.graph.edges[:, 1], st.mask])


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   config_path: str | None = None) -> RunResult:
    """Execute a full federated run and optionally write all artifacts."""
    cfg.validate()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    g = _build_dataset(cfg)
    part = _build_partition(cfg, g)
    if part.K != cfg.num_clients:
        raise ValueError(f"partition has {part.K} clients, config says {cfg.num_clients}")
    clusters = infer_clusters(cfg, part)

    init_p = gcn.init_params(g.d_x, cfg.model.hidden, g.num_classes,
                             mix_seed(cfg.seed, 0x1417))
    states = []
    for k, nodes in enumerate(part.client_node_lists):
        sub = graphs.induced_subgraph(g, nodes)
        split = graphs.make_splits(sub, cfg.split_ratios, mix_seed(cfg.seed, k, 0x5B17))
        states.append(ClientState(
            client_id=k, graph=sub, split=split,
            params=init_p, trained=init_p,
            mask=np.full(sub.num_edges, float(cfg.ies.init_value)),
            adam=gcn.init_adam(init_p), tau_state=server.TauState(tau=cfg.fed.tau_init)))

    method = METHODS[cfg.method]
    use_similarity = method.aggregation == "similarity"
    if method.mask:
        warmup(states, cfg, init_p)

    ref = None
    if use_similarity:
        ref = _build_reference(cfg, g.d_x)
        for st in states:
            st.ref_mask = np.full(ref.num_edges, float(cfg.ies.init_value))

    dump_rounds = set(dump_rounds_of(cfg.dump_rounds, cfg.rounds)) if out_dir else set()
    records = []
    for t in range(1, cfg.rounds + 1):
        sim = alpha = recons = None  # the last round's reconstructions die here
        taus = [None] * len(states)
        losses = [local_training_stage(st, t, cfg, method) for st in states]
        if use_similarity:
            sim, alpha, taus, recons = server_aggregation_stage(states, ref, t, cfg)
        elif method.aggregation == "mean":
            global_p = _size_weighted_mean(states)
            for st in states:
                st.params = global_p
        else:  # "none": each client keeps its own model
            for st in states:
                st.params = st.trained

        metrics = [_client_metrics(st, st.trained, loss, tau)
                   for st, loss, tau in zip(states, losses, taus)]
        prop = None
        if sim is not None and clusters is not None:
            prop = same_cluster_weight_proportion(sim, clusters)
        records.append(RoundRecord(round=t, client_metrics=metrics, similarity=sim,
                                   alpha=alpha, same_cluster_proportion=prop))

        if t in dump_rounds:
            if method.mask:
                _dump_masks(out_dir, states, t)
            if use_similarity:
                _dump_reference_recon(out_dir, ref, recons, t)

    final = (records[-1].client_metrics if records
             else [_client_metrics(st, st.params, None, None) for st in states])

    def _stats(key):
        vals = np.array([m[key] for m in final], dtype=np.float64)
        vals = vals[np.isfinite(vals)]
        if not vals.size:  # no client has a node in this split
            return None, None
        return float(vals.mean()), float(vals.std(ddof=1)) if vals.size > 1 else 0.0

    summary = {
        "manifest": {
            "config_path": config_path,
            "tool_version": __version__,
            "versions": {"numpy": np.__version__, "scipy": gcn.scipy_version()},
        },
        "config": to_dict(cfg),
        "seed": cfg.seed,
        "clusters": clusters,
        # RFC 8259 has no NaN: a split with no node gives null, not metrics.csv's nan
        "final": {"per_client": [
            {key: None if isinstance(v, float) and not math.isfinite(v) else v
             for key, v in m.items()} for m in final]},
    }
    for key in ("train_acc", "val_acc", "test_acc"):
        mean, std = _stats(key)
        summary["final"][f"{key}_mean"] = mean
        summary["final"][f"{key}_std"] = std

    if out_dir is not None:
        with open(os.path.join(out_dir, "metrics.csv"), "w", newline="\n") as f:
            f.write("round,client,train_loss,train_acc,val_acc,test_acc,tau\n")
            ms = [m for rec in records for m in rec.client_metrics]
            columns = [[rec.round for rec in records for _ in rec.client_metrics]]
            columns += [["" if m[key] is None else m[key] for m in ms] for key in
                        ("client", "train_loss", "train_acc", "val_acc", "test_acc", "tau")]
            graphs.write_rows(f, columns)
        with open(os.path.join(out_dir, "summary.json"), "w") as f:
            json.dump(summary, f, indent=2, allow_nan=False)
            f.write("\n")
        if use_similarity and records:  # round t's K rows follow round t-1's
            _write_matrix(os.path.join(out_dir, "similarity_round_all.csv"),
                          [rec.similarity for rec in records])
            _write_matrix(os.path.join(out_dir, "alpha_round_all.csv"),
                          [rec.alpha for rec in records])

    return RunResult(records=records, summary=summary, clusters=clusters)
