import heapq
import itertools
import tracemalloc

import numpy as np
import pytest

from subfedsim import config, experiment, graphs


def edge_set(g):
    return {tuple(e) for e in g.edges}


class TestGenerators:
    def test_sbm_no_cross_edges(self):
        g = graphs.generate_sbm(5, 100, 0.1, 0.0, 16, 5, seed=7)
        assert g.num_nodes == 500
        block = g.edges // 100
        assert np.all(block[:, 0] == block[:, 1])

    def test_sbm_complete_triangle(self):
        g = graphs.generate_sbm(1, 3, 1.0, 0.0, 2, 2, seed=0)
        assert edge_set(g) == {(0, 1), (0, 2), (1, 2)}

    def test_sbm_edge_count_matches_binomial_oracle(self):
        # 2 blocks x 50, p_in=0.1: E = 2*C(50,2)*0.1 = 245, Var = n_pairs*p*(1-p)
        n_pairs = 2 * 50 * 49 // 2
        p = 0.1
        counts = [graphs.generate_sbm(2, 50, p, 0.0, 2, 2, seed=s).num_edges
                  for s in range(1000)]
        mean = np.mean(counts)
        sigma_mean = np.sqrt(n_pairs * p * (1 - p) / 1000)
        assert abs(mean - n_pairs * p) < 3 * sigma_mean

    def test_sbm_labels_are_block_mod_classes(self):
        g = graphs.generate_sbm(5, 10, 0.2, 0.0, 2, 3, seed=1)
        assert np.array_equal(g.labels, (np.arange(50) // 10) % 3)

    def test_sbm_invalid_args(self):
        with pytest.raises(ValueError):
            graphs.generate_sbm(0, 10, 0.1, 0.0, 2, 2, seed=0)
        with pytest.raises(ValueError):
            graphs.generate_sbm(2, 10, 1.5, 0.0, 2, 2, seed=0)

    def test_er_extremes(self):
        assert graphs.generate_er(10, 0.0, 2, 2, seed=0).num_edges == 0
        assert graphs.generate_er(10, 1.0, 2, 2, seed=0).num_edges == 45

    def test_er_edge_count_oracle(self):
        counts = [graphs.generate_er(100, 0.05, 2, 2, seed=s).num_edges
                  for s in range(1000)]
        n_pairs = 100 * 99 // 2
        sigma_mean = np.sqrt(n_pairs * 0.05 * 0.95 / 1000)
        assert abs(np.mean(counts) - 247.5) < 3 * sigma_mean

    def test_er_invalid_p(self):
        with pytest.raises(ValueError):
            graphs.generate_er(10, -0.1, 2, 2, seed=0)

    def test_ba_seed_graph_only(self):
        g = graphs.generate_ba(4, 3, 2, 2, seed=0)
        assert g.num_edges == 6  # complete K4 seed, no growth steps

    def test_ba_edge_count_exact(self):
        for n, m in [(50, 2), (30, 3)]:
            g = graphs.generate_ba(n, m, 2, 2, seed=5)
            assert g.num_edges == (m + 1) * m // 2 + (n - m - 1) * m

    def test_ba_heavy_tail(self):
        hits = 0
        for s in range(100):
            g = graphs.generate_ba(1000, 2, 2, 2, seed=s)
            deg = np.bincount(g.edges.ravel(), minlength=1000)
            if deg.max() >= deg.mean() * 3:
                hits += 1
        assert hits >= 90

    def test_ba_invalid_args(self):
        with pytest.raises(ValueError):
            graphs.generate_ba(3, 3, 2, 2, seed=0)

    def test_generators_deterministic(self):
        a = graphs.generate_sbm(3, 20, 0.2, 0.05, 4, 3, seed=42)
        b = graphs.generate_sbm(3, 20, 0.2, 0.05, 4, 3, seed=42)
        assert a == b


def modularity(g, labels):
    """Newman's modularity, resolution 1, of the partition given by node labels."""
    m = g.num_edges
    same = labels[g.edges[:, 0]] == labels[g.edges[:, 1]]
    tot = np.bincount(labels, np.bincount(g.edges.ravel(), minlength=g.num_nodes))
    return same.sum() / m - (tot @ tot) / (4 * m * m)


def two_cliques(size=10, num=2, seed=0):
    """Disjoint cliques of `size` nodes each."""
    n = size * num
    edges = []
    for c in range(num):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((base + i, base + j))
    rng = np.random.default_rng(seed)
    return graphs.Graph(n, rng.standard_normal((n, 3)),
                        np.arange(n) // size % 2, np.array(edges), 2)


class TestPartitioners:
    def test_bisection_two_cliques(self):
        g = two_cliques()
        part = graphs.partition_bisection(g, 2, seed=3)
        sets = [set(p) for p in part.client_node_lists]
        assert {frozenset(s) for s in sets} == {frozenset(range(10)),
                                               frozenset(range(10, 20))}

    def test_kernighan_lin_reports_side_grown_from_first(self):
        # equal halves: most of clique 0 starts in the first part
        g = two_cliques()
        first = np.isin(np.arange(20), [0, 1, 2, 3, 4, 5, 6, 7, 10, 11])
        grown = graphs._kernighan_lin(*graphs._csr(g.edges, 20), first)
        assert np.flatnonzero(grown).tolist() == list(range(10))

    def test_bisection_without_networkx_kl(self, monkeypatch):
        nx = pytest.importorskip("networkx")
        g = graphs.generate_sbm(2, 200, 0.08, 0.005, 4, 2, seed=0)
        expected = graphs.partition_bisection(g, 10, seed=1).client_node_lists

        def refuse(*args, **kwargs):
            raise AssertionError("networkx KL must not be called")

        monkeypatch.setattr(nx.algorithms.community, "kernighan_lin_bisection", refuse)
        assert graphs.partition_bisection(g, 10, seed=1).client_node_lists == expected

    def test_bisection_k1(self):
        g = two_cliques()
        part = graphs.partition_bisection(g, 1, seed=0)
        assert part.client_node_lists == [list(range(20))]

    def test_bisection_balance(self):
        g = graphs.generate_sbm(2, 200, 0.08, 0.005, 4, 2, seed=0)
        for K in (3, 7):
            part = graphs.partition_bisection(g, K, seed=1)
            sizes = [len(p) for p in part.client_node_lists]
            assert max(sizes) / min(sizes) <= 1.25
            assert sorted(sum(part.client_node_lists, [])) == list(range(400))

    def test_bisection_cora_scale(self):
        g = graphs.generate_sbm(7, 355, 0.01, 0.001, 4, 7, seed=0)
        part = graphs.partition_bisection(g, 10, seed=2)
        sizes = [len(p) for p in part.client_node_lists]
        assert sum(sizes) == 2485
        assert all(abs(s - 248.5) < 25 for s in sizes)

    def test_bisection_invalid_k(self):
        g = two_cliques()
        with pytest.raises(ValueError):
            graphs.partition_bisection(g, 21, seed=0)

    def test_louvain_two_cliques(self):
        g = two_cliques()
        part = graphs.partition_louvain_merge(g, 2, seed=3)
        assert {frozenset(p) for p in part.client_node_lists} == \
            {frozenset(range(10)), frozenset(range(10, 20))}

    def test_louvain_four_cliques_merge_pairs(self):
        g = two_cliques(size=8, num=4)
        part = graphs.partition_louvain_merge(g, 2, seed=5)
        for p in part.client_node_lists:
            cliques = {u // 8 for u in p}
            assert len(cliques) == 2 and len(p) == 16

    def test_louvain_k1(self):
        g = two_cliques()
        part = graphs.partition_louvain_merge(g, 1, seed=0)
        assert part.client_node_lists == [list(range(20))]

    def test_louvain_splits_when_too_few_communities(self):
        g = two_cliques(size=12, num=2)
        part = graphs.partition_louvain_merge(g, 4, seed=1)
        assert part.K == 4
        assert sorted(sum(part.client_node_lists, [])) == list(range(24))

    def test_louvain_edgeless_graph_keeps_singletons(self):
        g = graphs.generate_er(7, 0.0, 2, 2, seed=0)
        assert graphs._louvain(g.edges, 7, seed=0).tolist() == list(range(7))
        part = graphs.partition_louvain_merge(g, 3, seed=0)
        assert sorted(map(len, part.client_node_lists)) == [2, 2, 3]
        assert sorted(sum(part.client_node_lists, [])) == list(range(7))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_louvain_modularity_matches_networkx(self, seed):
        nx = pytest.importorskip("networkx")
        g = graphs.generate_sbm(2, 200, 0.08, 0.005, 16, 2, seed=seed)
        ours = modularity(g, graphs._louvain(g.edges, g.num_nodes, seed))
        G = nx.Graph()
        G.add_nodes_from(range(g.num_nodes))
        G.add_edges_from(g.edges.tolist())
        labels = np.zeros(g.num_nodes, dtype=np.int64)
        for c, members in enumerate(nx.community.louvain_communities(G, seed=seed)):
            labels[list(members)] = c
        assert ours == pytest.approx(modularity(g, labels), abs=0.01)

    def test_overlap_counts_and_grouping(self):
        g = two_cliques(size=20, num=2)
        part = graphs.sample_overlap_clients(g, 2, 5, 0.5, seed=4)
        assert part.K == 10
        # overlapping: some node is in two clients' lists
        seen = [u for p in part.client_node_lists for u in p]
        assert len(set(seen)) < len(seen)
        # clients 0-4 drawn from one base part, 5-9 from the other
        first = {u // 20 for p in part.client_node_lists[:5] for u in p}
        second = {u // 20 for p in part.client_node_lists[5:] for u in p}
        assert len(first) == 1 and len(second) == 1 and first != second
        assert all(len(p) == 10 for p in part.client_node_lists)

    def test_overlap_full_frac_single_copy(self):
        g = two_cliques()
        base = graphs.partition_bisection(g, 2, seed=0)
        part = graphs.sample_overlap_clients(g, 2, 1, 1.0, seed=0)
        assert {frozenset(p) for p in part.client_node_lists} == \
            {frozenset(p) for p in base.client_node_lists}

    def test_overlap_pairwise_overlap_oracle(self):
        # two samples of half a part overlap in ~ a quarter of the part
        g = two_cliques(size=40, num=2)
        overlaps = []
        for s in range(200):
            part = graphs.sample_overlap_clients(g, 2, 2, 0.5, seed=s)
            a, b = map(set, part.client_node_lists[:2])
            overlaps.append(len(a & b))
        assert abs(np.mean(overlaps) - 10.0) < 1.0  # hypergeometric mean 20*20/40

    def test_overlap_invalid_frac(self):
        with pytest.raises(ValueError):
            graphs.sample_overlap_clients(two_cliques(), 2, 2, 0.0, seed=0)


class TestSplits:
    def test_244_counts(self):
        g = graphs.generate_sbm(2, 50, 0.1, 0.0, 2, 2, seed=0)
        split = graphs.make_splits(g, (2, 4, 4), seed=1)
        counts = {t: split.tags.count(t) for t in ("train", "val", "test")}
        assert counts == {"train": 20, "val": 40, "test": 40}

    def test_all_train(self):
        g = graphs.generate_er(10, 0.3, 2, 2, seed=0)
        split = graphs.make_splits(g, (1, 0, 0), seed=0)
        assert all(t == "train" for t in split.tags)

    def test_per_class_ratio_within_one(self):
        g = graphs.generate_sbm(7, 30, 0.2, 0.0, 2, 7, seed=3)
        split = graphs.make_splits(g, (2, 4, 4), seed=5)
        for cls in range(7):
            members = np.flatnonzero(g.labels == cls)
            n = members.size
            for tag, r in zip(("train", "val", "test"), (0.2, 0.4, 0.4)):
                got = sum(split.tags[u] == tag for u in members)
                assert abs(got - r * n) <= 1

    def test_tags_partition_nodes(self):
        g = graphs.generate_er(57, 0.1, 2, 3, seed=2)
        split = graphs.make_splits(g, (2, 4, 4), seed=2)
        assert all(t in ("train", "val", "test") for t in split.tags)
        assert len(split.tags) == 57

    def test_tiny_class_train_first(self):
        g = graphs.Graph(4, np.zeros((4, 2)), np.array([0, 0, 0, 1]),
                         np.array([(0, 1)]), 2)
        with pytest.warns(UserWarning):
            split = graphs.make_splits(g, (2, 4, 4), seed=0)
        assert split.tags[3] == "train"

    def test_masks_match_tags_and_are_read_only(self):
        g = graphs.generate_er(57, 0.1, 2, 3, seed=2)
        split = graphs.make_splits(g, (2, 4, 4), seed=2)
        for which in (graphs.TRAIN, graphs.VAL, graphs.TEST):
            m = split.mask(which)
            assert m.dtype == bool
            assert np.array_equal(m, np.array([t == which for t in split.tags]))
            assert split.mask(which) is m  # built once
            with pytest.raises(ValueError, match="read-only"):
                m[0] = not m[0]
        with pytest.raises(ValueError, match="unknown split tag"):
            split.mask("holdout")


def reference_save_graph_dir(g: graphs.Graph, path):
    """The per-node writer that `save_graph_dir` replaced, kept as the oracle of its bytes."""
    path.mkdir(parents=True, exist_ok=True)
    with open(path / "nodes.csv", "w", newline="\n") as f:
        f.write("id,label," + ",".join(f"f{i}" for i in range(g.d_x)) + "\n")
        for i in range(g.num_nodes):
            feats = ",".join(repr(float(x)) for x in g.features[i])
            f.write(f"{i},{g.labels[i]},{feats}\n")
    with open(path / "edges.csv", "w", newline="\n") as f:
        f.write("src,dst\n")
        for u, v in g.edges:
            f.write(f"{u},{v}\n")


@pytest.mark.parametrize("g", [
    graphs.generate_sbm(3, 200, 0.05, 0.002, 5, 3, seed=1),  # 600 nodes: three blocks
    graphs.generate_er(300, 0.02, 1, 2, seed=2),
    graphs.generate_er(5, 0.0, 2, 2, seed=0),  # no edge
    graphs.generate_ba(257, 3, 4, 2, seed=3),
], ids=["sbm", "er", "er-edgeless", "ba"])
def test_save_graph_dir_matches_per_node_writer(tmp_path, g):
    graphs.save_graph_dir(g, str(tmp_path / "new"))
    reference_save_graph_dir(g, tmp_path / "ref")
    for name in ("nodes.csv", "edges.csv"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_headerless_read_takes_its_width_from_the_first_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("\n1,2\n\n3,4\n5\n")
    rows = graphs._read_csv(str(path), None)
    assert next(rows) == (2, ["1", "2"])
    assert next(rows) == (4, ["3", "4"])
    with pytest.raises(graphs.GraphParseError, match=r"m\.csv:5: expected 2 fields, got 1$"):
        next(rows)
    path.write_text("")
    assert list(graphs._read_csv(str(path), None)) == []


class TestGraphDir:
    def test_round_trip_identity(self, tmp_path):
        g = graphs.Graph(3, np.array([[0.1, -2.5], [1 / 3, 7.0], [0.0, 1e-17]]),
                         np.array([0, 1, 0]), np.array([(0, 1), (1, 2)]), 2)
        graphs.save_graph_dir(g, str(tmp_path))
        assert graphs.load_graph_dir(str(tmp_path)) == g

    def test_out_of_range_edge_errors_with_line(self, tmp_path):
        g = graphs.generate_er(4, 0.0, 2, 2, seed=0)
        graphs.save_graph_dir(g, str(tmp_path))
        with open(tmp_path / "edges.csv", "a") as f:
            f.write("5,2\n")
        with pytest.raises(graphs.GraphParseError, match="edges.csv:2"):
            graphs.load_graph_dir(str(tmp_path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(graphs.GraphParseError, match="nodes.csv"):
            graphs.load_graph_dir(str(tmp_path))

    def test_ragged_row(self, tmp_path):
        g = graphs.generate_er(4, 0.5, 2, 2, seed=0)
        graphs.save_graph_dir(g, str(tmp_path))
        with open(tmp_path / "nodes.csv", "a") as f:
            f.write("9,1\n")
        with pytest.raises(graphs.GraphParseError, match="nodes.csv"):
            graphs.load_graph_dir(str(tmp_path))

    def test_featureless_header_errors_with_line(self, tmp_path):
        (tmp_path / "nodes.csv").write_text("id,label\n0,0\n1,1\n")
        (tmp_path / "edges.csv").write_text("src,dst\n0,1\n")
        with pytest.raises(graphs.GraphParseError,
                           match=r"nodes\.csv:1: expected at least one feature column"):
            graphs.load_graph_dir(str(tmp_path))

    def test_header_only_nodes_names_file(self, tmp_path):
        (tmp_path / "nodes.csv").write_text("id,label,f0\n")
        (tmp_path / "edges.csv").write_text("src,dst\n")
        with pytest.raises(graphs.GraphParseError, match=r"nodes\.csv: no node rows"):
            graphs.load_graph_dir(str(tmp_path))

    def test_directed_input_symmetrized(self, tmp_path):
        g = graphs.generate_er(4, 0.0, 2, 2, seed=0)
        graphs.save_graph_dir(g, str(tmp_path))
        with open(tmp_path / "edges.csv", "a") as f:
            f.write("2,0\n0,2\n")
        loaded = graphs.load_graph_dir(str(tmp_path))
        assert edge_set(loaded) == {(0, 2)}

    def test_cora_shaped_ingest(self, tmp_path):
        g = graphs.generate_sbm(7, 355, 0.005, 0.0005, 8, 7, seed=0)
        graphs.save_graph_dir(g, str(tmp_path))
        loaded = graphs.load_graph_dir(str(tmp_path))
        assert loaded.num_nodes == 2485 and loaded.num_classes == 7
        assert loaded == g

    def test_partition_csv_roundtrip(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_text("node,client\n0,1\n1,0\n2,1\n")
        part = graphs.load_partition_csv(str(path), 3)
        assert part.client_node_lists == [[1], [0, 2]]

    def test_partition_csv_negative_client_rejected(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_text("node,client\n0,0\n1,1\n2,-1\n")
        with pytest.raises(graphs.GraphParseError, match=r"partition\.csv:4: client id"):
            graphs.load_partition_csv(str(path), 3)

    def test_partition_csv_without_rows_rejected(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_text("node,client\n")
        with pytest.raises(graphs.GraphParseError, match=r"partition\.csv: no node,client"):
            graphs.load_partition_csv(str(path), 3)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_errors_with_line(self, tmp_path, value):
        g = graphs.generate_er(4, 0.5, 2, 2, seed=0)
        graphs.save_graph_dir(g, str(tmp_path))
        lines = (tmp_path / "nodes.csv").read_text().splitlines(keepends=True)
        lines[3] = f"2,0,0.5,{value}\n"
        (tmp_path / "nodes.csv").write_text("".join(lines))
        with pytest.raises(graphs.GraphParseError, match=r"nodes\.csv:4: features must be finite"):
            graphs.load_graph_dir(str(tmp_path))

    def test_negative_label_errors_with_line(self, tmp_path):
        g = graphs.generate_er(4, 0.5, 2, 2, seed=0)
        graphs.save_graph_dir(g, str(tmp_path))
        lines = (tmp_path / "nodes.csv").read_text().splitlines(keepends=True)
        lines[2] = "1,-1,0.5,0.5\n"
        (tmp_path / "nodes.csv").write_text("".join(lines))
        with pytest.raises(graphs.GraphParseError, match=r"nodes\.csv:3: label must be >= 0"):
            graphs.load_graph_dir(str(tmp_path))

    def test_partition_csv_duplicate_node_rejected(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_text("node,client\n0,0\n1,1\n0,1\n")
        with pytest.raises(graphs.GraphParseError, match=r"partition\.csv:4: node 0 is listed twice"):
            graphs.load_partition_csv(str(path), 2)

    def test_partition_csv_client_gap_rejected(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_text("node,client\n0,0\n1,2\n2,2\n")
        with pytest.raises(graphs.GraphParseError, match=r"partition\.csv: .*client 1 has no"):
            graphs.load_partition_csv(str(path), 3)

    def test_partition_csv_far_client_gap_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_text("node,client\n0,0\n1,1000000\n")
        tracemalloc.start()
        try:
            with pytest.raises(graphs.GraphParseError,
                               match=r"partition\.csv: .*0\.\.1000000 .*client 1 has no"):
                graphs.load_partition_csv(str(path), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("encode", [
        lambda text: text.replace("\n", "\r\n").encode(),
        lambda text: b"\xef\xbb\xbf" + text.encode(),
    ], ids=["crlf", "bom"])
    def test_crlf_and_bom_files_load_like_lf(self, tmp_path, encode):
        g = graphs.generate_er(6, 0.5, 3, 2, seed=0)
        graphs.save_graph_dir(g, str(tmp_path))
        for name in ("nodes.csv", "edges.csv"):
            path = tmp_path / name
            path.write_bytes(encode(path.read_text()))
        assert graphs.load_graph_dir(str(tmp_path)) == g
        text = "node,client\n0,1\n1,0\n\n2,1\n"
        lf, other = tmp_path / "lf.csv", tmp_path / "partition.csv"
        lf.write_text(text)
        other.write_bytes(encode(text))
        assert (graphs.load_partition_csv(str(other), 3).client_node_lists
                == graphs.load_partition_csv(str(lf), 3).client_node_lists)


class TestInducedSubgraphs:
    def test_edge_subset_and_relabel(self):
        g = two_cliques(size=4, num=2)
        sub = graphs.induced_subgraph(g, [1, 2, 3, 4])
        # nodes 1,2,3 form a clique; node 4 is from the other clique
        assert edge_set(sub) == {(0, 1), (0, 2), (1, 2)}
        assert np.array_equal(sub.features, g.features[[1, 2, 3, 4]])

    def test_nonoverlapping_edge_budget(self):
        g = graphs.generate_sbm(2, 100, 0.1, 0.02, 4, 2, seed=9)
        part = graphs.partition_bisection(g, 4, seed=0)
        total = sum(graphs.induced_subgraph(g, p).num_edges
                    for p in part.client_node_lists)
        assert total <= g.num_edges


# The code below is the heap / triu_indices / dict-loop implementation that the
# bucket-queue, streamed and lookup-array versions replaced; the new code must
# reproduce it byte for byte.

def reference_kernighan_lin(indptr, indices, first):
    ind, ptr = indices.tolist(), indptr.tolist()
    nbrs = [ind[ptr[u]:ptr[u + 1]] for u in range(len(ptr) - 1)]
    side = [bool(s) for s in first]
    for _ in range(graphs._KL_MAX_SWEEPS):
        moves = reference_kernighan_lin_sweep(nbrs, side)
        totals = [t for t, _, _ in moves]
        if not totals or min(totals) >= 0:
            break
        for _, u, v in moves[:totals.index(min(totals)) + 1]:
            side[u], side[v] = True, False
    return np.array(side, dtype=bool)


def reference_kernighan_lin_sweep(nbrs, side):
    cost = [sum(1 if side[v] == side[u] else -1 for v in nbrs[u]) for u in range(len(nbrs))]
    queued = [True] * len(nbrs)
    heaps = ([], [])
    order = itertools.count()
    for u, c in enumerate(cost):
        heaps[side[u]].append((c, next(order), u))
    for h in heaps:
        heapq.heapify(h)

    def move(heap):
        while True:
            c, _, u = heapq.heappop(heap)
            if queued[u] and cost[u] == c:
                queued[u] = False
                break
        s = side[u]
        for v in nbrs[u]:
            if queued[v]:
                cost[v] += -2 if side[v] == s else 2
                heapq.heappush(heaps[side[v]], (cost[v], next(order), v))
        return u, c

    moves, total = [], 0
    for _ in range(min(len(heaps[0]), len(heaps[1]))):
        u, cu = move(heaps[0])
        v, cv = move(heaps[1])
        total += cu + cv
        moves.append((total, u, v))
    return moves


def reference_pairs_to_edges(u, v):
    e = np.stack([u, v], axis=1).astype(np.int64)
    return e[np.lexsort((e[:, 1], e[:, 0]))]


def reference_generate_sbm(num_blocks, block_size, p_in, p_cross, d_x, num_classes, seed):
    rng = np.random.default_rng(seed)
    n = num_blocks * block_size
    block = np.arange(n) // block_size
    iu, iv = np.triu_indices(n, k=1)
    p = np.where(block[iu] == block[iv], p_in, p_cross)
    keep = rng.random(iu.shape[0]) < p
    edges = reference_pairs_to_edges(iu[keep], iv[keep])
    return graphs.Graph(n, rng.standard_normal((n, d_x)), block % num_classes, edges,
                        num_classes)


def reference_generate_er(num_nodes, p, d_x, num_classes, seed):
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(num_nodes, k=1)
    keep = rng.random(iu.shape[0]) < p
    edges = reference_pairs_to_edges(iu[keep], iv[keep])
    features = rng.standard_normal((num_nodes, d_x))
    labels = rng.integers(0, num_classes, size=num_nodes)
    return graphs.Graph(num_nodes, features, labels, edges, num_classes)


def reference_generate_ba(num_nodes, m, d_x, num_classes, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(m + 1) for v in range(u + 1, m + 1)]
    repeated = [x for e in edges for x in e]
    for new in range(m + 1, num_nodes):
        targets = set()
        while len(targets) < m:
            targets.add(repeated[rng.integers(0, len(repeated))])
        for t in sorted(targets):
            edges.append((t, new))
            repeated.extend((t, new))
    e = np.array(edges, dtype=np.int64)
    e = reference_pairs_to_edges(np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1]))
    features = rng.standard_normal((num_nodes, d_x))
    labels = rng.integers(0, num_classes, size=num_nodes)
    return graphs.Graph(num_nodes, features, labels, e, num_classes)


def reference_induced_subgraph(g, nodes):
    nodes = sorted(nodes)
    index = {u: i for i, u in enumerate(nodes)}
    kept = []
    for u, v in g.edges:
        if u in index and v in index:
            kept.append((index[u], index[v]))
    edges = np.array(kept, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    return graphs.Graph(len(nodes), g.features[nodes], g.labels[nodes], edges, g.num_classes)


def assert_same_graph_bytes(a, b):
    assert a.num_nodes == b.num_nodes and a.num_classes == b.num_classes
    for x, y in ((a.edges, b.edges), (a.features, b.features), (a.labels, b.labels)):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def with_isolated_nodes():
    """Two 10-cliques and ten nodes without edges."""
    g = two_cliques()
    rng = np.random.default_rng(1)
    return graphs.Graph(30, rng.standard_normal((30, 3)), np.arange(30) % 2, g.edges, 2)


class TestMatchesReference:
    @pytest.mark.parametrize("make, K, seed", [
        (lambda: graphs.generate_sbm(2, 20, 0.3, 0.05, 2, 2, seed=0), 2, 0),
        (with_isolated_nodes, 3, 1),
        (lambda: graphs.generate_er(50, 0.0, 2, 2, seed=0), 3, 2),
        (lambda: graphs.generate_er(300, 0.03, 2, 2, seed=1), 5, 0),
        (lambda: graphs.generate_ba(500, 2, 2, 2, seed=2), 4, 1),
        (lambda: graphs.generate_sbm(2, 200, 0.08, 0.005, 2, 2, seed=0), 10, 1),
        (lambda: graphs.generate_sbm(5, 100, 0.1, 0.0, 2, 2, seed=3), 7, 2),
        (lambda: graphs.generate_sbm(3, 300, 0.05, 0.01, 2, 2, seed=4), 3, 0),
        (lambda: graphs.generate_sbm(7, 355, 0.01, 0.001, 2, 7, seed=0), 10, 2),
        (lambda: graphs.generate_sbm(4, 1000, 0.02, 0.0005, 2, 2, seed=0), 16, 0),
    ])
    def test_bisection_matches_heap_kernighan_lin(self, monkeypatch, make, K, seed):
        g = make()
        got = graphs.partition_bisection(g, K, seed).client_node_lists
        monkeypatch.setattr(graphs, "_kernighan_lin", reference_kernighan_lin)
        assert got == graphs.partition_bisection(g, K, seed).client_node_lists

    def test_kernighan_lin_matches_heap_from_random_starts(self):
        g = graphs.generate_sbm(3, 40, 0.2, 0.02, 2, 2, seed=5)
        csr = graphs._csr(g.edges, g.num_nodes)
        rng = np.random.default_rng(0)
        for n1 in (1, 30, 60, 119):
            first = np.isin(np.arange(120), rng.permutation(120)[:n1])
            assert np.array_equal(graphs._kernighan_lin(*csr, first),
                                  reference_kernighan_lin(*csr, first))

    @pytest.mark.parametrize("args", [
        (1, 1, 0.5, 0.5), (1, 2, 1.0, 0.0), (2, 3, 0.0, 0.0), (2, 3, 1.0, 1.0),
        (3, 20, 0.2, 0.05), (5, 100, 0.1, 0.0), (3, 500, 1.0, 0.3),
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sbm_matches_triu_reference(self, args, seed):
        assert_same_graph_bytes(graphs.generate_sbm(*args, 3, 2, seed),
                                reference_generate_sbm(*args, 3, 2, seed))

    @pytest.mark.parametrize("n, p", [(1, 0.5), (2, 1.0), (10, 0.0), (10, 1.0),
                                      (100, 0.05), (1500, 1.0), (1500, 0.01)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_er_matches_triu_reference(self, n, p, seed):
        if n == 1500:  # 1,124,250 pairs: the draws cross a block boundary
            assert n * (n - 1) // 2 > graphs._PAIR_BLOCK
        assert_same_graph_bytes(graphs.generate_er(n, p, 3, 3, seed),
                                reference_generate_er(n, p, 3, 3, seed))

    @pytest.mark.parametrize("block, kind, args", [
        *((b, kind, args) for b in (1, 7, 2**10, 2**16, 2**20)
          for kind, args in (("sbm", (3, 20, 0.2, 0.05)), ("er", (100, 0.05)))),
        # 400 nodes, 79,800 pairs: one block at 2**20, two at 2**16, 78 at 2**10
        *((b, kind, args) for b in (2**10, 2**16, 2**20)
          for kind, args in (("sbm", (2, 200, 0.08, 0.005)), ("er", (400, 0.01)))),
    ])
    def test_pair_block_size_leaves_bytes_unchanged(self, monkeypatch, block, kind, args):
        make, reference = {"sbm": (graphs.generate_sbm, reference_generate_sbm),
                           "er": (graphs.generate_er, reference_generate_er)}[kind]
        monkeypatch.setattr(graphs, "_PAIR_BLOCK", block)
        assert_same_graph_bytes(make(*args, 3, 2, 1), reference(*args, 3, 2, 1))

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (50, 1), (100, 2), (500, 2), (300, 5)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_ba_matches_pairs_to_edges_reference(self, n, m, seed):
        assert_same_graph_bytes(graphs.generate_ba(n, m, 3, 3, seed),
                                reference_generate_ba(n, m, 3, 3, seed))

    def test_subgraphs_match_dict_reference(self):
        g = graphs.generate_sbm(2, 100, 0.1, 0.02, 4, 2, seed=9)
        cases = [[], [17], list(range(g.num_nodes)), [0, 150]]
        assert g.edges.tolist().count([0, 150]) == 0  # an edgeless client
        cases += graphs.partition_bisection(g, 4, seed=0).client_node_lists
        cases += graphs.sample_overlap_clients(g, 2, 2, 0.5, seed=1).client_node_lists
        cases.append([199, 3, 150, 42, 7])  # unsorted ids
        for nodes in cases:
            assert_same_graph_bytes(graphs.induced_subgraph(g, nodes),
                                    reference_induced_subgraph(g, nodes))
        # 64 clients of unequal sizes, a random disjoint partition of 2,000 nodes
        g = graphs.generate_er(2000, 0.002, 3, 2, seed=4)
        cuts = np.sort(np.random.default_rng(1).choice(np.arange(1, 2000), 63, replace=False))
        parts = np.split(np.random.default_rng(0).permutation(2000), cuts)
        for nodes in parts:  # unsorted ids
            assert_same_graph_bytes(graphs.induced_subgraph(g, nodes.tolist()),
                                    reference_induced_subgraph(g, nodes.tolist()))


def reference_csr(edges, n):
    """`_csr` by a two-key lexicographic sort of the (src, dst) entries."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.lexsort((dst, src))]


def scale16_graph():
    """The 4000-node dataset graph of the `cufl-scale16` benchmark at seed 0."""
    cfg = config.ExperimentConfig()
    cfg.dataset.blocks, cfg.dataset.block_size = 4, 1000
    cfg.dataset.p_in, cfg.dataset.p_cross = 0.02, 0.0005
    return experiment._build_dataset(cfg)


class TestCsr:
    @pytest.mark.parametrize("make", [
        lambda: graphs.generate_er(1, 0.5, 2, 2, seed=0),
        lambda: graphs.generate_er(10, 0.0, 2, 2, seed=0),
        lambda: graphs.generate_er(2, 1.0, 2, 2, seed=0),
        lambda: graphs.generate_er(300, 0.05, 2, 2, seed=1),
        lambda: graphs.generate_er(257, 0.5, 2, 2, seed=2),
        lambda: graphs.generate_ba(500, 3, 2, 2, seed=3),
        with_isolated_nodes,
        scale16_graph,
    ], ids=["1-node", "edgeless", "one-edge", "er", "dense-er", "ba", "isolated",
            "cufl-scale16"])
    def test_single_key_sort_matches_lexsort(self, make):
        g = make()
        for got, want in zip(graphs._csr(g.edges, g.num_nodes),
                             reference_csr(g.edges, g.num_nodes)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def sweep_inputs(g, first):
    """The neighbour lists, sides, costs and max degree `_kernighan_lin` gives a sweep."""
    indptr, indices = graphs._csr(g.edges, g.num_nodes)
    nbrs = [indices[indptr[u]:indptr[u + 1]].tolist() for u in range(g.num_nodes)]
    side = [bool(s) for s in first]
    cost = [sum(1 if side[v] == side[u] else -1 for v in nbrs[u]) for u in range(g.num_nodes)]
    return nbrs, side, cost, max(map(len, nbrs))


class TestBisectionSetUp:
    @pytest.mark.parametrize("make", [
        lambda: graphs.generate_sbm(3, 40, 0.2, 0.02, 2, 2, seed=5),
        lambda: graphs.generate_er(150, 0.04, 2, 2, seed=1),
        lambda: graphs.generate_ba(200, 3, 2, 2, seed=2),
        with_isolated_nodes,
    ])
    def test_sub_csr_matches_csr_of_relabeled_edges(self, make):
        g = make()
        n = g.num_nodes
        csr = graphs._csr(g.edges, n)
        rng = np.random.default_rng(0)
        isolated = np.flatnonzero(np.bincount(g.edges.ravel(), minlength=n) == 0)
        keeps = [np.zeros(n, dtype=bool), np.arange(n) == 7, np.ones(n, dtype=bool),
                 rng.random(n) < 0.5, rng.random(n) < 0.1]
        if isolated.size:  # a part that holds isolated nodes next to connected ones
            keeps.append(np.isin(np.arange(n), np.concatenate([isolated, [0, 1, 2, 3]])))
        for keep in keeps:
            nodes = np.flatnonzero(keep)
            want = graphs._csr(graphs._relabeled_edges(g, nodes), nodes.size)
            for got, ref in zip(graphs._sub_csr(*csr, keep), want):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("start", ["blocks", "random"])
    def test_sweep_ends_patience_pairs_after_its_last_new_minimum(self, seed, start):
        g = graphs.generate_sbm(2, 250, 0.04, 0.004, 2, 2, seed=seed)
        first = {"blocks": np.arange(500) < 250,
                 "random": np.isin(np.arange(500),
                                   np.random.default_rng(seed).permutation(500)[:250])}[start]
        nbrs, side, cost, max_deg = sweep_inputs(g, first)
        moves = graphs._kernighan_lin_sweep(nbrs, side, cost, max_deg)
        full = reference_kernighan_lin_sweep(nbrs, side)
        assert len(moves) < len(full) and moves == full[:len(moves)]
        best, last = 0, -1  # the running total's minimum so far starts at no move's 0
        for i, (total, _, _) in enumerate(moves):
            if total < best:
                best, last = total, i
        assert len(moves) == last + 1 + graphs._KL_PATIENCE
        if start == "random":  # the sweep found and kept its minimum before it ended
            assert best == min(t for t, _, _ in full) < 0

    @pytest.mark.parametrize("K, seed, expected", [
        (5, 0, [[0, 2, 5, 6, 9], list(range(20, 30)), [10, 13, 16, 18, 19],
                [1, 3, 4, 7, 8], [11, 12, 14, 15, 17]]),
        (6, 1, [[0, 1, 3, 4, 8], [13, 15, 16, 18, 19], [2, 5, 6, 7, 9],
                [10, 11, 12, 14, 17], [21, 22, 23, 27, 29], [20, 24, 25, 26, 28]]),
    ])
    def test_louvain_split_on_community_csr_keeps_partition(self, K, seed, expected):
        # three Louvain communities, so K = 5 and 6 split two and three of them
        g = graphs.generate_sbm(3, 10, 0.6, 0.02, 2, 3, seed=0)
        assert graphs.partition_louvain_merge(g, K, seed).client_node_lists == expected


class TestInducedSubgraphChecks:
    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            graphs.induced_subgraph(two_cliques(), [1, 2, 2])

    @pytest.mark.parametrize("nodes", [[0, 20], [-1, 3]])
    def test_out_of_range_node_rejected(self, nodes):
        with pytest.raises(ValueError, match="0..19"):
            graphs.induced_subgraph(two_cliques(), nodes)
