import numpy as np
import pytest

from subfedsim import graphs


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
        import networkx as nx
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

    def test_overlap_counts_and_grouping(self):
        g = two_cliques(size=20, num=2)
        part = graphs.sample_overlap_clients(g, 2, 5, 0.5, seed=4)
        assert part.K == 10 and part.overlapping
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

    def test_partition_csv_client_gap_rejected(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_text("node,client\n0,0\n1,2\n2,2\n")
        with pytest.raises(graphs.GraphParseError, match=r"partition\.csv: .*client 1 has no"):
            graphs.load_partition_csv(str(path), 3)


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
