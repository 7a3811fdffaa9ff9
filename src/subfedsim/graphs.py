"""Graph data model, synthetic generators, partitioners, splits and CSV ingestion."""

from __future__ import annotations

import math
import os
import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
# numpy 2 loads numpy.random lazily, at the first default_rng of a run; load it with the package
import numpy.random  # noqa: F401

from . import gcn

TRAIN = "train"
VAL = "val"
TEST = "test"

_TAGS = (TRAIN, VAL, TEST)


class GraphParseError(ValueError):
    """Raised when a graph directory fails to parse; message names file and line."""


@dataclass
class Graph:
    """Undirected simple graph with node features, labels and a sorted edge list."""

    num_nodes: int
    features: np.ndarray  # (num_nodes, d_x) float64
    labels: np.ndarray    # (num_nodes,) int
    edges: np.ndarray     # (num_edges, 2) int, u < v, lexicographically sorted
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def d_x(self) -> int:
        return self.features.shape[1]

    @cached_property
    def adjacency(self) -> gcn.Adjacency:
        """The `gcn.Adjacency` of the edges, built at first use: edges and features stay fixed."""
        return gcn.Adjacency(self.edges, self.num_nodes)

    @cached_property
    def unmasked_ax(self) -> np.ndarray:
        """A·X on the unmasked adjacency, computed at first use; it is read-only."""
        ax = self.adjacency.unmasked @ self.features
        ax.flags.writeable = False
        return ax

    def validate(self):
        if self.num_nodes < 1:
            raise ValueError("graph must have at least one node")
        if self.edges.size:
            if self.edges.min() < 0 or self.edges.max() >= self.num_nodes:
                raise ValueError("edge endpoint out of range")
            if np.any(self.edges[:, 0] >= self.edges[:, 1]):
                raise ValueError("edges must satisfy u < v (no self-loops)")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("label out of range")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.num_nodes == other.num_nodes
                and self.num_classes == other.num_classes
                and np.array_equal(self.features, other.features)
                and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.edges, other.edges))


@dataclass
class NodeSplit:
    """Per-node train/val/test tags and their boolean masks, built once and read-only."""

    tags: list  # length num_nodes, entries in {"train","val","test"}
    _masks: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._masks = {which: np.array([t == which for t in self.tags], dtype=bool)
                       for which in _TAGS}
        for m in self._masks.values():
            m.flags.writeable = False

    def mask(self, which: str) -> np.ndarray:
        if which not in _TAGS:
            raise ValueError(f"unknown split tag {which!r}")
        return self._masks[which]


@dataclass
class Partition:
    """Assignment of global nodes to K clients; a node may appear in several lists."""

    client_node_lists: list  # K lists of global node ids

    @property
    def K(self) -> int:
        return len(self.client_node_lists)


def _normalize_edges(raw: np.ndarray) -> np.ndarray:
    """Symmetrize, drop self-loops, dedupe and sort an edge array."""
    if raw.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    raw = np.asarray(raw, dtype=np.int64).reshape(-1, 2)
    keep = raw[:, 0] != raw[:, 1]
    raw = raw[keep]
    lo = np.minimum(raw[:, 0], raw[:, 1])
    hi = np.maximum(raw[:, 0], raw[:, 1])
    e = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return e


# Pairs drawn per `rng.random` call by `_sample_pairs`; bounds its memory (1 MB of
# draws). Smaller blocks cost per-call overhead, and glibc sets its mmap and trim
# thresholds from the largest block freed: at 2**16 (512 KB) they fall below the
# temporaries of the default 500-node reference graph, and a 10-client CUFL run
# takes ~10**5 more page faults in its rounds.
_PAIR_BLOCK = 2**17


def _sample_pairs(n: int, p_max: float, p_pair, rng: np.random.Generator) -> np.ndarray:
    """Edges (i, j), i < j, of independent pair draws on n nodes, lexicographically sorted.

    Walks the n(n-1)/2 upper-triangle pairs in row-major order with one uniform
    draw each, `_PAIR_BLOCK` draws at a time, and keeps a pair when its draw is
    below `p_pair(i, j)` (arrays of rows and columns in, probabilities at most
    `p_max` out). PCG64 doubles take one 64-bit output each, so this consumes the
    random stream exactly as one `rng.random(n * (n - 1) // 2)` call would.
    """
    row_start = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1), out=row_start[1:])
    total = n * (n - 1) // 2
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for b0 in range(0, total, _PAIR_BLOCK):
        draw = rng.random(min(_PAIR_BLOCK, total - b0))
        pos = np.flatnonzero(draw < p_max)
        i = np.searchsorted(row_start, pos + b0, side="right") - 1
        j = pos + b0 - row_start[i] + i + 1
        keep = draw[pos] < p_pair(i, j)
        edges.append(np.stack([i[keep], j[keep]], axis=1))
    return np.concatenate(edges)


def generate_sbm(num_blocks: int, block_size: int, p_in: float, p_cross: float,
                 d_x: int, num_classes: int, seed: int) -> Graph:
    """Stochastic block model with N(0,1) features and labels = block id mod num_classes."""
    if num_blocks < 1 or block_size < 1:
        raise ValueError("num_blocks and block_size must be >= 1")
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_cross <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    n = num_blocks * block_size
    edges = _sample_pairs(
        n, max(p_in, p_cross),
        lambda i, j: np.where(i // block_size == j // block_size, p_in, p_cross), rng)
    features = rng.standard_normal((n, d_x))
    labels = np.arange(n) // block_size % num_classes
    g = Graph(n, features, labels, edges, num_classes)
    g.validate()
    return g


def generate_er(num_nodes: int, p: float, d_x: int, num_classes: int, seed: int) -> Graph:
    """Erdős–Rényi graph; labels drawn uniformly at random."""
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    edges = _sample_pairs(num_nodes, p, lambda i, j: p, rng)
    features = rng.standard_normal((num_nodes, d_x))
    labels = rng.integers(0, num_classes, size=num_nodes)
    g = Graph(num_nodes, features, labels, edges, num_classes)
    g.validate()
    return g


def generate_ba(num_nodes: int, m: int, d_x: int, num_classes: int, seed: int) -> Graph:
    """Barabási–Albert preferential attachment starting from a complete (m+1)-seed."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if num_nodes <= m:
        raise ValueError("num_nodes must exceed m")
    rng = np.random.default_rng(seed)
    edges = []
    # complete seed graph on m+1 nodes
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            edges.append((u, v))
    # repeated-node list implements preferential attachment
    repeated = []
    for u, v in edges:
        repeated.extend((u, v))
    for new in range(m + 1, num_nodes):
        targets = set()
        while len(targets) < m:
            targets.add(repeated[rng.integers(0, len(repeated))])
        for t in sorted(targets):
            edges.append((t, new))
            repeated.extend((t, new))
    features = rng.standard_normal((num_nodes, d_x))
    labels = rng.integers(0, num_classes, size=num_nodes)
    g = Graph(num_nodes, features, labels, _normalize_edges(np.array(edges)), num_classes)
    g.validate()
    return g


# kind -> fn(spec, d_x, num_classes, seed). Each reads its own fields of `spec`: a
# config DatasetSpec or ReferenceSpec, or the `generate` command's arguments.
GENERATORS = {
    "sbm": lambda s, d_x, c, seed: generate_sbm(s.blocks, s.block_size, s.p_in, s.p_cross,
                                                d_x, c, seed),
    "er": lambda s, d_x, c, seed: generate_er(s.n, s.p, d_x, c, seed),
    "ba": lambda s, d_x, c, seed: generate_ba(s.n, s.m, d_x, c, seed),
}


def _csr(edges: np.ndarray, n: int) -> tuple:
    """Symmetric CSR arrays (indptr, indices) of an undirected edge list on n
    nodes; each row lists its neighbours in ascending order."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(edges.ravel(), minlength=n), out=indptr[1:])
    # the entries (u, v) and (v, u) of each edge as keys row * n + col: they
    # are distinct, so sorting them orders the entries by row, then column,
    # and each sorted key modulo n is its column
    key = np.concatenate([edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0]])
    key.sort()
    key %= n
    return indptr, key


def _sub_csr(indptr: np.ndarray, indices: np.ndarray, keep: np.ndarray) -> tuple:
    """CSR arrays of the subgraph induced by the nodes where boolean `keep` is
    set, each relabeled to its position among the kept nodes. The relabeling
    is monotone, so rows stay sorted: the arrays equal `_csr` of the
    relabeled edges without its sort."""
    rows = np.repeat(np.arange(keep.size), np.diff(indptr))
    entry = keep[rows] & keep[indices]
    local = np.cumsum(keep) - 1
    kept = np.count_nonzero(keep)
    sub_indptr = np.zeros(kept + 1, dtype=np.int64)
    np.cumsum(np.bincount(local[rows[entry]], minlength=kept), out=sub_indptr[1:])
    return sub_indptr, local[indices[entry]]


def _relabeled_edges(g: Graph, nodes: np.ndarray) -> np.ndarray:
    """Edges of `g` with both endpoints in sorted, distinct `nodes`, relabeled to
    positions in `nodes`. The relabeling is monotone, so the rows keep the
    lexicographic order of `g.edges`. Only the kept edges are relabeled."""
    keep = np.zeros(g.num_nodes, dtype=bool)
    keep[nodes] = True
    local = np.empty(g.num_nodes, dtype=np.int64)  # read only where `keep` is set
    local[nodes] = np.arange(nodes.size)
    return local[g.edges[keep[g.edges[:, 0]] & keep[g.edges[:, 1]]]]


_KL_MAX_SWEEPS = 20
# A sweep ends once this many pair moves in a row bring no new lowest cut.
_KL_PATIENCE = 100


def _kernighan_lin(indptr: np.ndarray, indices: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Kernighan–Lin refinement (Kernighan & Lin 1970) of the bisection `first`.

    Each sweep moves single nodes, alternating between the two parts so that
    both keep their sizes, and always takes the move that adds least to the
    edge cut; bucket queues (Fiduccia & Mattheyses 1982) keep those costs. A
    sweep ends when every node of the smaller part has moved, or, as in
    Fiduccia & Mattheyses, once `_KL_PATIENCE` pair moves in a row have not
    lowered the running total below its minimum so far (0 before any move).
    The shortest prefix of moves with the lowest total is then applied.
    Sweeps repeat until none lowers the cut, at most `_KL_MAX_SWEEPS` times.
    Nodes and neighbours are visited in ascending id, and equal costs leave
    in the order they were queued, so the result depends on the inputs alone.

    Without the early exit this is the procedure of networkx 3.6's
    `kernighan_lin_bisection` for unit weights. The exit keeps that result
    wherever each sweep reaches its minimum within fewer than `_KL_PATIENCE`
    non-improving pair moves in a row; on a graph with a longer non-improving
    run before a sweep's minimum, the partition can differ.

    Returns a boolean array marking the part grown from `first`.
    """
    n = indptr.size - 1
    deg = np.diff(indptr)
    rows = np.repeat(np.arange(n), deg)
    # the lists share one int object per node, not one per entry
    ind, ptr = np.array(range(n), dtype=object)[indices].tolist(), indptr.tolist()
    nbrs = [ind[ptr[u]:ptr[u + 1]] for u in range(n)]
    max_deg = int(deg.max(initial=0))
    side = np.array(first, dtype=bool)
    for _ in range(_KL_MAX_SWEEPS):
        # cost = edges kept inside the node's part - edges cut
        cut = side[rows] != side[indices]
        cost = (deg - 2 * np.bincount(rows[cut], minlength=n)).tolist()
        moves = _kernighan_lin_sweep(nbrs, side.tolist(), cost, max_deg)
        totals = [t for t, _, _ in moves]
        if not totals or min(totals) >= 0:
            break
        for _, u, v in moves[:totals.index(min(totals)) + 1]:
            side[u], side[v] = True, False
    return side


def _kernighan_lin_sweep(nbrs: list, side: list, cost: list, max_deg: int) -> list:
    """One sweep of alternating single-node moves from the starting `cost` of
    each node: (running cut change, u, v) per pair, u moving into the `first`
    part and v out of it. The sweep stops after `_KL_PATIENCE` pairs in a row
    that bring the running change no lower than its minimum so far, counting
    the 0 of no move, so its moves are a prefix of the full sweep's.

    Each part queues its nodes in FIFO buckets indexed by key = cost + max_deg
    and scans up from its lowest non-empty bucket, so nodes leave in (cost,
    queue order). A key update queues the node again; entries made stale by a
    later update are skipped when they reach the front.
    """
    key = [c + max_deg for c in cost]
    queued = [True] * len(nbrs)
    buckets = tuple([deque() for _ in range(2 * max_deg + 1)] for _ in range(2))
    for u, k in enumerate(key):
        buckets[side[u]][k].append(u)
    lowest = [0, 0]

    def move(s):
        """Dequeue the cheapest queued node of part `s`, update its queued neighbours."""
        own, other, b = buckets[s], buckets[not s], lowest[s]
        while True:
            while not own[b]:
                b += 1
            u = own[b].popleft()
            if queued[u] and key[u] == b:
                break
        queued[u] = False
        c = b - max_deg
        for v in nbrs[u]:
            if queued[v]:
                if side[v] == s:
                    k = key[v] = key[v] - 2
                    own[k].append(v)
                    if k < b:
                        b = k
                else:  # a key that grows leaves the other part's lowest bucket valid
                    k = key[v] = key[v] + 2
                    other[k].append(v)
        lowest[s] = b
        return u, c

    moves, total, best, since = [], 0, 0, 0
    for _ in range(min(side.count(False), side.count(True))):
        u, cu = move(False)
        v, cv = move(True)
        total += cu + cv
        moves.append((total, u, v))
        if total < best:
            best, since = total, 0
        else:
            since += 1
            if since == _KL_PATIENCE:
                break
    return moves


def _recursive_bisect(csr: tuple, nodes: np.ndarray, K: int, rng: np.random.Generator) -> list:
    """Split sorted `nodes` into K parts with proportional sizes via seeded KL
    bisection. `csr` holds the (indptr, indices) of the subgraph `nodes`
    induce, by position in `nodes`; each part is split on its own. The part
    grown from the first n1 nodes of a random permutation is split into the
    first K // 2 parts."""
    if K == 1:
        return [nodes.tolist()]
    k1 = K // 2
    k2 = K - k1
    n1 = round(len(nodes) * k1 / K)
    perm = rng.permutation(nodes)
    # Unused draw (networkx's KL once took it as a seed and ignored it). It
    # keeps the random stream, and so the partitions of earlier releases
    # wherever the KL split itself is unchanged.
    rng.integers(0, 2**31)
    first = _kernighan_lin(*csr, np.isin(nodes, perm[:n1]))
    return (_recursive_bisect(_sub_csr(*csr, first), nodes[first], k1, rng)
            + _recursive_bisect(_sub_csr(*csr, ~first), nodes[~first], k2, rng))


def partition_bisection(g: Graph, K: int, seed: int) -> Partition:
    """Non-overlapping recursive edge-cut bisection with greedy refinement."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > g.num_nodes:
        raise ValueError("K must not exceed the number of nodes")
    rng = np.random.default_rng(seed)
    return Partition(_recursive_bisect(_csr(g.edges, g.num_nodes), np.arange(g.num_nodes),
                                       K, rng))


# networkx's default: a Louvain level is kept while modularity rises by more than this.
_LOUVAIN_THRESHOLD = 1e-7


def _louvain(edges: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Community id of each of n nodes by the Louvain method (Blondel et al. 2008).

    Maximizes modularity at resolution 1, as networkx's `louvain_communities`
    does. Each level moves single nodes, in a random order drawn from `seed`,
    to the neighbouring community of highest gain until a pass moves none, then
    merges every community into one node whose self-loop holds its internal
    weight. Levels stop when one moves no node, or raises modularity by at most
    `_LOUVAIN_THRESHOLD` (its moves are kept). The result depends on the
    inputs alone.
    """
    rng = np.random.default_rng(seed)
    member = np.arange(n)
    m = float(edges.shape[0])
    if m == 0:
        return member
    indptr, nbr = _csr(edges, n)
    w, loops = np.ones(nbr.size), np.zeros(n)
    deg = np.diff(indptr).astype(np.float64)
    mod = -(deg @ deg) / (4 * m * m)
    while True:
        k = loops.size
        src = np.repeat(np.arange(k), np.diff(indptr))
        deg = np.bincount(src, w, k) + 2 * loops
        com = _louvain_moves(indptr, nbr, w, deg, m, rng.permutation(k))
        if com is None:
            return member
        ids, com = np.unique(com, return_inverse=True)
        kc = ids.size
        same = com[src] == com[nbr]
        loops = np.bincount(com, loops, kc) + np.bincount(com[src[same]], w[same], kc) / 2
        tot = np.bincount(com, deg, kc)
        member = com[member]
        new_mod = loops.sum() / m - (tot @ tot) / (4 * m * m)
        if new_mod - mod <= _LOUVAIN_THRESHOLD:
            return member
        mod = new_mod
        key, inv = np.unique(com[src[~same]] * kc + com[nbr[~same]], return_inverse=True)
        w, nbr = np.bincount(inv, w[~same]), key % kc
        indptr = np.zeros(kc + 1, dtype=np.int64)
        np.cumsum(np.bincount(key // kc, minlength=kc), out=indptr[1:])


def _louvain_moves(indptr, nbr, w, deg, m: float, order: np.ndarray):
    """One Louvain level's local moves over the weighted CSR graph (self-loops
    counted in `deg` only), visiting nodes in `order` each pass. A node joins the
    neighbouring community of highest gain, the first one met on ties, and
    stays unless some gain beats staying. Returns each node's community (a
    node id), or None if no node moved."""
    ptr, nb, wt, deg = indptr.tolist(), nbr.tolist(), w.tolist(), deg.tolist()
    adj = [list(zip(nb[ptr[u]:ptr[u + 1]], wt[ptr[u]:ptr[u + 1]])) for u in range(len(deg))]
    com, tot = list(range(len(deg))), deg.copy()  # tot: degree sum of each community
    half = 0.5 / m
    order, moved, changed = order.tolist(), True, False
    while moved:
        moved = False
        for u in order:
            c, d = com[u], deg[u]
            link = {}
            for v, x in adj[u]:
                cv = com[v]
                link[cv] = link.get(cv, 0.0) + x
            tot[c] -= d
            # modularity gain of joining community b, times m and up to a shared term
            best, best_gain = c, link.get(c, 0.0) - tot[c] * d * half
            for b, x in link.items():
                gain = x - tot[b] * d * half
                if gain > best_gain:
                    best, best_gain = b, gain
            tot[best] += d
            if best != c:
                com[u] = best
                moved = changed = True
    return com if changed else None


def partition_louvain_merge(g: Graph, K: int, seed: int) -> Partition:
    """Louvain communities randomly grouped down to exactly K parts."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > g.num_nodes:
        raise ValueError("K must not exceed the number of nodes")
    rng = np.random.default_rng(seed)
    labels = _louvain(g.edges, g.num_nodes, int(rng.integers(0, 2**31)))
    by_label = np.argsort(labels, kind="stable")
    comms = sorted(c.tolist() for c in
                   np.split(by_label, np.flatnonzero(np.diff(labels[by_label])) + 1))
    # fewer communities than K: split the largest by bisection until we have enough
    csr = _csr(g.edges, g.num_nodes) if len(comms) < K else None
    while len(comms) < K:
        comms.sort(key=len, reverse=True)
        big = comms.pop(0)
        keep = np.zeros(g.num_nodes, dtype=bool)
        keep[big] = True
        halves = _recursive_bisect(_sub_csr(*csr, keep), np.array(big), 2, rng)
        comms.extend(halves)
        comms.sort()
    # random round-robin grouping into K parts
    order = rng.permutation(len(comms))
    groups = [[] for _ in range(K)]
    for i, ci in enumerate(order):
        groups[i % K].extend(comms[ci])
    return Partition([sorted(p) for p in groups])


def sample_overlap_clients(g: Graph, base_parts: int, copies_per_part: int,
                           frac: float, seed: int) -> Partition:
    """Bisection into base parts, then overlapping node samples from each part."""
    if not 0.0 < frac <= 1.0:
        raise ValueError("frac must lie in (0, 1]")
    if copies_per_part < 1:
        raise ValueError("copies_per_part must be >= 1")
    rng = np.random.default_rng(seed)
    base = partition_bisection(g, base_parts, int(rng.integers(0, 2**31)))
    lists = []
    for part in base.client_node_lists:
        size = int(np.ceil(frac * len(part)))
        for _ in range(copies_per_part):
            sample = rng.choice(len(part), size=size, replace=False)
            lists.append(sorted(part[i] for i in sample))
    return Partition(lists)


def induced_subgraph(g: Graph, nodes: list) -> Graph:
    """Client subgraph over distinct `nodes` (global ids), relabeled to 0..len(nodes)-1
    in ascending global id."""
    nodes = np.sort(np.asarray(nodes, dtype=np.int64))
    if nodes.size and (nodes[0] < 0 or nodes[-1] >= g.num_nodes):
        raise ValueError(f"node ids must lie in 0..{g.num_nodes - 1}")
    if np.any(nodes[1:] == nodes[:-1]):
        raise ValueError("node ids must be distinct")
    return Graph(nodes.size, g.features[nodes], g.labels[nodes],
                 _relabeled_edges(g, nodes), g.num_classes)


def make_splits(g: Graph, ratios: tuple, seed: int) -> NodeSplit:
    """Per-class stratified train/val/test split with largest-remainder rounding."""
    r = np.asarray(ratios, dtype=np.float64)
    if r.shape != (3,) or np.any(r < 0) or r.sum() <= 0:
        raise ValueError("ratios must be three nonnegative numbers with positive sum")
    r = r / r.sum()
    rng = np.random.default_rng(seed)
    tags = [None] * g.num_nodes
    for cls in range(g.num_classes):
        members = np.flatnonzero(g.labels == cls)
        if members.size == 0:
            continue
        members = members[rng.permutation(members.size)]
        n = members.size
        if n < 3:
            warnings.warn(f"class {cls} has only {n} nodes; assigning train-first")
            tags[members[0]] = TRAIN
            for u in members[1:]:
                tags[u] = TEST
            continue
        exact = r * n
        counts = np.floor(exact).astype(int)
        remainder = exact - counts
        # distribute leftover by largest remainder, ties favoring train first
        for _ in range(n - counts.sum()):
            i = int(np.argmax(remainder))
            counts[i] += 1
            remainder[i] = -1.0
        if r[0] > 0 and counts[0] == 0:
            # keep at least one train node per class when training is requested
            donor = int(np.argmax(counts))
            counts[donor] -= 1
            counts[0] += 1
        pos = 0
        for tag, c in zip(_TAGS, counts):
            for u in members[pos:pos + c]:
                tags[u] = tag
            pos += c
    return NodeSplit(tags=tags)


_ROW_BLOCK = 256  # lines formatted per write: the text of one block is held, not a file's


def write_rows(f, columns: list):
    """Write one CSV line per row of the equal-length `columns` to the text file `f`.

    A column is a 1-D array or a list. Each field is `"%s"` of its value, taken
    from an array by a per-block `.tolist()`: a float prints as its shortest
    round-trip decimal (`repr`), an int as an int and a string as it is. Each
    `f.write` takes `_ROW_BLOCK` lines, so one block's text is held, never a file's.
    """
    n = len(columns[0]) if columns else 0
    C = len(columns)
    line = ",".join(["%s"] * C) + "\n"
    for i in range(0, n, _ROW_BLOCK):
        rows = min(_ROW_BLOCK, n - i)
        fields = [None] * (rows * C)  # row-major: field c of each line at c, c + C, ...
        for c, col in enumerate(columns):
            part = col[i:i + _ROW_BLOCK]
            fields[c::C] = part.tolist() if isinstance(part, np.ndarray) else part
        f.write((line * rows) % tuple(fields))


def save_graph_dir(g: Graph, path: str):
    """Write nodes.csv and edges.csv through `write_rows`."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "nodes.csv"), "w", newline="\n") as f:
        f.write("id,label," + ",".join(f"f{i}" for i in range(g.d_x)) + "\n")
        write_rows(f, [np.arange(g.num_nodes), g.labels, *g.features.T])
    with open(os.path.join(path, "edges.csv"), "w", newline="\n") as f:
        f.write("src,dst\n")
        write_rows(f, [g.edges[:, 0], g.edges[:, 1]])


def _read_csv(path: str, header: str | None, exact: bool = True):
    """Yield `(line number, fields)` for each non-blank row of a CSV file.

    The file is UTF-8 with or without a BOM, with LF or CRLF line ends. Its
    header must equal `header`, or with `exact=False` start with its columns,
    and every row must have as many fields as the header. With `header=None`
    the file has no header line, and its first row sets the width.
    """
    if not os.path.isfile(path):
        raise GraphParseError(f"{path}: missing file")
    want = header and header.split(",")
    with open(path, encoding="utf-8-sig", newline="") as f:
        cols = want and f.readline().rstrip("\r\n").split(",")
        if want and (cols if exact else cols[:len(want)]) != want:
            raise GraphParseError(f"{path}:1: expected header '{header}{'' if exact else ',..'}'")
        for lineno, line in enumerate(f, start=2 if want else 1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            fields = line.split(",")
            cols = cols or fields
            if len(fields) != len(cols):
                raise GraphParseError(f"{path}:{lineno}: expected {len(cols)} fields, "
                                      f"got {len(fields)}")
            yield lineno, fields


def _convert(path: str, lineno: int, fn, fields: list) -> list:
    """`fn` applied to each field; a field it rejects names `path:lineno`."""
    try:
        return [fn(x) for x in fields]
    except ValueError as exc:
        raise GraphParseError(f"{path}:{lineno}: {exc}") from exc


def load_graph_dir(path: str) -> Graph:
    """Load a graph directory; directed edge rows are symmetrized."""
    nodes_path = os.path.join(path, "nodes.csv")
    edges_path = os.path.join(path, "edges.csv")
    ids, labels, feats = [], [], []
    for lineno, fields in _read_csv(nodes_path, "id,label", exact=False):
        if len(fields) == 2:  # every row is as wide as the header
            raise GraphParseError(f"{nodes_path}:1: expected at least one feature column")
        i, label = _convert(nodes_path, lineno, int, fields[:2])
        row = _convert(nodes_path, lineno, float, fields[2:])
        if label < 0:
            raise GraphParseError(f"{nodes_path}:{lineno}: label must be >= 0")
        if not all(map(math.isfinite, row)):
            raise GraphParseError(f"{nodes_path}:{lineno}: features must be finite")
        ids.append(i)
        labels.append(label)
        feats.append(row)
    n = len(ids)
    if n == 0:
        raise GraphParseError(f"{nodes_path}: no node rows")
    if sorted(ids) != list(range(n)):
        raise GraphParseError(f"{nodes_path}: node ids must be exactly 0..{n - 1}")
    order = np.argsort(ids)
    features = np.asarray(feats, dtype=np.float64)[order]
    labels_arr = np.asarray(labels, dtype=np.int64)[order]
    raw_edges = []
    for lineno, fields in _read_csv(edges_path, "src,dst"):
        u, v = _convert(edges_path, lineno, int, fields)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"{edges_path}:{lineno}: endpoint out of range")
        raw_edges.append((u, v))
    edges = _normalize_edges(np.array(raw_edges, dtype=np.int64))
    num_classes = int(labels_arr.max()) + 1
    g = Graph(n, features, labels_arr, edges, num_classes)
    g.validate()
    return g


def load_partition_csv(path: str, num_nodes: int) -> Partition:
    """Read a `node,client` CSV (e.g. external METIS output) as a Partition."""
    assignment = [None] * num_nodes
    for lineno, fields in _read_csv(path, "node,client"):
        u, c = _convert(path, lineno, int, fields)
        if not 0 <= u < num_nodes:
            raise GraphParseError(f"{path}:{lineno}: node id out of range")
        if c < 0:
            raise GraphParseError(f"{path}:{lineno}: client id must be >= 0")
        if assignment[u] is not None:
            raise GraphParseError(f"{path}:{lineno}: node {u} is listed twice")
        assignment[u] = c
    clients = set(assignment) - {None}
    if not clients:
        raise GraphParseError(f"{path}: no node,client rows")
    K = max(clients) + 1
    if len(clients) != K:  # the first gap is found before any per-client list exists
        gap = next(c for c in range(K) if c not in clients)
        raise GraphParseError(f"{path}: client ids must run 0..{K - 1} without gaps; "
                              f"client {gap} has no nodes")
    lists = [[] for _ in range(K)]
    for u, c in enumerate(assignment):
        if c is not None:
            lists[c].append(u)
    return Partition(lists)
