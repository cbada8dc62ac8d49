"""Bipartite user-page graphs, weighted one-mode projection and components.

A bipartite edge links a user and a page when the user performed the selected
action on that page at least once (multiplicity collapsed). Projecting onto
pages yields a weighted undirected graph whose edge weights count the common
users of each page pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import ACTION_CODES, ENGAGEMENT_ACTIONS, Dataset, csv_text, distinct_rows, run_starts


@dataclass(frozen=True)
class Partition:
    """Total assignment of nodes to 0-based contiguous community ids."""

    nodes: tuple[str, ...]
    labels: tuple[int, ...]
    n_communities: int
    flags: tuple[str, ...] = ()

    @classmethod
    def from_labels(cls, nodes, labels, flags=()) -> "Partition":
        """Map arbitrary hashable labels to contiguous ids, first occurrence first."""
        ids: dict = {}
        compact = tuple(ids.setdefault(v, len(ids)) for v in labels)
        return cls(tuple(nodes), compact, len(ids), tuple(flags))

    @classmethod
    def from_mapping(cls, mapping: dict[str, object], nodes=None) -> "Partition":
        node_order = tuple(nodes) if nodes is not None else tuple(sorted(mapping))
        return cls.from_labels(node_order, [mapping[n] for n in node_order])

    def __post_init__(self):
        if len(self.nodes) != len(self.labels):
            raise ValueError("labels must cover every node exactly once")
        if len(set(self.nodes)) < len(self.nodes):
            seen: set = set()
            dup = next(v for v in self.nodes if v in seen or seen.add(v))
            raise ValueError(f"node {dup!r} appears more than once")
        if self.labels:
            uniq = set(self.labels)
            if uniq != set(range(self.n_communities)):
                raise ValueError("community ids must be contiguous from 0")

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.nodes, self.labels))

    def communities(self) -> list[list[str]]:
        out: list[list[str]] = [[] for _ in range(self.n_communities)]
        for node, lab in zip(self.nodes, self.labels):
            out[lab].append(node)
        return out

    def by_size(self) -> list[list[str]]:
        """The communities as node lists, largest first; a tie goes to the
        community holding the smallest node."""
        return sorted(self.communities(), key=lambda c: (-len(c), min(c)))

    def sizes(self) -> list[int]:
        return [len(c) for c in self.communities()]

    def to_csv(self) -> str:
        return csv_text(["page_id", "community"], sorted(zip(self.nodes, self.labels)))


class BipartiteGraph:
    """User-page incidence for one action kind, as distinct code pairs.

    ``user`` and ``page`` are equal-length int arrays of (user, page) pairs,
    with any non-negative user codes and ``page`` indexing ``pages``. Repeats
    collapse: the graph keeps the distinct pairs sorted by (user, page), as
    read-only arrays.
    """

    def __init__(self, pages, user, page):
        self.pages: tuple[str, ...] = tuple(pages)
        # arrays keep their int dtype, so int32 codes are not copied; lists become intp
        user, page = (np.asarray(c, getattr(c, "dtype", np.intp)) for c in (user, page))
        shape = (int(user.max(initial=0)) + 1, max(len(self.pages), 1))
        self.user, self.page = distinct_rows((user, page), shape)
        self.user.flags.writeable = self.page.flags.writeable = False

    @property
    def n_edges(self) -> int:
        return len(self.user)


def build_bipartite(d: Dataset, action: str) -> BipartiteGraph:
    """Collapse records of one kind into distinct (user, page) edges.

    Page nodes cover every page in the dataset; user codes are the dataset's.
    """
    if action not in ENGAGEMENT_ACTIONS:
        raise ValueError(f"action must be like or comment, got {action!r}")
    rows = d.action == ACTION_CODES[action]
    present = np.unique(d.page)  # page ids int32 like the user codes: the pair sort holds all rows
    return BipartiteGraph(d.page_table[present].tolist(), d.user[rows],
                          np.searchsorted(present, d.page[rows]).astype(np.int32))


class ProjectionGraph:
    """Weighted undirected page graph; weight = number of common users.

    Each edge is two arcs, one per orientation, held in three read-only arrays
    sorted by (src, dst): int ``src`` and ``dst`` node ids and int64
    ``weights``, a CSR matrix's column and value arrays with the row id
    spelled out. ``strengths`` holds each node's sum of arc weights. Sums
    are float64 sums of integers, exact while the total is below 2**53.
    """

    def __init__(self, nodes, edges):
        """``edges``: (i, j, weight) rows with dense indices i != j, as triples
        or a k×3 int array, in any order and orientation; a pair given more
        than once sums its weights."""
        self.nodes: tuple[str, ...] = tuple(nodes)
        i, j, w = np.asarray(edges, dtype=np.int64).reshape(-1, 3).T
        if (loop := i == j).any():
            raise ValueError(f"self-loop on {self.nodes[i[loop][0]]!r}")
        if (w <= 0).any():
            raise ValueError("zero-weight pairs must be absent")
        shape = (max(self.n_nodes, 1),) * 2
        keys, arc = np.unique(np.ravel_multi_index(
            (np.concatenate((i, j)), np.concatenate((j, i))), shape), return_inverse=True)
        self.src, self.dst = np.unravel_index(keys, shape)
        self.weights = np.bincount(arc, np.concatenate((w, w)), len(keys)).astype(np.int64)
        self.strengths = np.bincount(self.src, self.weights, self.n_nodes).astype(np.int64)
        for a in (self.src, self.dst, self.weights, self.strengths):
            a.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.src) // 2

    @property
    def total_weight(self) -> int:
        return int(self.weights.sum()) // 2

    def edges(self):
        """(i, j, weight) once per unordered pair, i < j, in ascending order."""
        up = self.src < self.dst
        return zip(self.src[up].tolist(), self.dst[up].tolist(), self.weights[up].tolist())

    def rows(self) -> list[tuple[list[int], list[int]]]:
        """Each node's neighbours, ascending, and their weights, as Python lists."""
        dst, weights = self.dst.tolist(), self.weights.tolist()
        bounds = np.searchsorted(self.src, np.arange(self.n_nodes + 1)).tolist()
        return [(dst[a:b], weights[a:b]) for a, b in zip(bounds, bounds[1:])]

    def to_csv(self) -> str:
        rows = [(*sorted((self.nodes[i], self.nodes[j])), w) for i, j, w in self.edges()]
        return csv_text(["page_a", "page_b", "weight"], sorted(rows))


def project(b: BipartiteGraph) -> ProjectionGraph:
    """One-mode projection onto pages, as an exact integer product.

    Users go in blocks of ``2**18 // pages``, so that a block's float32 0/1
    matrix over every page would fill 1 MB. Each block's matrix ``M`` over
    the pages it touches adds ``M @ M.T`` into an int32 pages × pages count
    of common users (below 2**31 users). Each product is exact whatever
    order BLAS sums in, as a block holds fewer than 2**24 users. Memory is
    that count, 4·pages² bytes (25 MB at 2,500 pages, 400 MB at 10,000),
    plus one block and its product. Time grows with the square of the pages a block touches, which
    rests on a property of the corpus: users whose codes are close act on
    few pages in all. Table 1's corpora have it, as their user codes run page
    block by page block (a 262-user block of the 1,000-page corpus touches
    about 100 pages); on a dense graph every block touches every page.
    """
    n = len(b.pages)
    counts = np.zeros((n, n), np.int32)
    rank = np.cumsum(run_starts(b.user)) - 1  # each pair's user, numbered from 0
    per_block = (1 << 18) // max(n, 1)  # users a block holds in 1 MB
    n_users = int(rank[-1]) + 1 if b.n_edges else 0
    bounds = np.searchsorted(rank, np.arange(0, n_users + per_block, per_block)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        page, user = b.page[lo:hi], rank[lo:hi] - rank[lo]
        touched = np.flatnonzero(np.bincount(page, minlength=n))
        m = np.zeros((len(touched), user[-1] + 1), np.float32)
        m[np.searchsorted(touched, page), user] = 1
        ix = np.ix_(touched, touched)
        block = counts[ix]
        np.add(block, m @ m.T, out=block, casting="unsafe")
        counts[ix] = block
    i, j = counts.nonzero()
    up = i < j
    i, j = i[up], j[up]
    return ProjectionGraph(b.pages, np.column_stack((i, j, counts[i, j])))


def connected_components(g: ProjectionGraph) -> Partition:
    """Components of the positive-weight edge relation, labelled by
    ``scipy.sparse.csgraph`` and numbered in ``Partition.by_size`` order."""
    from scipy.sparse import csr_array  # imported here: no CLI stage needs it
    from scipy.sparse.csgraph import connected_components as label_components

    arcs = csr_array((g.weights, (g.src, g.dst)), shape=(g.n_nodes,) * 2)
    _, labels = label_components(arcs, directed=False)
    ranked = Partition.from_labels(g.nodes, labels.tolist()).by_size()
    comp = {v: i for i, members in enumerate(ranked) for v in members}
    return Partition(g.nodes, tuple(comp[v] for v in g.nodes), len(ranked))
