"""Bipartite user-page graphs, weighted one-mode projection and components.

A bipartite edge links a user and a page when the user performed the selected
action on that page at least once (multiplicity collapsed). Projecting onto
pages yields a weighted undirected graph whose edge weights count the common
users of each page pair.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .ingest import ACTION_CODES, ENGAGEMENT_ACTIONS, Dataset, csv_text, distinct


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

    def sizes(self) -> list[int]:
        counts = [0] * self.n_communities
        for lab in self.labels:
            counts[lab] += 1
        return counts

    def to_csv(self) -> str:
        return csv_text(["page_id", "community"], sorted(zip(self.nodes, self.labels)))


class BipartiteGraph:
    """User-page incidence for one action kind: each user's sorted page ids.

    ``pairs`` is any iterable of (user, page) strings, every page one of
    ``pages``; repeats collapse. ``users`` holds the users with at least one
    pair, sorted, and ``user_pages[u]`` the ids of user u's pages, ascending.
    """

    def __init__(self, pages, pairs, action: str):
        self.pages: tuple[str, ...] = tuple(pages)
        self.action = action
        index = {p: i for i, p in enumerate(self.pages)}
        # a list per user, not a set: sets doubled the criterion-10 build's peak memory
        by_user: defaultdict[str, list[int]] = defaultdict(list)
        for u, p in pairs:
            by_user[u].append(index[p])
        self.users: tuple[str, ...] = tuple(sorted(by_user))
        self.user_pages = [sorted(set(by_user[u])) for u in self.users]

    @property
    def n_edges(self) -> int:
        return sum(map(len, self.user_pages))


def build_bipartite(d: Dataset, action: str) -> BipartiteGraph:
    """Collapse records of one kind into distinct (user, page) edges.

    Page nodes cover every page in the dataset; user nodes cover users with at
    least one edge.
    """
    if action not in ENGAGEMENT_ACTIONS:
        raise ValueError(f"action must be like or comment, got {action!r}")
    rows = d.action == ACTION_CODES[action]
    shape = (len(d.user_table), len(d.page_table))
    user, page = np.unravel_index(distinct(np.ravel_multi_index(
        (d.user[rows], d.page[rows]), shape)), shape)  # distinct pairs
    pairs = zip(d.user_table[user].tolist(), d.page_table[page].tolist())
    return BipartiteGraph(d.page_table[np.unique(d.page)].tolist(), pairs, action)


class ProjectionGraph:
    """Weighted undirected page graph; weight = number of common users.

    Each ``adj[v]`` maps neighbours to integer weights in ascending neighbour
    order, whatever order the edges came in. Nothing writes to ``adj`` or
    ``strengths`` after construction.
    """

    def __init__(self, nodes, edges):
        """``edges``: iterable of (i, j, weight) with dense indices i != j, in
        any order and orientation; a pair given more than once sums its weights."""
        self.nodes: tuple[str, ...] = tuple(nodes)
        self.index = {n: i for i, n in enumerate(self.nodes)}
        adj: list[dict[int, int]] = [dict() for _ in self.nodes]
        for i, j, w in edges:
            if i == j:
                raise ValueError(f"self-loop on {self.nodes[i]!r}")
            if w <= 0:
                raise ValueError("zero-weight pairs must be absent")
            adj[i][j] = adj[i].get(j, 0) + int(w)
            adj[j][i] = adj[j].get(i, 0) + int(w)
        self.adj = [dict(sorted(nb.items())) for nb in adj]
        self.strengths = [sum(nb.values()) for nb in self.adj]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return sum(len(nb) for nb in self.adj) // 2

    @property
    def total_weight(self) -> int:
        return sum(self.strengths) // 2

    def edges(self):
        """Yield (i, j, weight) once per unordered pair, i < j, in ascending order."""
        for i, nb in enumerate(self.adj):
            for j, w in nb.items():
                if i < j:
                    yield i, j, w

    def weight(self, a: str, b: str) -> int:
        return self.adj[self.index[a]].get(self.index[b], 0)

    def to_csv(self) -> str:
        rows = [(*sorted((self.nodes[i], self.nodes[j])), w) for i, j, w in self.edges()]
        return csv_text(["page_a", "page_b", "weight"], sorted(rows))


def project(b: BipartiteGraph) -> ProjectionGraph:
    """One-mode projection onto pages, by pair counting.

    Each user's sorted pages ``ps`` add ``ps[k+1:]`` to page ``ps[k]``'s row,
    one ``Counter`` per page, never all-pairs set intersection.
    """
    rows = [Counter() for _ in b.pages]
    for ps in b.user_pages:
        for k, i in enumerate(ps):
            rows[i].update(ps[k + 1:])
    return ProjectionGraph(b.pages, [
        (i, j, w) for i, row in enumerate(rows) for j, w in row.items()])


def induced_subgraph(g: ProjectionGraph, keep) -> ProjectionGraph:
    """Restrict to ``keep`` nodes; edges with both endpoints kept, weights unchanged."""
    keep = list(keep)
    missing = [p for p in keep if p not in g.index]
    if missing:
        raise ValueError(f"pages not in graph: {sorted(missing)}")
    keep_set = set(keep)
    nodes = [n for n in g.nodes if n in keep_set]
    new_index = {n: i for i, n in enumerate(nodes)}
    return ProjectionGraph(nodes, [
        (new_index[g.nodes[i]], new_index[g.nodes[j]], w) for i, j, w in g.edges()
        if g.nodes[i] in new_index and g.nodes[j] in new_index])


def connected_components(g: ProjectionGraph) -> Partition:
    """Components of the positive-weight edge relation.

    Component ids are assigned in decreasing size order, breaking ties by the
    smallest page id contained.
    """
    n = g.n_nodes
    comp = [-1] * n
    comps: list[list[int]] = []
    for start in range(n):
        if comp[start] >= 0:
            continue
        cid = len(comps)
        stack = [start]
        comp[start] = cid
        members = [start]
        while stack:
            v = stack.pop()
            for nb in g.adj[v]:
                if comp[nb] < 0:
                    comp[nb] = cid
                    members.append(nb)
                    stack.append(nb)
        comps.append(members)
    order = sorted(range(len(comps)),
                   key=lambda c: (-len(comps[c]), min(g.nodes[v] for v in comps[c])))
    rank = {c: i for i, c in enumerate(order)}
    return Partition(g.nodes, tuple(rank[comp[v]] for v in range(n)), len(comps))


def largest_component_size(g: ProjectionGraph) -> int:
    if g.n_nodes == 0:
        return 0
    return max(connected_components(g).sizes())
