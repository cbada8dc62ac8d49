"""Community detection on weighted page graphs.

Four algorithms: greedy modularity agglomeration, multi-level local moving,
random-walk agglomeration, and label propagation. All operate on weighted
graphs (weights are common-user counts), read the graph as built without
writing to it, and return total partitions with contiguous community ids. The
agglomerative algorithms also return the merge dendrogram with the
modularity-optimal cut marked.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import Partition, ProjectionGraph
from .ingest import csv_text

MAX_LP_SWEEPS = 1000


class ConvergenceWarning(UserWarning):
    """Emitted when an iterative algorithm hits its sweep limit."""


def modularity(g: ProjectionGraph, p: Partition) -> float:
    """Newman modularity Q of a partition of a weighted graph.

    Q = sum_c (w_c / m - (s_c / 2m)^2) with w_c the within-community edge
    weight, s_c the community strength and m the total edge weight.
    """
    if set(p.nodes) != set(g.nodes):
        raise ValueError("partition does not cover the graph's node set")
    m = g.total_weight
    if m == 0:
        raise ValueError("modularity undefined for a graph with zero total weight")
    com = p.as_dict()
    within = [0] * p.n_communities
    strength = [0] * p.n_communities
    for i, node in enumerate(g.nodes):
        strength[com[node]] += int(g.strengths[i])
    for i, j, w in g.edges():
        if com[g.nodes[i]] == com[g.nodes[j]]:
            within[com[g.nodes[i]]] += w
    two_m = 2.0 * m
    return sum(wc / m - (sc / two_m) ** 2 for wc, sc in zip(within, strength))


@dataclass(frozen=True)
class Dendrogram:
    """Agglomerative merge history; merge t joins two live ids into id n + t."""

    merges: tuple[tuple[int, int, float], ...]
    leaf_count: int
    best_step: int
    best_score: float

    def to_csv(self) -> str:
        return csv_text(["step", "comm_a", "comm_b", "score"],
                        ((step, a, b, score)
                         for step, (a, b, score) in enumerate(self.merges, start=1)))


class _Agglomeration:
    """The merge loop shared by the agglomerative algorithms.

    Tracks per-community size, strength, between-community weights (live
    neighbours only), a representative min page id for deterministic
    tie-breaks, the incremental modularity after each merge, and the merge
    list for replay.
    """

    def __init__(self, g: ProjectionGraph):
        n = g.n_nodes
        self.g = g
        self.m = float(g.total_weight)
        self.size = [1] * n
        self.minid = list(g.nodes)
        # integer weights and sums stay below 2**53, so scores round as floats would
        self.strength = list(g.strengths)
        self.between: list[dict[int, int]] = [dict(nb) for nb in g.adj]
        self.alive = set(range(n))
        self.merges: list[tuple[int, int, float]] = []
        two_m = 2.0 * self.m
        self.q = -sum((s / two_m) ** 2 for s in self.strength)
        self.best_q = self.q
        self.best_step = 0

    def delta_q(self, a: int, b: int) -> float:
        w_ab = self.between[a].get(b, 0)
        return w_ab / self.m - self.strength[a] * self.strength[b] / (2.0 * self.m ** 2)

    def run(self, score, rescore) -> tuple[Partition, Dendrogram]:
        """Merge the lowest-scored adjacent pair until none is left.

        ``score(a, b)`` scores each edge. After ``a`` and ``b`` (scored
        ``s_ab``) merge into ``new``, one call ``rescore(a, b, new, cs, s_ab)``
        returns the scores of ``new`` against its neighbours ``cs``, in
        ascending order. Ties go to the pair with the lower min page ids. Heap
        keys are unique (live pairs differ in min ids, stale ones in ids), so
        the pop order does not depend on the push order. Returns the cut with
        maximum modularity and the dendrogram, scored by re-evaluating
        ``modularity``.
        """
        minid, alive = self.minid, self.alive
        heap = [(score(a, b), minid[a], minid[b], a, b) if minid[a] <= minid[b]
                else (score(a, b), minid[b], minid[a], a, b) for a, b, _w in self.g.edges()]
        heapq.heapify(heap)
        while heap:
            s_ab, _k0, _k1, a, b = heapq.heappop(heap)
            if a not in alive or b not in alive:
                continue
            new = self._merge(a, b)
            cs = sorted(self.between[new])
            idn = minid[new]
            for c, s in zip(cs, rescore(a, b, new, cs, s_ab)):
                idc = minid[c]
                heapq.heappush(heap, (s, idn, idc, new, c) if idn <= idc else (s, idc, idn, new, c))
        part = self._partition_at(self.best_step)
        return part, Dendrogram(tuple(self.merges), self.g.n_nodes, self.best_step,
                                modularity(self.g, part))

    def _merge(self, a: int, b: int) -> int:
        """Join ``a`` and ``b`` into a new id; ``between[a]`` and ``between[b]`` stay."""
        new = len(self.size)
        self.q += self.delta_q(a, b)
        self.size.append(self.size[a] + self.size[b])
        self.minid.append(min(self.minid[a], self.minid[b]))
        self.strength.append(self.strength[a] + self.strength[b])
        nb: dict[int, int] = {}
        for old in (a, b):
            for c, w in self.between[old].items():
                if c != a and c != b:
                    nb[c] = nb.get(c, 0) + w
                    del self.between[c][old]
        self.between.append(nb)
        for c, w in nb.items():
            self.between[c][new] = w
        self.alive.discard(a)
        self.alive.discard(b)
        self.alive.add(new)
        self.merges.append((a, b, self.q))
        if self.q >= self.best_q:  # ties prefer the later (merged) cut
            self.best_q = self.q
            self.best_step = len(self.merges)
        return new

    def _partition_at(self, step: int) -> Partition:
        n = self.g.n_nodes
        parent = list(range(n + step))
        for t in range(step):
            a, b, _q = self.merges[t]
            parent[a] = n + t
            parent[b] = n + t
        labels = []
        for v in range(n):
            r = v
            while parent[r] != r:
                r = parent[r]
            labels.append(r)
        return Partition.from_labels(self.g.nodes, labels)


def _require_weight(g: ProjectionGraph) -> None:
    if g.n_nodes == 0:
        raise ValueError("graph is empty")
    if g.total_weight <= 0:
        raise ValueError("graph has zero total weight")


def fastgreedy(g: ProjectionGraph) -> tuple[Partition, Dendrogram]:
    """Greedy modularity agglomeration.

    Starts from singleton communities and repeatedly merges the adjacent pair
    with the largest modularity gain (ties: lowest min-page-id pair, then the
    other page id); the returned partition is the dendrogram cut with maximum
    modularity. Communities in different components are never merged.
    """
    _require_weight(g)
    agg = _Agglomeration(g)
    m, strength, two_m2 = agg.m, agg.strength, 2.0 * agg.m ** 2

    def rescore(_a, _b, new: int, cs: list[int], _s: float) -> list[float]:
        nb, s_new = agg.between[new], strength[new]  # delta_q(new, c), term for term
        return [-(nb[c] / m - s_new * strength[c] / two_m2) for c in cs]

    return agg.run(lambda a, b: -agg.delta_q(a, b), rescore)


def louvain(g: ProjectionGraph, seed: int = 0) -> Partition:
    """Multi-level modularity optimization (local moves + aggregation).

    Each pass visits nodes in a seed-shuffled order and moves a node to the
    neighboring community with the largest positive modularity gain; when a
    full pass moves nothing, communities are collapsed into supernodes and the
    procedure repeats on the aggregated graph.
    """
    _require_weight(g)
    rng = random.Random(seed)
    m = float(g.total_weight)

    # level-local adjacency (rebound per level, never written) plus self-loop weight
    adj = g.adj
    loops = [0.0] * g.n_nodes
    assignment = list(range(g.n_nodes))  # original node -> current supernode

    while True:
        n = len(adj)
        strength = [sum(nb.values()) + 2.0 * loops[v] for v, nb in enumerate(adj)]
        com = list(range(n))
        com_tot = strength[:]
        moved_any = False
        while True:
            moved = False
            order = list(range(n))
            rng.shuffle(order)
            for v in order:
                cv = com[v]
                w_to: dict[int, float] = {cv: 0.0}
                for u, w in adj[v].items():
                    w_to[com[u]] = w_to.get(com[u], 0.0) + w
                com_tot[cv] -= strength[v]
                best_c, best_gain = cv, w_to[cv] - com_tot[cv] * strength[v] / (2.0 * m)
                for c in sorted(w_to):
                    if c == cv:
                        continue
                    gain = w_to[c] - com_tot[c] * strength[v] / (2.0 * m)
                    if gain > best_gain:
                        best_gain, best_c = gain, c
                com_tot[best_c] += strength[v]
                com[v] = best_c
                if best_c != cv:
                    moved = True
                    moved_any = True
            if not moved:
                break
        if not moved_any:
            break
        # aggregate communities into supernodes, ordered by first occurrence
        remap = {c: i for i, c in enumerate(dict.fromkeys(com))}
        k = len(remap)
        new_adj: list[dict[int, float]] = [dict() for _ in range(k)]
        new_loops = [0.0] * k
        for v in range(n):
            cv = remap[com[v]]
            new_loops[cv] += loops[v]
            for u, w in adj[v].items():
                cu = remap[com[u]]
                if cu == cv:
                    if u > v:
                        new_loops[cv] += w
                else:
                    new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + w
        assignment = [remap[com[s]] for s in assignment]
        adj, loops = new_adj, new_loops
        if len(adj) == n:
            break
    return Partition.from_labels(g.nodes, assignment)


def walktrap(g: ProjectionGraph, steps: int = 4) -> tuple[Partition, Dendrogram]:
    """Random-walk agglomeration.

    Each node gets the probability vector of a ``steps``-length random walk
    (transition w_ij / s_i); adjacent communities are merged Ward-style by the
    minimal increase in mean squared walk distance, and the returned partition
    is the dendrogram cut with maximum modularity. Isolated nodes stay
    singletons.

    Memory is dense: at the default ``steps=4`` it holds at most three n×n
    float64 arrays (8·n² bytes each) at once, the transition matrix and two of
    its powers inside ``matrix_power``; the merge loop then keeps only the
    walk matrix, plus one length-n sum per live merged community. Process
    peak RSS was 80 MB at 1,000 pages and 193 MB at 2,500 (sparse corpora
    with 29,453 and 74,291 edges, numpy 2.4, 2-vCPU x86-64 VM).

    The walk matrix comes from BLAS (``matrix_power``), which may split its
    sums by thread, so on large graphs a Ward distance can differ in the last
    bit between BLAS thread counts (seen at 240 and 600 nodes, one OpenBLAS
    thread against two) and a near-tie could then merge in another order. No
    pinned dendrogram or golden file has changed between one thread and two.
    """
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    _require_weight(g)
    n = g.n_nodes
    W = np.zeros((n, n))
    for i, nb in enumerate(g.adj):
        W[i, list(nb)] = list(nb.values())
    s = np.asarray(g.strengths, dtype=float)
    W /= np.where(s > 0, s, 1.0)[:, None]  # the transition matrix
    for v in np.flatnonzero(s == 0):
        W[v, v] = 1.0
    Pt = np.linalg.matrix_power(W, steps)
    del W
    inv_d = np.where(s > 0, 1.0 / np.where(s > 0, s, 1.0), 0.0)

    agg = _Agglomeration(g)
    size = agg.size
    vec_sum = dict(enumerate(Pt))  # community -> summed walk vectors; rows are views

    def ward(mean, sa: int, means, sizes: list[int]) -> list[float]:
        """Ward distances from ``sa`` nodes of mean walk ``mean`` to each row of
        ``means``; one ddot per row, as a matrix product sums in another order and
        can change the last bit, and so the order of tied merges."""
        sq = mean - means
        sq *= sq
        return [sa * sc / (sa + sc) / n * float(d) for sc, d in zip(sizes, map(inv_d.dot, sq))]

    # (lower id, higher id) -> Ward distance; a singleton's walk is its mean
    dsigma: dict[tuple[int, int], float] = {}
    for i in range(n):
        if higher := [j for j in agg.between[i] if j > i]:
            dsigma.update(zip([(i, j) for j in higher],
                              ward(Pt[i], 1, Pt[higher], [1] * len(higher))))

    def lance_williams(a: int, b: int, new: int, cs: list[int], ds_ab: float) -> list[float]:
        vec_sum[new] = vec_sum.pop(a) + vec_sum.pop(b)
        sa, sb, sn = size[a], size[b], size[new]
        nb_a, nb_b = agg.between[a], agg.between[b]
        far = [c for c in cs if c not in nb_a or c not in nb_b]
        if far:  # no distances to both a and b: Ward's distance from the walks
            sizes = [size[c] for c in far]
            means = np.stack([vec_sum[c] for c in far]) / np.array(sizes, dtype=float)[:, None]
            dsigma.update(zip([(c, new) for c in far], ward(vec_sum[new] / sn, sn, means, sizes)))
        for c in cs:  # new is the highest id, so every key is (c, new)
            if c in nb_a and c in nb_b:
                sc = size[c]
                dsigma[c, new] = ((sa + sc) * dsigma[(a, c) if a < c else (c, a)]
                                  + (sb + sc) * dsigma[(b, c) if b < c else (c, b)]
                                  - sc * ds_ab) / (sn + sc)
        return [dsigma[c, new] for c in cs]

    return agg.run(lambda a, b: dsigma[a, b], lance_williams)


def label_propagation(g: ProjectionGraph, seed: int = 0) -> Partition:
    """Asynchronous weighted label propagation.

    Every node starts with a unique label; nodes are visited in a seed-shuffled
    order each sweep and adopt the label with the largest total incident edge
    weight among their neighbors (keeping their own when it ties; other ties
    broken uniformly at random by the seed). Stops when every node's label is
    one of its weighted-majority labels; after 1,000 sweeps the current labels
    are returned and the result flagged.
    """
    if g.n_nodes == 0:
        raise ValueError("graph is empty")
    rng = random.Random(seed)
    n = g.n_nodes
    labels = list(range(n))
    flags: tuple[str, ...] = ()
    for _sweep in range(MAX_LP_SWEEPS):
        order = list(range(n))
        rng.shuffle(order)
        changed = False
        for v in order:
            if not g.adj[v]:
                continue
            weight_by_label: dict[int, int] = {}
            for u, w in g.adj[v].items():
                weight_by_label[labels[u]] = weight_by_label.get(labels[u], 0) + w
            best = max(weight_by_label.values())
            tied = sorted(lab for lab, w in weight_by_label.items() if w == best)
            if labels[v] in tied:
                continue
            labels[v] = tied[rng.randrange(len(tied))] if len(tied) > 1 else tied[0]
            changed = True
        if not changed:
            break
    else:
        warnings.warn("label propagation did not converge within "
                      f"{MAX_LP_SWEEPS} sweeps", ConvergenceWarning)
        flags = ("not_converged",)
    return Partition.from_labels(g.nodes, labels, flags)


def derived_seed(seed: int, *parts) -> int:
    """Deterministic per-operation seed from (global seed, names)."""
    text = ":".join([str(seed)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


# name -> (g, seed, steps=4) -> (partition, dendrogram or None); names resolve per call
ALGORITHMS = {
    "fastgreedy": lambda g, seed, steps=4: fastgreedy(g),
    "walktrap": lambda g, seed, steps=4: walktrap(g, steps),
    "multilevel": lambda g, seed, steps=4: (louvain(g, seed), None),
    "labelprop": lambda g, seed, steps=4: (label_propagation(g, seed), None),
}
