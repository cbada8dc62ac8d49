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
import random
import warnings
from dataclasses import dataclass
from itertools import chain

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
    label = [com[node] for node in g.nodes]
    within = [0] * p.n_communities  # twice the within weight: both orientations
    strength = [0] * p.n_communities
    for i, nb in enumerate(g.adj):
        c = label[i]
        strength[c] += g.strengths[i]
        within[c] += sum(w for j, w in nb.items() if label[j] == c)
    within = [wc // 2 for wc in within]
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
    """The heap-free merge loop shared by the agglomerative algorithms.

    Slot s holds the live community whose min page id ranks s-th; a merge
    keeps the lower of its two slots, so slot order stays min-page-id order.
    Two n×n float64 arrays: ``B`` holds the integer weights between live
    communities (exact below 2**53) and ``S`` their scores, ``inf`` where two
    are not adjacent. Each row keeps its best ``(score, partner)``.
    """

    def __init__(self, g: ProjectionGraph):
        n = g.n_nodes
        self.g = g
        self.m = float(g.total_weight)
        self.node = np.array(sorted(range(n), key=g.nodes.__getitem__), dtype=np.intp)
        slot = np.empty(n, dtype=np.intp)
        slot[self.node] = np.arange(n)
        self.rows = max(1, (1 << 16) // n)  # rows per block: no temporary passes 512 KB
        self.B = np.zeros((n, n))
        for k in range(0, n, self.rows):
            nbs = [g.adj[v] for v in self.node[k:k + self.rows]]
            deg = [len(nb) for nb in nbs]
            cols = slot[np.fromiter(chain.from_iterable(nbs), np.intp, sum(deg))]
            self.B[np.repeat(np.arange(k, k + len(nbs)), deg), cols] = np.fromiter(
                chain.from_iterable(nb.values() for nb in nbs), float, sum(deg))
        self.S = np.full((n, n), np.inf)  # the detector scores each adjacent pair
        self.size = np.ones(n)
        self.strength = np.array(g.strengths, dtype=float)[self.node]
        self.bs, self.bp = np.empty(n), np.empty(n, dtype=np.intp)  # each row's best
        self.merges: list[tuple[int, int, float]] = []
        two_m = 2.0 * self.m
        self.q = -sum((s / two_m) ** 2 for s in g.strengths)

    def run(self, rescore) -> tuple[Partition, Dendrogram]:
        """Merge the lowest-scored adjacent pair until none is left.

        ``S`` must hold every adjacent pair's score. After slots ``ra < rb``
        (scored ``s_ab``) are picked, one call ``rescore(ra, rb, cs, w, s_ab)``
        returns the merged community's scores against its neighbour slots
        ``cs`` (ascending), to which it has weights ``w``, while ``size``,
        ``strength`` and ``S`` still hold ``ra`` and ``rb`` apart. Ties go to
        the lower min page ids, as argmin takes the first minimum: a row's ties
        go to its lowest partner slot and the pick to the lowest row. Returns
        the maximum-modularity cut and the dendrogram, scored by ``modularity``.
        """
        n, B, S, size, strength = self.g.n_nodes, self.B, self.S, self.size, self.strength
        bs, bp, m, two_m2 = self.bs, self.bp, self.m, 2.0 * self.m ** 2
        self._refresh(np.arange(n))
        ids = self.node.tolist()  # slot -> community id
        q = best_q = self.q
        best_step = 0
        while (s_ab := bs[ra := int(bs.argmin())]) != np.inf:
            rb = int(bp[ra])
            # two leaves in ascending order, else the newer community first
            a, b = sorted((ids[ra], ids[rb]), reverse=max(ids[ra], ids[rb]) >= n)
            q += float(B[ra, rb]) / m - float(strength[ra]) * float(strength[rb]) / two_m2
            self.merges.append((a, b, q))
            if q >= best_q:  # ties prefer the later (merged) cut
                best_q, best_step = q, len(self.merges)
            ids[ra] = n + len(self.merges) - 1
            w = B[ra] + B[rb]
            w[ra] = w[rb] = 0.0
            cs = w.nonzero()[0]
            wc = w[cs]
            sc = rescore(ra, rb, cs, wc, s_ab)
            size[ra], strength[ra] = size[ra] + size[rb], strength[ra] + strength[rb]
            # slot rb is dead: its row is never read again, its column is cleared
            B[ra], B[cs, ra], B[cs, rb] = w, wc, 0.0
            S[ra, cs], S[cs, ra], S[cs, rb], S[ra, rb] = sc, sc, np.inf, np.inf
            # a row keeps its best or takes the new pair, unless its best was a or b
            obs, obp = bs[cs], bp[cs]
            take = (sc < obs) | ((sc == obs) & (obp > ra))  # ties to the lower slot
            bs[cs[take]], bp[cs[take]], bs[rb] = sc[take], ra, np.inf
            self._refresh(np.concatenate((cs[(obp == ra) | (obp == rb)], [ra])))
        part = self._partition_at(best_step)
        return part, Dendrogram(tuple(self.merges), n, best_step, modularity(self.g, part))

    def pairs(self):
        """Every adjacent slot pair i < j, in chunks of at most ``rows`` pairs."""
        for k in range(0, len(self.B), self.rows):
            i, j = self.B[k:k + self.rows].nonzero()
            i += k
            i, j = i[i < j], j[i < j]
            for h in range(0, len(i), self.rows):
                yield i[h:h + self.rows], j[h:h + self.rows]

    def _refresh(self, rows) -> None:
        """Recompute the best (score, partner) of ``rows`` from ``S``, in row blocks."""
        for i in range(0, len(rows), self.rows):
            r = rows[i:i + self.rows]
            p = self.S[r].argmin(axis=1)
            self.bp[r], self.bs[r] = p, self.S[r, p]

    def _partition_at(self, step: int) -> Partition:
        """Label each node by its community's id after ``step`` merges."""
        n = self.g.n_nodes
        label = list(range(n + step))
        for t in reversed(range(step)):  # a merged id is labelled before its parts
            a, b, _q = self.merges[t]
            label[a] = label[b] = label[n + t]
        return Partition.from_labels(self.g.nodes, label[:n])


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

    Memory is dense: two n×n float64 arrays (8·n² bytes each; 50 MB per
    array at 2,500 pages, 800 MB at 10,000).
    """
    _require_weight(g)
    agg = _Agglomeration(g)
    B, S, strength = agg.B, agg.S, agg.strength
    m, two_m2 = agg.m, 2.0 * agg.m ** 2
    for i, j in agg.pairs():  # -delta_q, term for term
        S[i, j] = S[j, i] = -(B[i, j] / m - strength[i] * strength[j] / two_m2)

    def rescore(ra: int, rb: int, cs, w, _s) -> np.ndarray:
        return -(w / m - (strength[ra] + strength[rb]) * strength[cs] / two_m2)

    return agg.run(rescore)


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

    Memory is dense: three n×n float64 arrays (8·n² bytes each; 50 MB per
    array at 2,500 pages, 800 MB at 10,000), first the transition matrix and
    two of its powers, then the walks and the merge loop's two arrays.

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
    S, size, node, rows = agg.S, agg.size, agg.node, agg.rows

    def ward(sq, sa, sc) -> np.ndarray:
        """Ward distances between groups of ``sa`` and ``sc`` nodes from the
        rows of ``sq``, their mean walks' differences, squared in place. One
        ddot per row: a matrix product sums in another order and can change
        the last bit, and so the order of tied merges."""
        sq *= sq
        return sa * sc / (sa + sc) / n * np.array(list(map(inv_d.dot, sq)))

    for i, j in agg.pairs():  # singletons: each walk is its own mean
        sq = Pt[node[i]]
        sq -= Pt[node[j]]
        S[i, j] = S[j, i] = ward(sq, 1.0, 1.0)

    def lance_williams(ra: int, rb: int, cs, _w, ds_ab: float) -> np.ndarray:
        sa, sb, sc, sn = size[ra], size[rb], size[cs], size[ra] + size[rb]
        Pt[node[ra]] += Pt[node[rb]]
        mean = Pt[node[ra]] / sn
        d_a, d_b = S[ra, cs], S[rb, cs]
        out = ((sa + sc) * d_a + (sb + sc) * d_b - sc * ds_ab) / (sn + sc)
        far = (out == np.inf).nonzero()[0]  # d_a or d_b is inf: not adjacent to both
        for k in range(0, len(far), rows):  # so Ward's distance from the walks
            f = far[k:k + rows]
            sq = Pt[node[cs[f]]]
            sq /= sc[f, None]
            np.subtract(mean, sq, out=sq)
            out[f] = ward(sq, sn, sc[f])
        return out

    return agg.run(lance_williams)


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
