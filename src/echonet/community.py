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
from itertools import count

import numpy as np

from .graphs import Partition, ProjectionGraph
from .ingest import csv_text

MAX_LP_SWEEPS = 1000
DEFAULT_STEPS = 4  # walktrap's walk length (Pons & Latapy 2005)


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
    com, k = p.as_dict(), p.n_communities
    label = np.array([com[node] for node in g.nodes])
    same = label[g.src] == label[g.dst]
    # twice the within weight, as each edge is two arcs; float64 sums of integers
    within = np.bincount(label[g.src[same]], g.weights[same], k).astype(np.int64) // 2
    strength = np.bincount(label, g.strengths, k).astype(np.int64)
    two_m = 2.0 * m
    return sum(wc / m - (sc / two_m) ** 2 for wc, sc in zip(within.tolist(), strength.tolist()))


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
    Two n×n arrays: ``B`` holds the integer weights between live communities
    and ``S`` their float64 scores, ``inf`` where two are not adjacent. No
    weight between two communities passes the graph's total, so ``B`` is
    int32 while the total is below 2**31 and int64 above; each read of it is
    float64 arithmetic on exact integers. Each row keeps its best
    ``(score, partner)``.
    """

    def __init__(self, g: ProjectionGraph):
        n = g.n_nodes
        self.g = g
        self.m = float(g.total_weight)
        self.node = np.array(sorted(range(n), key=g.nodes.__getitem__), dtype=np.intp)
        self.slot = np.empty(n, dtype=np.intp)
        self.slot[self.node] = np.arange(n)
        self.rows = max(1, (1 << 16) // n)  # rows per block: no temporary passes 512 KB
        self.B = np.zeros((n, n), np.int32 if g.total_weight < 2**31 else np.int64)
        self.B[self.slot[g.src], self.slot[g.dst]] = g.weights
        self.S = np.full((n, n), np.inf)  # the detector scores each adjacent pair
        self.size = np.ones(n)
        self.strength = g.strengths[self.node].astype(float)
        self.bs, self.bp = np.empty(n), np.empty(n, dtype=np.intp)  # each row's best
        self.merges: list[tuple[int, int, float]] = []
        two_m = 2.0 * self.m
        self.q = -sum((s / two_m) ** 2 for s in g.strengths.tolist())

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
        bs, bp = self.bs, self.bp
        self._refresh(np.arange(n))
        ids = self.node.tolist()  # slot -> community id
        q = best_q = self.q
        best_step = 0
        while (s_ab := bs[ra := int(bs.argmin())]) != np.inf:
            rb = int(bp[ra])
            # two leaves in ascending order, else the newer community first
            a, b = sorted((ids[ra], ids[rb]), reverse=max(ids[ra], ids[rb]) >= n)
            q += float(self.gain(strength[ra], strength[rb], B[ra, rb]))
            self.merges.append((a, b, q))
            if q >= best_q:  # ties prefer the later (merged) cut
                best_q, best_step = q, len(self.merges)
            ids[ra] = n + len(self.merges) - 1
            w = B[ra] + B[rb]
            w[ra] = w[rb] = 0
            cs = w.nonzero()[0]
            wc = w[cs]
            sc = rescore(ra, rb, cs, wc, s_ab)
            size[ra], strength[ra] = size[ra] + size[rb], strength[ra] + strength[rb]
            # slot rb is dead: its row is never read again, its column is cleared
            B[ra], B[cs, ra], B[cs, rb] = w, wc, 0
            S[ra, cs], S[cs, ra], S[cs, rb], S[ra, rb] = sc, sc, np.inf, np.inf
            # a row keeps its best or takes the new pair, unless its best was a or b
            obs, obp = bs[cs], bp[cs]
            take = (sc < obs) | ((sc == obs) & (obp > ra))  # ties to the lower slot
            bs[cs[take]], bp[cs[take]], bs[rb] = sc[take], ra, np.inf
            self._refresh(np.concatenate((cs[(obp == ra) | (obp == rb)], [ra])))
        part = self._partition_at(best_step)
        return part, Dendrogram(tuple(self.merges), n, best_step, modularity(self.g, part))

    def gain(self, sa, sc, w):
        """Modularity gain of a merge: weight w joins strengths sa and sc (Clauset et al. 2004)."""
        return w / self.m - sa * sc / (2.0 * self.m ** 2)

    def pairs(self):
        """Each adjacent slot pair once, from the arcs src < dst, in blocks of ``rows``."""
        up = np.flatnonzero(self.g.src < self.g.dst)
        for arcs in np.split(up, range(self.rows, len(up), self.rows)):
            yield self.slot[self.g.src[arcs]], self.slot[self.g.dst[arcs]]

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


def _require(g: ProjectionGraph, weight: bool = True) -> None:
    if g.n_nodes == 0:
        raise ValueError("graph is empty")
    if weight and g.total_weight <= 0:
        raise ValueError("graph has zero total weight")


def fastgreedy(g: ProjectionGraph) -> tuple[Partition, Dendrogram]:
    """Greedy modularity agglomeration.

    Starts from singleton communities and repeatedly merges the adjacent pair
    with the largest modularity gain (ties: lowest min-page-id pair, then the
    other page id); the returned partition is the dendrogram cut with maximum
    modularity. Communities in different components are never merged.

    Memory is dense: an n×n float64 array of scores and an n×n int32 array
    of weights (int64 once the total weight reaches 2**31), 12·n² bytes in
    all: 75 MB at 2,500 pages, 1.2 GB at 10,000.
    """
    _require(g)
    agg = _Agglomeration(g)
    B, S, strength, gain = agg.B, agg.S, agg.strength, agg.gain
    for i, j in agg.pairs():  # -delta_q
        S[i, j] = S[j, i] = -gain(strength[i], strength[j], B[i, j])

    def rescore(ra: int, rb: int, cs, w, _s) -> np.ndarray:
        return -gain(strength[ra] + strength[rb], strength[cs], w)

    return agg.run(rescore)


def _local_moves(rows, labels: list[int], rng: random.Random, pick, limit=None):
    """The sweep loop of multilevel and label propagation.

    A sweep visits the nodes in an ``rng``-shuffled order. At node ``v`` an int
    dict ``w`` tallies v's weight to each label around it, its own from 0 (exact
    below 2**53), and ``labels[v] = pick(v, w)``, which sees v's old label.
    Returns the sweeps run, the last moving no node, or None if ``limit`` all move.
    """
    for sweeps in count(1) if limit is None else range(1, limit + 1):
        order = list(range(len(labels)))
        rng.shuffle(order)
        before = labels[:]  # a node is visited once a sweep, so any move shows
        for v in order:
            w = {labels[v]: 0}
            for u, wu in zip(*rows[v]):
                w[labels[u]] = w.get(labels[u], 0) + wu
            labels[v] = pick(v, w)
        if labels == before:
            return sweeps
    return None


def louvain(g: ProjectionGraph, seed: int = 0) -> Partition:
    """Multi-level modularity optimization (local moves + aggregation).

    Each pass visits nodes in a seed-shuffled order and moves a node to the
    neighboring community with the largest positive modularity gain; on a tie
    it keeps its community, else the lowest community id wins. When a full
    pass moves nothing, communities become supernodes, numbered by the first
    node of each in node order, and the procedure repeats on their
    ``ProjectionGraph`` (inside weights carried as self-loops). Every weight
    and strength is an exact integer.
    """
    _require(g)
    rng = random.Random(seed)
    two_m = 2.0 * g.total_weight
    level, loops = g, np.zeros(g.n_nodes, np.int64)  # each node's self-loop weight
    assignment = np.arange(g.n_nodes)  # original node -> current supernode

    while True:
        strength = (level.strengths + 2 * loops).astype(float).tolist()
        com = list(range(level.n_nodes))
        com_tot = strength[:]

        def pick(v: int, w_to: dict[int, int]) -> int:
            cv, s = com[v], strength[v]
            com_tot[cv] -= s
            # max keeps the first largest gain: cv's on a tie, else the lowest id's
            best_c = max([cv, *sorted(w_to)], key=lambda c: w_to[c] - com_tot[c] * s / two_m)
            com_tot[best_c] += s
            return best_c

        if _local_moves(level.rows(), com, rng, pick) == 1:  # else a move emptied a community
            break
        _, first, inverse = np.unique(com, return_index=True, return_inverse=True)
        k, sup = len(first), np.argsort(np.argsort(first))[inverse]  # node -> supernode
        a, b = sup[level.src], sup[level.dst]
        inside = a == b  # both arcs of each inside edge
        loops = (np.bincount(sup, loops, k)
                 + np.bincount(a[inside], level.weights[inside], k) // 2).astype(np.int64)
        cross = a < b  # one arc of each edge between supernodes; the graph sums repeats
        level = ProjectionGraph(range(k),
                                np.column_stack((a[cross], b[cross], level.weights[cross])))
        assignment = sup[assignment]
    return Partition.from_labels(g.nodes, assignment.tolist())


def _transition_matrix(g: ProjectionGraph, s: np.ndarray) -> np.ndarray:
    """The random walk's n×n transition matrix, w_ij / s_i; an isolated node
    (strength 0 in ``s``) steps to itself."""
    W = np.zeros((g.n_nodes, g.n_nodes))
    W[g.src, g.dst] = g.weights
    W /= np.where(s > 0, s, 1.0)[:, None]
    isolated = np.flatnonzero(s == 0)
    W[isolated, isolated] = 1.0
    return W


def _matrix_power(a: np.ndarray, steps: int) -> np.ndarray:
    """``np.linalg.matrix_power(a, steps)`` for ``steps >= 1``, bit for bit: the
    same products in the same order (up to 3 directly, then the bits of
    ``steps`` from the lowest). Each factor is dropped once no later product
    reads it, so a power of two holds two arrays at its peak when the caller
    keeps no reference to ``a``."""
    if steps <= 3:
        p = a
        for _ in range(steps - 1):
            p = p @ a
        return p
    z, result = a, None
    del a
    while steps:
        steps, bit = divmod(steps, 2)
        if bit:
            result = z if result is None else result @ z
        if steps:
            z = z @ z
    return result


def walktrap(g: ProjectionGraph, steps: int = DEFAULT_STEPS) -> tuple[Partition, Dendrogram]:
    """Random-walk agglomeration.

    Each node gets the probability vector of a ``steps``-length random walk
    (transition w_ij / s_i); adjacent communities are merged Ward-style by the
    minimal increase in mean squared walk distance, and the returned partition
    is the dendrogram cut with maximum modularity. Isolated nodes stay
    singletons.

    Memory is dense, 8·n² bytes per float64 array (50 MB at 2,500 pages,
    800 MB at 10,000): while the transition matrix is raised to ``steps``,
    two such arrays when ``steps`` is a power of two and three otherwise;
    then the walks and the merge loop's two arrays, two and a half in all
    while its weights are int32.

    The walk matrix comes from BLAS matrix products, which may split their
    sums by thread, so on large graphs a Ward distance can differ in the last
    bit between BLAS thread counts (seen at 240 and 600 nodes, one OpenBLAS
    thread against two) and a near-tie could then merge in another order. No
    pinned dendrogram or golden file has changed between one thread and two.
    """
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    _require(g)
    n = g.n_nodes
    s = g.strengths.astype(float)
    Pt = _matrix_power(_transition_matrix(g, s), steps)
    inv_d = np.where(s > 0, 1.0 / np.where(s > 0, s, 1.0), 0.0)

    agg = _Agglomeration(g)
    S, size, node, rows = agg.S, agg.size, agg.node, agg.rows

    def ward(sq, sa, sc) -> np.ndarray:
        """Ward distances between groups of ``sa`` and ``sc`` nodes from the
        rows of ``sq``, their mean walks' differences, squared in place.
        ``vecdot`` takes one ddot per contiguous row: a matrix product sums in
        another order and can change the last bit, and so the order of tied
        merges."""
        sq *= sq
        return sa * sc / (sa + sc) / n * np.vecdot(sq, inv_d)

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
    _require(g, weight=False)
    rng = random.Random(seed)
    labels, flags = list(range(g.n_nodes)), ()

    def pick(v: int, w: dict[int, int]) -> int:
        best = max(w.values())
        if w[labels[v]] == best:
            return labels[v]
        tied = sorted(lab for lab, x in w.items() if x == best)
        return tied[rng.randrange(len(tied))] if len(tied) > 1 else tied[0]

    if _local_moves(g.rows(), labels, rng, pick, MAX_LP_SWEEPS) is None:
        warnings.warn("label propagation did not converge within "
                      f"{MAX_LP_SWEEPS} sweeps", ConvergenceWarning)
        flags = ("not_converged",)
    return Partition.from_labels(g.nodes, labels, flags)


def derived_seed(seed: int, *parts) -> int:
    """Deterministic per-operation seed from (global seed, names)."""
    text = ":".join([str(seed)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


# name -> (g, seed, steps=DEFAULT_STEPS) -> (partition, dendrogram or None), resolved per call
ALGORITHMS = {
    "fastgreedy": lambda g, seed, steps=DEFAULT_STEPS: fastgreedy(g),
    "walktrap": lambda g, seed, steps=DEFAULT_STEPS: walktrap(g, steps),
    "multilevel": lambda g, seed, steps=DEFAULT_STEPS: (louvain(g, seed), None),
    "labelprop": lambda g, seed, steps=DEFAULT_STEPS: (label_propagation(g, seed), None),
}
