"""Partition similarity and rater agreement: Rand index, Cohen's kappa, and
the uniform random-partition baseline."""

from __future__ import annotations

import warnings

import numpy as np

from .graphs import Partition


class DegenerateDataWarning(UserWarning):
    """Emitted when a measure is defined only by convention on the input."""


def rand_index(p: Partition, q: Partition) -> float:
    """Fraction of node pairs on which two partitions agree.

    Computed from the contingency table's int64 counts (O(n log n)), never
    by pair enumeration. 1 means identical up to relabeling; two-way random baselines
    sit near 0.5.
    """
    if p.nodes == q.nodes:
        b = q.labels
    else:
        pn, qn = set(p.nodes), set(q.nodes)
        if pn != qn:
            diff = sorted(pn.symmetric_difference(qn))
            raise ValueError(f"partitions cover different node sets; difference: {diff}")
        qmap = q.as_dict()
        b = [qmap[node] for node in p.nodes]
    n = len(p.nodes)
    if n < 2:
        raise ValueError("rand index needs at least 2 nodes")
    a, b = np.array(p.labels, dtype=np.int64), np.array(b, dtype=np.int64)
    cells = np.unique(a * q.n_communities + b, return_counts=True)[1]
    sum_cells, sum_rows, sum_cols, total = (int((c * (c - 1) // 2).sum()) for c in (
        cells, np.bincount(a), np.bincount(b), np.array([n])))
    agreements = total + 2 * sum_cells - sum_rows - sum_cols
    return agreements / total


def cohen_kappa(r1: dict, r2: dict) -> float:
    """Cohen's chance-corrected agreement between two labelings.

    ``kappa_from_confusion`` of the raters' confusion matrix, its labels
    numbered as they first appear (item by item in ``r1``'s order, rater 1's
    label first), never in set order.
    """
    if set(r1) != set(r2):
        diff = sorted(set(r1).symmetric_difference(set(r2)))
        raise ValueError(f"raters cover different node sets; difference: {diff}")
    if not r1:
        raise ValueError("kappa needs at least one rated item")
    ids: dict = {}
    cells = [(ids.setdefault(a, len(ids)), ids.setdefault(r2[node], len(ids)))
             for node, a in r1.items()]
    k = len(ids)
    return kappa_from_confusion(np.bincount(
        [i * k + j for i, j in cells], minlength=k * k).reshape(k, k))


def kappa_from_confusion(counts) -> float:
    """Kappa (p_o - p_e) / (1 - p_e) of a square confusion matrix (rows rater 1,
    cols rater 2); p_e = 1, both raters constant and equal, gives 1, flagged."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    p_o = np.trace(counts) / n
    p_e = float((counts.sum(axis=1) / n) @ (counts.sum(axis=0) / n))
    if p_e == 1.0:
        warnings.warn("degenerate confusion matrix; kappa = 1 by convention",
                      DegenerateDataWarning)
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


def random_partition(nodes, k: int, seed: int) -> Partition:
    """Assign each node independently and uniformly to one of k communities.

    Empty communities are permitted by the draw and compacted away to keep
    ids contiguous.
    """
    node_list = sorted(nodes)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > len(node_list):
        raise ValueError(f"k = {k} exceeds the {len(node_list)} nodes")
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, k, size=len(node_list))
    return Partition.from_labels(node_list, draws.tolist())
