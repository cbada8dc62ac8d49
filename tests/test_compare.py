import hashlib
import itertools
import struct
import warnings

import numpy as np
import pytest

from echonet.compare import (
    DegenerateDataWarning,
    cohen_kappa,
    kappa_from_confusion,
    rand_index,
    random_partition,
)
from echonet.graphs import Partition


def part(assignment: dict) -> Partition:
    return Partition.from_mapping(assignment)


def rand_index_pair_oracle(p: Partition, q: Partition) -> float:
    """O(n^2) enumeration of agreeing node pairs."""
    pd, qd = p.as_dict(), q.as_dict()
    nodes = sorted(pd)
    agree = total = 0
    for a, b in itertools.combinations(nodes, 2):
        total += 1
        agree += (pd[a] == pd[b]) == (qd[a] == qd[b])
    return agree / total


def test_identical_partitions_score_one():
    p = part({"a": 0, "b": 0, "c": 1, "d": 2})
    q = part({"a": 9, "b": 9, "c": 4, "d": 7})  # same blocks, relabeled
    assert rand_index(p, q) == 1.0


def test_crossed_pairs_score_one_third():
    p = part({"a": 0, "b": 0, "c": 1, "d": 1})
    q = part({"a": 0, "b": 1, "c": 0, "d": 1})
    assert rand_index(p, q) == pytest.approx(1 / 3)
    assert rand_index(p, q) == rand_index_pair_oracle(p, q)


def test_rand_index_symmetric_and_relabel_invariant():
    rng = np.random.default_rng(2)
    nodes = [f"n{i}" for i in range(15)]
    for _ in range(20):
        p = Partition.from_labels(nodes, rng.integers(0, 4, 15).tolist())
        q = Partition.from_labels(nodes, rng.integers(0, 3, 15).tolist())
        assert rand_index(p, q) == rand_index(q, p)
        perm = rng.permutation(4)
        p2 = Partition.from_labels(nodes, [int(perm[l]) for l in p.labels])
        assert rand_index(p2, q) == rand_index(p, q)


def test_rand_index_matches_pair_enumeration_oracle():
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.integers(2, 13))
        nodes = [f"n{i}" for i in range(n)]
        p = Partition.from_labels(nodes, rng.integers(0, n, n).tolist())
        q = Partition.from_labels(nodes, rng.integers(0, n, n).tolist())
        assert rand_index(p, q) == rand_index_pair_oracle(p, q)


def test_rand_index_equals_pair_enumeration_in_any_node_order():
    rng = np.random.default_rng(11)
    for trial in range(300):
        n = int(rng.integers(2, 40))
        nodes = [f"n{i}" for i in range(n)]
        order = nodes if trial % 2 else [nodes[i] for i in rng.permutation(n)]
        p = Partition.from_labels(nodes, rng.integers(0, rng.integers(1, n + 1), n).tolist())
        q = Partition.from_labels(order, rng.integers(0, rng.integers(1, n + 1), n).tolist())
        assert rand_index(p, q) == rand_index(q, p) == rand_index_pair_oracle(p, q)


def test_partition_with_a_repeated_node_is_refused():
    with pytest.raises(ValueError, match="node 'a' appears more than once"):
        Partition.from_labels(["b", "a", "a", "b"], [0, 1, 1, 0])
    with pytest.raises(ValueError, match="node 'a' appears more than once"):
        rand_index(Partition.from_labels(["a", "a", "b"], [0, 1, 1]),
                   Partition.from_labels(["a", "b"], [0, 0]))


def test_rand_index_node_mismatch_lists_difference():
    p = part({"a": 0, "b": 1})
    q = part({"a": 0, "c": 1})
    with pytest.raises(ValueError, match=r"\['b', 'c'\]"):
        rand_index(p, q)


def test_rand_index_needs_two_nodes():
    with pytest.raises(ValueError):
        rand_index(part({"a": 0}), part({"a": 0}))


def test_random_two_way_partitions_average_near_half():
    nodes = [f"n{i}" for i in range(243)]
    vals = []
    for seed in range(1000):
        p = random_partition(nodes, 2, seed=2 * seed)
        q = random_partition(nodes, 2, seed=2 * seed + 1)
        vals.append(rand_index(p, q))
    assert abs(float(np.mean(vals)) - 0.50) < 0.02


# ---------------------------------------------------------------------- kappa


def test_kappa_perfect_agreement():
    r = {"a": "pro", "b": "anti", "c": "pro"}
    assert cohen_kappa(r, dict(r)) == 1.0


def test_kappa_hand_confusion_45_5():
    assert kappa_from_confusion([[45, 5], [5, 45]]) == pytest.approx(0.8)
    # same thing through the map interface
    r1, r2 = {}, {}
    k = 0
    for (a, b), count in zip([("p", "p"), ("p", "a"), ("a", "p"), ("a", "a")],
                             [45, 5, 5, 45]):
        for _ in range(count):
            r1[f"n{k}"], r2[f"n{k}"] = a, b
            k += 1
    assert cohen_kappa(r1, r2) == pytest.approx(0.8)


def test_kappa_constant_rater_vs_half_split_is_zero():
    r1 = {f"n{i}": "pro" for i in range(100)}
    r2 = {f"n{i}": ("pro" if i < 50 else "anti") for i in range(100)}
    assert cohen_kappa(r1, r2) == pytest.approx(0.0)


def test_kappa_degenerate_constant_equal():
    r = {f"n{i}": "pro" for i in range(10)}
    with pytest.warns(DegenerateDataWarning):
        assert cohen_kappa(r, dict(r)) == 1.0


def test_kappa_invariant_under_joint_label_permutation():
    rng = np.random.default_rng(5)
    labs = ["x", "y", "z"]
    r1 = {f"n{i}": labs[rng.integers(0, 3)] for i in range(60)}
    r2 = {f"n{i}": labs[rng.integers(0, 3)] for i in range(60)}
    swap = {"x": "y", "y": "z", "z": "x"}
    k1 = cohen_kappa(r1, r2)
    k2 = cohen_kappa({n: swap[v] for n, v in r1.items()},
                     {n: swap[v] for n, v in r2.items()})
    assert k1 == pytest.approx(k2)


def test_kappa_node_mismatch_errors():
    with pytest.raises(ValueError):
        cohen_kappa({"a": "x"}, {"b": "x"})


def first_occurrence_confusion(r1: dict, r2: dict) -> np.ndarray:
    """Confusion matrix (rows rater 1) with labels numbered as they first
    appear: item by item in ``r1``'s order, rater 1's label before rater 2's."""
    ids: dict = {}
    for node, a in r1.items():
        ids.setdefault(a, len(ids))
        ids.setdefault(r2[node], len(ids))
    counts = np.zeros((len(ids), len(ids)))
    for node, a in r1.items():
        counts[ids[a], ids[r2[node]]] += 1
    return counts


def seeded_labelings(count: int = 200):
    """Rater pairs over 1-40 items; each rater draws from its own 1-4 of 5
    labels, so some labels are used by one rater only."""
    rng = np.random.default_rng(20)
    labels = np.array(["pro", "anti", "neutral", "mixed", "other"])
    for _ in range(count):
        n = int(rng.integers(1, 41))
        own1 = rng.choice(labels, int(rng.integers(1, 5)), replace=False)
        own2 = rng.choice(labels, int(rng.integers(1, 5)), replace=False)
        nodes = [f"n{i}" for i in rng.permutation(n)]
        yield ({v: str(own1[rng.integers(len(own1))]) for v in nodes},
               {v: str(own2[rng.integers(len(own2))]) for v in nodes})


def test_kappa_equals_kappa_of_the_first_occurrence_confusion_matrix():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateDataWarning)
        for r1, r2 in seeded_labelings():
            expected = kappa_from_confusion(first_occurrence_confusion(r1, r2))
            assert abs(cohen_kappa(r1, r2) - expected) <= 1e-15


# SHA-256 of the float64 bits of cohen_kappa on the 200 seeded labelings: a
# change in label numbering or in the arithmetic shows as a changed digest.
KAPPA_BITS = "ab4821c3ba2cabec40cbf44f9b764c335d92fb07c55291742705653017612f05"


def test_kappa_bits_are_pinned():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateDataWarning)
        kappas = [cohen_kappa(r1, r2) for r1, r2 in seeded_labelings()]
    assert hashlib.sha256(struct.pack(f"<{len(kappas)}d", *kappas)).hexdigest() == KAPPA_BITS


# ----------------------------------------------------------- random_partition


def test_random_partition_k1_single_community():
    p = random_partition(["a", "b", "c"], 1, seed=0)
    assert p.n_communities == 1


def test_random_partition_deterministic():
    nodes = {f"n{i}" for i in range(50)}  # set input: order must not matter
    assert random_partition(nodes, 3, seed=42) == random_partition(nodes, 3, seed=42)


def test_random_partition_k_bounds():
    with pytest.raises(ValueError):
        random_partition(["a"], 0, seed=0)
    with pytest.raises(ValueError):
        random_partition(["a"], 2, seed=0)


def test_random_partition_split_within_three_sigma():
    nodes = [f"n{i}" for i in range(10_000)]
    p = random_partition(nodes, 2, seed=9)
    size = p.sizes()[0]
    sigma = (10_000 * 0.25) ** 0.5
    assert abs(size - 5000) < 3 * sigma


def test_random_partition_compacts_empty_communities():
    # k = 40 over 12 nodes leaves empty draws; ids must still be contiguous
    p = random_partition([f"n{i}" for i in range(12)], 12, seed=3)
    assert set(p.labels) == set(range(p.n_communities))
