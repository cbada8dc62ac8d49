import hashlib
import itertools
import random
import warnings

import numpy as np
import pytest

from echonet import community
from echonet.community import (
    ALGORITHMS,
    Dendrogram,
    fastgreedy,
    label_propagation,
    louvain,
    modularity,
    walktrap,
)
from echonet.compare import rand_index
from echonet.graphs import Partition, ProjectionGraph

from conftest import random_weighted_graph, two_block_graph


def two_cliques():
    nodes = list("abcdef")
    edges = [(0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 1), (3, 5, 1), (4, 5, 1)]
    g = ProjectionGraph(nodes, edges)
    truth = Partition.from_labels(nodes, [0, 0, 0, 1, 1, 1])
    return g, truth


def complete_graph(n, w=1):
    return ProjectionGraph([f"n{i}" for i in range(n)],
                           [(i, j, w) for i in range(n) for j in range(i + 1, n)])


def modularity_dense_oracle(g, p):
    """Direct evaluation of (1/2m) sum_ij [w_ij - s_i s_j / 2m] delta(c_i, c_j)."""
    n = g.n_nodes
    W = np.zeros((n, n))
    for i, j, w in g.edges():
        W[i, j] = W[j, i] = w
    s = W.sum(axis=1)
    two_m = s.sum()
    com = p.as_dict()
    labels = np.array([com[node] for node in g.nodes])
    delta = labels[:, None] == labels[None, :]
    return float(((W - np.outer(s, s) / two_m) * delta).sum() / two_m)


def set_partitions(n):
    """All partitions of range(n) as restricted-growth label tuples."""
    def rec(prefix, k):
        i = len(prefix)
        if i == n:
            yield tuple(prefix)
            return
        for lab in range(k + 1):
            yield from rec(prefix + [lab], max(k, lab + 1))
    yield from rec([], 0)


def brute_force_max_modularity(g):
    best = -2.0
    for labels in set_partitions(g.n_nodes):
        q = modularity(g, Partition.from_labels(g.nodes, labels))
        best = max(best, q)
    return best


def connected_atlas_graphs(max_nodes=6):
    """All connected graphs on 1..max_nodes nodes, from the Atlas enumeration."""
    import networkx as nx

    out = []
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if not 1 <= n <= max_nodes or ag.number_of_edges() == 0:
            continue
        if not nx.is_connected(ag):
            continue
        nodes = [f"n{i}" for i in range(n)]
        out.append(ProjectionGraph(nodes, [(i, j, 1) for i, j in ag.edges()]))
    return out


# ----------------------------------------------------------------- modularity


def test_modularity_single_community_is_zero():
    g = random_weighted_graph(9, 0.5, seed=1)
    p = Partition.from_labels(g.nodes, [0] * 9)
    assert modularity(g, p) == pytest.approx(0.0, abs=1e-15)


def test_modularity_two_cliques_half():
    g, truth = two_cliques()
    assert modularity(g, truth) == pytest.approx(0.5, abs=1e-15)


def test_modularity_scale_invariant():
    g, truth = two_cliques()
    scaled = ProjectionGraph(g.nodes, [(i, j, w * 10) for i, j, w in g.edges()])
    assert modularity(scaled, truth) == pytest.approx(modularity(g, truth), abs=1e-12)


def test_modularity_zero_weight_errors():
    g = ProjectionGraph(["a", "b"], [])
    with pytest.raises(ValueError):
        modularity(g, Partition.from_labels(["a", "b"], [0, 1]))


def test_modularity_node_mismatch_errors():
    g, _ = two_cliques()
    with pytest.raises(ValueError):
        modularity(g, Partition.from_labels(["a", "b"], [0, 1]))


def test_modularity_matches_dense_oracle():
    rng = np.random.default_rng(4)
    for seed in range(20):
        g = random_weighted_graph(8, 0.5, seed=100 + seed)
        if g.total_weight == 0:
            continue
        labels = rng.integers(0, 3, size=8).tolist()
        p = Partition.from_labels(g.nodes, labels)
        assert modularity(g, p) == pytest.approx(modularity_dense_oracle(g, p),
                                                 abs=1e-12)


def test_modularity_bounds():
    for seed in range(10):
        g = random_weighted_graph(7, 0.6, seed=seed)
        if g.total_weight == 0:
            continue
        for labels in [[0] * 7, list(range(7)), [0, 1] * 3 + [0]]:
            q = modularity(g, Partition.from_labels(g.nodes, labels))
            assert -0.5 - 1e-12 <= q <= 1.0 + 1e-12


# ----------------------------------------------------------------- fastgreedy


def test_fastgreedy_two_cliques():
    g, truth = two_cliques()
    part, dendro = fastgreedy(g)
    assert rand_index(part, truth) == 1.0
    assert dendro.best_score == pytest.approx(0.5, abs=1e-12)


def test_fastgreedy_single_edge_prefers_merge():
    g = ProjectionGraph(["a", "b"], [(0, 1, 1)])
    part, dendro = fastgreedy(g)
    assert part.n_communities == 1
    assert dendro.best_score == pytest.approx(0.0, abs=1e-15)


def test_fastgreedy_reported_score_is_reevaluated():
    for seed in range(10):
        g = random_weighted_graph(10, 0.4, seed=seed, connected=True)
        part, dendro = fastgreedy(g)
        assert dendro.best_score == modularity(g, part)
        if dendro.best_step > 0:
            # incremental score at the chosen cut matches the recomputation
            assert dendro.merges[dendro.best_step - 1][2] == pytest.approx(
                dendro.best_score, abs=1e-9)


def test_fastgreedy_dendrogram_fully_agglomerates_connected():
    g = random_weighted_graph(9, 0.5, seed=2, connected=True)
    _part, dendro = fastgreedy(g)
    assert len(dendro.merges) == g.n_nodes - 1
    assert dendro.leaf_count == g.n_nodes
    merged = [m for a, b, _s in dendro.merges for m in (a, b)]
    assert len(merged) == len(set(merged))  # each id merged at most once


def test_fastgreedy_never_merges_components():
    g, _ = two_cliques()  # disconnected
    _part, dendro = fastgreedy(g)
    assert len(dendro.merges) == 4  # 2 merges per clique, none across


def test_fastgreedy_bounded_by_brute_force():
    graphs = connected_atlas_graphs(5)
    rng = np.random.default_rng(9)
    for seed in range(20):
        graphs.append(random_weighted_graph(8, 0.45, seed=300 + seed, connected=True))
    assert len(graphs) > 30
    for g in graphs:
        part, dendro = fastgreedy(g)
        best = brute_force_max_modularity(g)
        assert dendro.best_score <= best + 1e-12
        assert dendro.best_score == modularity(g, part)


def test_fastgreedy_modularity_matches_networkx_greedy():
    import networkx as nx

    checked = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(3, 60)
        p = (0.1, 0.3, 0.7)[seed % 3]
        edges = [(i, j, rng.randint(1, 10**6)) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        if not edges:
            continue
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_weighted_edges_from(edges)
        expected = nx.community.modularity(
            G, nx.community.greedy_modularity_communities(G, weight="weight"), weight="weight")
        _part, dendro = fastgreedy(ProjectionGraph([f"v{i:02d}" for i in range(n)], edges))
        assert dendro.best_score == pytest.approx(expected, abs=1e-9)
        checked += 1
    assert checked >= 190


def test_fastgreedy_deterministic():
    g = random_weighted_graph(20, 0.3, seed=5)
    assert fastgreedy(g)[0] == fastgreedy(g)[0]


def test_fastgreedy_empty_or_weightless_errors():
    with pytest.raises(ValueError):
        fastgreedy(ProjectionGraph([], []))
    with pytest.raises(ValueError):
        fastgreedy(ProjectionGraph(["a", "b"], []))


# -------------------------------------------------------------------- louvain


def test_louvain_two_cliques_any_seed():
    g, truth = two_cliques()
    for seed in range(8):
        assert rand_index(louvain(g, seed), truth) == 1.0


def test_louvain_complete_graph_single_community():
    g = complete_graph(6)
    for seed in range(5):
        assert louvain(g, seed).n_communities == 1


def test_louvain_improves_on_singletons():
    for seed in range(6):
        g = random_weighted_graph(12, 0.3, seed=40 + seed, connected=True)
        part = louvain(g, seed)
        singles = Partition.from_labels(g.nodes, list(range(g.n_nodes)))
        assert modularity(g, part) >= modularity(g, singles)


def louvain_reference(g, seed):
    """Louvain with each level's graph aggregated in Python dicts of floats:
    the same local moves, shuffles and first-occurrence supernode numbering."""
    rng, m = random.Random(seed), float(g.total_weight)
    adj = [dict(zip(nb, ws)) for nb, ws in g.rows()]
    loops, assignment = [0.0] * g.n_nodes, list(range(g.n_nodes))
    while True:
        n = len(adj)
        strength = [sum(nb.values()) + 2.0 * loops[v] for v, nb in enumerate(adj)]
        com, com_tot, moved_any, moved = list(range(n)), strength[:], False, True
        while moved:
            moved, order = False, list(range(n))
            rng.shuffle(order)
            for v in order:
                cv = com[v]
                w_to = {cv: 0.0}
                for u, w in adj[v].items():
                    w_to[com[u]] = w_to.get(com[u], 0.0) + w
                com_tot[cv] -= strength[v]
                best, best_gain = cv, w_to[cv] - com_tot[cv] * strength[v] / (2.0 * m)
                for c in sorted(w_to):
                    gain = w_to[c] - com_tot[c] * strength[v] / (2.0 * m)
                    if c != cv and gain > best_gain:
                        best, best_gain = c, gain
                com_tot[best] += strength[v]
                com[v] = best
                moved = moved or best != cv
            moved_any = moved_any or moved
        if not moved_any:
            return Partition.from_labels(g.nodes, assignment)
        remap = {c: i for i, c in enumerate(dict.fromkeys(com))}
        new_adj, new_loops = [{} for _ in remap], [0.0] * len(remap)
        for v in range(n):
            cv = remap[com[v]]
            new_loops[cv] += loops[v]
            for u, w in adj[v].items():
                cu = remap[com[u]]
                if cu != cv:
                    new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + w
                elif u > v:
                    new_loops[cv] += w
        assignment = [remap[com[s]] for s in assignment]
        adj, loops = new_adj, new_loops


def test_louvain_matches_dict_aggregation_reference():
    """Levels as ProjectionGraphs with int64 self-loops give the partitions of
    a float dict aggregation, up to weights of 2**40 (sums stay below 2**53)."""
    aggregated = 0  # graphs on which a level moved a node, so aggregation ran
    for seed in range(120):
        rng = random.Random(seed)
        n, p = rng.randint(2, 50), rng.choice([0.1, 0.3, 0.7])
        top = rng.choice([1, 2, 5, 1000, 2**40])
        edges = [(i, j, rng.randint(1, top)) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p] or [(0, 1, top)]
        g = ProjectionGraph([f"p{i:02d}" for i in range(n)], edges)
        part = louvain(g, seed)
        assert part == louvain_reference(g, seed)
        aggregated += part.n_communities < n
    assert aggregated > 100


# ------------------------------------------------------------------- walktrap


def test_walktrap_two_cliques():
    g, truth = two_cliques()
    part, dendro = walktrap(g)
    assert rand_index(part, truth) == 1.0
    assert dendro.best_score == pytest.approx(0.5, abs=1e-12)
    # the chosen cut hits the brute-force optimum here
    assert dendro.best_score == pytest.approx(brute_force_max_modularity(g), abs=1e-12)


def test_walktrap_two_nodes_one_edge():
    g = ProjectionGraph(["a", "b"], [(0, 1, 3)])
    part, _ = walktrap(g)
    assert part.n_communities == 1


def test_walktrap_zero_steps_errors():
    g, _ = two_cliques()
    with pytest.raises(ValueError):
        walktrap(g, steps=0)


def test_walktrap_isolated_node_stays_singleton():
    g = ProjectionGraph(["a", "b", "c"], [(0, 1, 2)])
    part, _ = walktrap(g)
    d = part.as_dict()
    assert d["a"] == d["b"] and d["c"] != d["a"]


def test_walktrap_reported_score_is_reevaluated():
    for seed in range(8):
        g = random_weighted_graph(10, 0.4, seed=60 + seed, connected=True)
        part, dendro = walktrap(g)
        assert dendro.best_score == modularity(g, part)
        if dendro.best_step > 0:
            assert dendro.merges[dendro.best_step - 1][2] == pytest.approx(
                dendro.best_score, abs=1e-9)


def test_walktrap_deterministic():
    g = random_weighted_graph(20, 0.3, seed=30)
    assert walktrap(g)[0] == walktrap(g)[0]


# ---------------------------------------------------------- label propagation


def test_label_propagation_two_triangles():
    g, truth = two_cliques()
    for seed in range(8):
        assert rand_index(label_propagation(g, seed), truth) == 1.0


def test_label_propagation_single_node():
    g = ProjectionGraph(["only"], [])
    part = label_propagation(g, 0)
    assert part.n_communities == 1 and not part.flags


def test_label_propagation_deterministic_per_seed():
    g = random_weighted_graph(25, 0.2, seed=12)
    assert label_propagation(g, 7) == label_propagation(g, 7)


def label_propagation_reference(g, seed):
    """Label propagation as one loop over Python lists and dicts: isolated
    nodes passed over, ties among other labels sorted and drawn from the
    seed's ``random.Random``, at most ``community.MAX_LP_SWEEPS`` sweeps."""
    rng = random.Random(seed)
    n = g.n_nodes
    labels, rows = list(range(n)), g.rows()
    flags: tuple[str, ...] = ()
    for _sweep in range(community.MAX_LP_SWEEPS):
        order = list(range(n))
        rng.shuffle(order)
        changed = False
        for v in order:
            if not rows[v][0]:
                continue
            weight_by_label: dict[int, int] = {}
            for u, w in zip(*rows[v]):
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
        flags = ("not_converged",)
    return Partition.from_labels(g.nodes, labels, flags)


def test_label_propagation_matches_list_reference(monkeypatch):
    """The same partitions as the reference on the pinned graphs at seeds 0-2
    and on random graphs, all-equal weights included, where ties draw."""
    draws = []
    randrange = random.Random.randrange
    monkeypatch.setattr(random.Random, "randrange",
                        lambda self, *a: draws.append(a) or randrange(self, *a))
    for g in pinned_graphs():
        for seed in range(3):
            assert label_propagation(g, seed) == label_propagation_reference(g, seed)
    for seed in range(120):
        rng = random.Random(seed)
        n, p = rng.randint(1, 50), rng.choice([0.05, 0.1, 0.3, 0.7])
        top = rng.choice([1, 1, 2, 5, 1000])  # 1: all weights equal
        edges = [(i, j, rng.randint(1, top)) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        g = ProjectionGraph([f"p{i:02d}" for i in range(n)], edges)
        assert label_propagation(g, seed) == label_propagation_reference(g, seed)
    assert len(draws) > 1000


def test_label_propagation_flags_a_sweep_limit_it_reaches(monkeypatch):
    """A run whose first sweep without a move is sweep k converges at a limit
    of k sweeps; at k - 1 it warns and flags its labels, as the reference does."""
    g, seed = random_weighted_graph(40, 0.15, seed=3), 5
    for quiet in itertools.count(1):  # the lowest limit the reference meets unflagged
        monkeypatch.setattr(community, "MAX_LP_SWEEPS", quiet)
        if not label_propagation_reference(g, seed).flags:
            break
    assert quiet >= 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        part = label_propagation(g, seed)
    assert part == label_propagation_reference(g, seed) and not part.flags
    monkeypatch.setattr(community, "MAX_LP_SWEEPS", quiet - 1)
    with pytest.warns(community.ConvergenceWarning, match=f"within {quiet - 1} sweeps"):
        part = label_propagation(g, seed)
    assert part == label_propagation_reference(g, seed) and part.flags == ("not_converged",)


# ------------------------------------------------------------------ recovery


@pytest.mark.parametrize("algo", ["fastgreedy", "louvain", "walktrap"])
def test_planted_two_block_recovery(algo):
    scores = []
    for seed in range(5):
        g, truth = two_block_graph(40, 0.9, 0.05, seed=seed)
        if algo == "fastgreedy":
            part = fastgreedy(g)[0]
        elif algo == "louvain":
            part = louvain(g, seed)
        else:
            part = walktrap(g)[0]
        scores.append(rand_index(part, truth))
    assert float(np.mean(scores)) >= 0.95


def test_planted_two_block_label_propagation():
    scores = []
    for seed in range(7):
        g, truth = two_block_graph(40, 0.9, 0.05, seed=seed)
        scores.append(rand_index(label_propagation(g, seed), truth))
    assert float(np.median(scores)) >= 0.90


# ----------------------------------------------------------------- properties


def test_all_algorithms_return_total_contiguous_partitions():
    for seed in range(5):
        g = random_weighted_graph(15, 0.25, seed=80 + seed)
        if g.total_weight == 0:
            continue
        outs = [fastgreedy(g)[0], louvain(g, seed), walktrap(g)[0],
                label_propagation(g, seed)]
        for part in outs:
            assert set(part.nodes) == set(g.nodes)
            assert set(part.labels) == set(range(part.n_communities))
            singles = Partition.from_labels(g.nodes, list(range(g.n_nodes)))
            assert modularity(g, part) >= modularity(g, singles) - 1e-12


def test_weight_scaling_leaves_partitions_unchanged():
    # powers of two scale float arithmetic exactly, so even tie-breaks agree;
    # at 2**28 the total weight passes 2**31 and the merge loop's weights are int64
    for seed, factor in itertools.product(range(4), (8, 2**28)):
        g = random_weighted_graph(14, 0.3, seed=90 + seed, connected=True)
        scaled = ProjectionGraph(g.nodes, [(i, j, w * factor) for i, j, w in g.edges()])
        wide = scaled.total_weight >= 2**31
        assert wide == (factor > 8)
        assert community._Agglomeration(scaled).B.dtype == (np.int64 if wide else np.int32)
        for detect in (fastgreedy, walktrap):
            (part, dendro), (scaled_part, scaled_dendro) = detect(g), detect(scaled)
            assert part == scaled_part
            assert dendro.merges == scaled_dendro.merges
        assert louvain(g, seed) == louvain(scaled, seed)
        assert label_propagation(g, seed) == label_propagation(scaled, seed)


# ------------------------------------------------------------ detector table


def test_algorithm_table_returns_a_dendrogram_for_the_agglomerative_detectors():
    g, _ = two_block_graph(n=30, p_in=0.6, p_out=0.1, seed=4)
    for name, detect in ALGORITHMS.items():
        part, dendro = detect(g, 5, 2)
        assert isinstance(part, Partition) and part.nodes == g.nodes
        if name in ("fastgreedy", "walktrap"):
            assert isinstance(dendro, Dendrogram)
        else:
            assert dendro is None
    assert ALGORITHMS["walktrap"](g, 0, 2) == walktrap(g, 2)
    assert ALGORITHMS["walktrap"](g, 0, 2) != walktrap(g, 4)
    assert ALGORITHMS["walktrap"](g, 0) == walktrap(g)


# ------------------------------------------------------- pinned dendrograms


def pinned_graphs():
    """40 seeded weighted graphs: sparse to complete, disconnected, isolated
    nodes, and all-equal weights (which make every tie-break decide)."""
    graphs = []
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 30)
        p = rng.choice([0.1, 0.25, 0.5, 1.0])
        kind = seed % 4  # 0: random weights, 1: equal weights, 2: two parts, 3: isolated
        weight = rng.randint(1, 4)
        split = rng.randint(1, n - 1)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if kind == 2 and (i < split) != (j < split):
                    continue
                if kind == 3 and max(i, j) >= split:
                    continue
                if rng.random() < p:
                    edges.append((i, j, weight if kind == 1 else rng.randint(1, 9)))
        if not edges:
            edges = [(0, 1, weight)]
        graphs.append(ProjectionGraph([f"p{rng.randrange(1000):03d}_{i}" for i in range(n)],
                                      edges))
    return graphs


# SHA-256 over every graph's Dendrogram.to_csv(), Partition.to_csv(), best step
# and best score (multilevel and labelprop: see SEEDED). A digest may only change with a CHANGES.md entry that explains
# the behaviour change.
PINNED = {
    "fastgreedy": "cedc317fab4123559fac3eb393cf8f634b6a0eb90505b132eb4008fd11789b04",
    "labelprop": "28be5b905bef6c4ab4ac65f7f9895bea279b152196bba504441179cbc0136ae4",
    "multilevel": "a9d5610cdbebd66edae1087ece2da51f095b7c038b6f52cc974262e8d734be52",
    "walktrap2": "8a005ce0e3bde9dc49fbef39de4778c3159bcda2d26eeee2b422d1eb4c90720c",
    "walktrap4": "bd48520e569aa0249338b06ae1daacb3fae079464eebb76350657dbf28585bd3",
}


DETECTORS = {"fastgreedy": fastgreedy,
             "walktrap2": lambda g: walktrap(g, steps=2),
             "walktrap4": lambda g: walktrap(g, steps=4)}
# the local-moving detectors return no dendrogram: their digests hash each
# graph's Partition.to_csv() and flags at seeds 0, 1 and 2
SEEDED = {"multilevel": louvain, "labelprop": label_propagation}


def dendrogram_digest(name, graphs):
    h = hashlib.sha256()
    for g in graphs:
        if name in SEEDED:
            for seed in range(3):
                part = SEEDED[name](g, seed)
                h.update(part.to_csv().encode() + f"{part.flags}\n".encode())
            continue
        part, dendro = DETECTORS[name](g)
        h.update(dendro.to_csv().encode() + part.to_csv().encode()
                 + f"{dendro.best_step},{dendro.best_score!r}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_dendrograms_and_cuts_are_pinned(name):
    assert dendrogram_digest(name, pinned_graphs()) == PINNED[name]


# SHA-256 over every merge on the 40 pinned graphs: its two community ids and
# the exact bits of the score that picked it, which the merge loop hands last
# to the per-merge rescoring callback, its own last argument. Unlike PINNED it
# sees a last-bit change in a score that does not reorder merges. The large
# graphs are left out: there walktrap's distances can differ in the last bit
# between BLAS thread counts.
PINNED_MERGE_SCORES = {
    "fastgreedy": "36bf73c9355dd642515620567bfc94e96374939705b1b8aa7e6dedf704123aaa",
    "walktrap2": "22f7bbe76367bbf1ab3bacf2369cea3bdd8911c9c5e16562fbed5b80f5a5d878",
    "walktrap4": "abc0fce9ca89c65cd4a4d3c4bb17baedbc7b1578af1f246c7c9fe388275d8747",
}


def merge_score_digest(name, graphs, monkeypatch):
    h = hashlib.sha256()
    run = community._Agglomeration.run

    def traced_run(self, *args):
        scores = []

        def rescore(*rargs):
            scores.append(rargs[-1])
            return args[-1](*rargs)

        part, dendro = run(self, *args[:-1], rescore)
        assert len(scores) == len(dendro.merges)
        for (a, b, _q), s in zip(dendro.merges, scores):
            h.update(f"{a},{b},{float(s).hex()}\n".encode())
        return part, dendro

    monkeypatch.setattr(community._Agglomeration, "run", traced_run)
    for g in graphs:
        DETECTORS[name](g)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_MERGE_SCORES))
def test_merge_scores_are_pinned(name, monkeypatch):
    assert merge_score_digest(name, pinned_graphs(), monkeypatch) == PINNED_MERGE_SCORES[name]


# ------------------------------------------------------- merge loop seeding


def dense_scan_pairs(agg):
    """The adjacent slot pairs i < j found by scanning the weight array ``B``
    row block by row block: the reference for ``_Agglomeration.pairs``."""
    for k in range(0, len(agg.B), agg.rows):
        i, j = agg.B[k:k + agg.rows].nonzero()
        i += k
        i, j = i[i < j], j[i < j]
        for h in range(0, len(i), agg.rows):
            yield i[h:h + agg.rows], j[h:h + agg.rows]


def shuffled_name_graphs():
    """Seeded random graphs whose node names sort in another order than their
    ids, so a node's merge-loop slot differs from its id; the larger ones
    need several blocks of pairs."""
    graphs = []
    for seed in range(8):
        rng = random.Random(500 + seed)
        n = rng.choice([5, 40, 150, 400])
        names = [f"q{k:04d}" for k in rng.sample(range(10_000), n)]
        p = rng.choice([0.05, 0.3, 0.9])
        edges = [(i, j, rng.randint(1, 9)) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        graphs.append(ProjectionGraph(names, edges or [(0, 1, 1)]))
    return graphs


def seeding_graphs():
    return pinned_graphs() + shuffled_name_graphs()


def test_pairs_from_the_arcs_match_the_dense_scan():
    blocked = moved = 0
    for g in seeding_graphs():
        agg = community._Agglomeration(g)
        moved += not np.array_equal(agg.slot, np.arange(g.n_nodes))
        got = [(int(a), int(b)) for i, j in agg.pairs()
               for a, b in zip(np.minimum(i, j), np.maximum(i, j))]
        expected = {(int(a), int(b)) for i, j in dense_scan_pairs(agg) for a, b in zip(i, j)}
        assert len(got) == len(set(got)) == g.n_edges
        assert set(got) == expected
        assert all(len(i) <= agg.rows for i, _j in agg.pairs())
        blocked += g.n_edges > agg.rows
    assert moved >= len(shuffled_name_graphs()) and blocked > 0


def reference_seeding(g, name):
    """The scores of every adjacent slot pair before the first merge, written
    out from the dense-scan pairs: fastgreedy's -delta_q and walktrap's Ward
    distance between singletons."""
    agg = community._Agglomeration(g)
    S, strength, node, n = np.full((g.n_nodes,) * 2, np.inf), agg.strength, agg.node, g.n_nodes
    m, two_m2 = agg.m, 2.0 * agg.m ** 2
    if name != "fastgreedy":
        s = g.strengths.astype(float)
        steps = int(name.removeprefix("walktrap"))
        Pt = community._matrix_power(community._transition_matrix(g, s), steps)
        inv_d = np.where(s > 0, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    for i, j in dense_scan_pairs(agg):
        if name == "fastgreedy":
            S[i, j] = S[j, i] = -(agg.B[i, j] / m - strength[i] * strength[j] / two_m2)
        else:
            sq = (Pt[node[i]] - Pt[node[j]]) ** 2
            S[i, j] = S[j, i] = 1.0 * 1.0 / (1.0 + 1.0) / n * np.vecdot(sq, inv_d)
    return S


@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_merge_loop_starts_from_the_reference_scores(name, monkeypatch):
    run, started = community._Agglomeration.run, []

    def capture(self, *args):
        started.append(self.S.copy())
        return run(self, *args)

    monkeypatch.setattr(community._Agglomeration, "run", capture)
    graphs = seeding_graphs()
    for g in graphs:
        DETECTORS[name](g)
    assert len(started) == len(graphs)
    for g, S in zip(graphs, started):
        assert np.array_equal(S.view(np.int64), reference_seeding(g, name).view(np.int64))


def test_no_detector_writes_to_its_graph():
    arrays = ("src", "dst", "weights", "strengths")
    for g in pinned_graphs():
        before = [getattr(g, name).copy() for name in arrays]
        fastgreedy(g)
        walktrap(g, steps=2)
        walktrap(g, steps=4)
        louvain(g, seed=3)
        label_propagation(g, seed=3)
        for name, old in zip(arrays, before):
            assert np.array_equal(getattr(g, name), old), name
            with pytest.raises(ValueError, match="read-only"):
                getattr(g, name)[0] = 1


def large_pinned_graphs():
    """Two seeded graphs big enough that walktrap's seeding and its fallback
    distances work on many rows at once: a dense one (240 nodes, density
    about 0.93) and a sparse planted one (600 nodes in blocks of 25, with
    cross-block edges; about 30% of all edges share the weight 5)."""
    rng = random.Random(2024)
    n = 240
    dense = [(i, j, rng.randint(1, 60)) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.93]
    n = 600
    sparse = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < (0.5 if i // 25 == j // 25 else 0.004):
                sparse.append((i, j, 5 if rng.random() < 0.3 else rng.randint(1, 30)))
    return [ProjectionGraph([f"d{i:03d}" for i in range(240)], dense),
            ProjectionGraph([f"s{i:03d}" for i in range(600)], sparse)]


# The same hash as PINNED, under the same rule.
PINNED_LARGE = {
    "fastgreedy": "3deae09626d420e6bb209c6d787d30ed2e8c220103448fa080788ed74e755d02",
    "walktrap2": "93f63f08ed76c4f4615131a3bfe378ac7d4a309521e797c46ff1efb6abd9462b",
    "walktrap4": "eccd39c5cfa2965450adc3f7d06446b60b1800892792fcd4d6dcb7623b0c215f",
}


@pytest.mark.parametrize("name", sorted(PINNED_LARGE))
def test_large_graph_dendrograms_are_pinned(name):
    assert dendrogram_digest(name, large_pinned_graphs()) == PINNED_LARGE[name]


# ------------------------------------------------------------ dense memory


@pytest.mark.parametrize("n", [7, 243, 1000])
def test_matrix_power_matches_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a = rng.random((n, n))
    a /= a.sum(axis=1)[:, None]
    for steps in range(1, 10):
        expected = np.linalg.matrix_power(a, steps)
        got = community._matrix_power(a.copy(), steps)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), steps


@pytest.mark.parametrize("length", [1, 7, 243, 1000, 2500])
def test_vecdot_matches_per_row_dot_bit_for_bit(length):
    # walktrap's Ward distances take one vecdot per block of contiguous rows
    rng = np.random.default_rng(length)
    sq = rng.random((64, length)) ** 2
    d = rng.random(length)
    expected = np.array([np.dot(row, d) for row in sq])
    assert np.array_equal(np.vecdot(sq, d).view(np.int64), expected.view(np.int64))


def test_dense_detectors_peak_memory_is_bounded():
    """Peak traced memory in n×n float64 arrays on a 600-node graph: walktrap
    holds the walks, the scores and the int32 weights (2.5 arrays) and
    fastgreedy the scores and the weights (1.5), plus row blocks of 512 KB."""
    import tracemalloc

    g = large_pinned_graphs()[1]
    array = 8 * g.n_nodes ** 2
    for detect, bound in ((walktrap, 3.1), (fastgreedy, 1.9)):
        tracemalloc.start()
        try:
            detect(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * array, (detect.__name__, peak / array)
