import csv
import io
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from echonet.graphs import (
    BipartiteGraph,
    Partition,
    ProjectionGraph,
    build_bipartite,
    connected_components,
    induced_subgraph,
    largest_component_size,
    project,
)
from echonet.synth import SynthConfig, generate

from conftest import dataset, random_dataset, random_weighted_graph, rec


def test_multiplicity_collapsed():
    d = dataset(rec("u1", "p1", "like", "2014-01-01"),
                rec("u1", "p1", "like", "2014-02-01"))
    b = build_bipartite(d, "like")
    assert b.n_edges == 1
    assert b.users == ("u1",) and b.user_pages == [[0]]


def test_repeated_pairs_collapse():
    pairs = [("u2", "b"), ("u1", "c"), ("u2", "b"), ("u1", "a"), ("u1", "c")]
    b = BipartiteGraph(["a", "b", "c"], pairs, "like")
    assert b.users == ("u1", "u2")
    assert b.user_pages == [[0, 2], [1]] and b.n_edges == 3


def test_pages_without_pairs_stay_nodes():
    b = BipartiteGraph(["a", "b", "c", "d"], iter([("u1", "b"), ("u2", "b")]), "comment")
    assert b.pages == ("a", "b", "c", "d") and b.action == "comment"
    assert b.user_pages == [[1], [1]]
    g = project(b)
    assert g.nodes == b.pages and g.n_edges == 0


def test_users_sorted_and_only_those_with_pairs():
    pairs = [("u10", "p"), ("u2", "p"), ("u1", "q"), ("u2", "q")]
    b = BipartiteGraph(["p", "q"], pairs, "like")
    assert b.users == ("u1", "u10", "u2")
    assert b.user_pages == [[1], [0], [0, 1]]
    assert BipartiteGraph(["p", "q"], [], "like").users == ()


def test_build_bipartite_holds_a_few_words_per_record():
    """Peak memory of a build, result included, per record of the action.

    The records are built before tracing starts, so only the build's own
    objects count. A set of (user, page) string pairs, or a second incidence
    by page, costs more than the bound on its own.
    """
    cfg = SynthConfig(users_per_side=(600, 600), pages_per_side=(12, 8),
                      actions_per_user=("fixed", 20), posts_per_page=10, seed=4)
    d = generate(cfg)[0]
    n_likes = sum(r.action == "like" for r in d.records)
    tracemalloc.start()
    try:
        b = build_bipartite(d, "like")
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n_likes == 19_191 and b.n_edges == 9_843
    assert peak <= 100 * n_likes


def test_kind_filter_empty_edges():
    d = dataset(rec("u1", "p1", "like"), rec("u2", "p2", "like"))
    b = build_bipartite(d, "comment")
    assert b.pages == ("p1", "p2")
    assert b.n_edges == 0 and not b.users


def test_bipartite_edges_match_brute_force():
    d = random_dataset(50, seed=17)
    for kind in ("like", "comment"):
        b = build_bipartite(d, kind)
        expected = {(r.user, r.page) for r in d.records if r.action == kind}
        got = {(b.users[u], b.pages[p])
               for u, ps in enumerate(b.user_pages) for p in ps}
        assert got == expected and b.n_edges == len(expected)
        assert b.pages == tuple(sorted(d.pages))


def test_project_minimal_overlap():
    d = dataset(rec("u1", "p1"), rec("u1", "p2"))
    g = project(build_bipartite(d, "like"))
    assert g.n_edges == 1 and g.weight("p1", "p2") == 1


def test_project_disjoint_no_edge():
    d = dataset(rec("u1", "p1"), rec("u2", "p2"))
    g = project(build_bipartite(d, "like"))
    assert g.n_edges == 0


def test_project_weights_match_brute_force():
    rng = np.random.default_rng(8)
    users = [f"u{i}" for i in range(20)]
    pages = [f"p{i}" for i in range(8)]
    records = [rec(u, p) for u in users for p in pages if rng.random() < 0.4]
    b = build_bipartite(dataset(*records), "like")
    g = project(b)
    liked = {p: {r.user for r in records if r.page == p} for p in pages}
    for a, bb in itertools.combinations(pages, 2):
        assert g.weight(a, bb) == len(liked[a] & liked[bb])
    # weight bound and strength cache
    for i, j, w in g.edges():
        assert w <= min(len(liked[g.nodes[i]]), len(liked[g.nodes[j]]))
    assert list(g.strengths) == [sum(nb.values()) for nb in g.adj]


def test_projection_weight_sum_identity():
    for seed in range(5):
        d = random_dataset(300, seed=seed)
        g = project(build_bipartite(d, "like"))
        pages_of: dict[str, set] = {}
        for r in d.records:
            if r.action == "like":
                pages_of.setdefault(r.user, set()).add(r.page)
        expected = sum(len(ps) * (len(ps) - 1) // 2 for ps in pages_of.values())
        assert sum(w for _i, _j, w in g.edges()) == expected


def random_bipartite(rng, n_pages, n_users):
    """Users of degree 0 to n_pages, degree 0 and 1 drawn often, some pairs
    given twice; returns the graph and its distinct (user, page) pairs."""
    pages = [f"p{i:02d}" for i in range(n_pages)]
    pairs = []
    for u in range(n_users):
        k = min(n_pages, int(rng.choice([0, 1, int(rng.integers(0, n_pages + 1))])))
        pairs += [(f"u{u:02d}", pages[p]) for p in rng.choice(n_pages, size=k, replace=False)]
    repeats = [pairs[i] for i in rng.integers(0, len(pairs), len(pairs) // 3)] if pairs else []
    given = pairs + repeats
    rng.shuffle(given)
    return BipartiteGraph(pages, given, "like"), set(pairs)


@pytest.mark.parametrize("seed", range(8))
def test_project_sorted_edges_and_adjacency_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    shapes = [(0, 0), (3, 0), (0, 4), (1, 5), (2, 1)] + [
        (int(rng.integers(2, 15)), int(rng.integers(1, 25))) for _ in range(10)]
    for n_pages, n_users in shapes:
        b, pairs = random_bipartite(rng, n_pages, n_users)
        assert all(ps == sorted(set(ps)) for ps in b.user_pages)
        assert b.users == tuple(sorted({u for u, _p in pairs}))
        g = project(b)
        edges = list(g.edges())
        assert edges == sorted(edges)
        for v in range(g.n_nodes):
            assert list(g.adj[v]) == sorted(g.adj[v])
        users_of = [{u for u, p in pairs if p == page} for page in b.pages]
        expected = [(i, j, len(users_of[i] & users_of[j]))
                    for i, j in itertools.combinations(range(n_pages), 2)
                    if users_of[i] & users_of[j]]
        assert edges == expected
        assert g.strengths == [sum(nb.values()) for nb in g.adj]
        assert g.total_weight == sum(w for _i, _j, w in expected)


def test_projection_rows_ascend_whatever_the_edge_order():
    rng = random.Random(5)
    n = 14
    ordered = [(i, j, rng.randint(1, 9)) for i in range(n) for j in range(i + 1, n)
               if rng.random() < 0.5]
    shuffled = rng.sample(ordered, len(ordered))
    flipped = [(j, i, w) for i, j, w in shuffled]
    nodes = [f"p{rng.randrange(100):02d}_{i}" for i in range(n)]
    graphs = [ProjectionGraph(nodes, edges) for edges in (shuffled, flipped, ordered)]
    for g in graphs:
        assert [list(nb) for nb in g.adj] == [sorted(nb) for nb in graphs[2].adj]
        assert list(g.edges()) == ordered
        assert g.to_csv() == graphs[2].to_csv()
    # a pair given more than once, in either orientation, sums its weights
    g = ProjectionGraph(["a", "b", "c"], [(2, 0, 1), (1, 0, 2), (0, 1, 3)])
    assert [list(nb.items()) for nb in g.adj] == [[(1, 5), (2, 1)], [(0, 5)], [(0, 1)]]
    assert list(g.edges()) == [(0, 1, 5), (0, 2, 1)] and g.strengths == [6, 5, 1]


def test_projection_rejects_self_loops_and_zero_weights():
    with pytest.raises(ValueError):
        ProjectionGraph(["a"], [(0, 0, 1)])
    with pytest.raises(ValueError):
        ProjectionGraph(["a", "b"], [(0, 1, 0)])


def test_induced_identity():
    g = random_weighted_graph(12, 0.4, seed=2)
    sub = induced_subgraph(g, g.nodes)
    assert sub.nodes == g.nodes
    assert list(sub.edges()) == list(g.edges())


def test_induced_singleton():
    g = random_weighted_graph(6, 0.8, seed=3)
    sub = induced_subgraph(g, [g.nodes[0]])
    assert sub.nodes == (g.nodes[0],) and sub.n_edges == 0


def test_induced_triangle_to_edge():
    g = ProjectionGraph(["a", "b", "c"], [(0, 1, 3), (0, 2, 5), (1, 2, 7)])
    sub = induced_subgraph(g, ["a", "c"])
    assert sub.n_edges == 1 and sub.weight("a", "c") == 5


def test_induced_unknown_page_errors():
    g = ProjectionGraph(["a", "b"], [(0, 1, 1)])
    with pytest.raises(ValueError, match="zz"):
        induced_subgraph(g, ["a", "zz"])


def test_components_two_disjoint_edges():
    g = ProjectionGraph(["a", "b", "c", "d"], [(0, 1, 2), (2, 3, 1)])
    p = connected_components(g)
    assert p.n_communities == 2
    assert sorted(p.sizes()) == [2, 2]
    # tie on size: component containing the smallest page id comes first
    assert p.as_dict()["a"] == 0


def test_components_isolated_pages():
    g = ProjectionGraph([f"p{i}" for i in range(5)], [])
    p = connected_components(g)
    assert p.n_communities == 5 and p.sizes() == [1] * 5


def test_components_size_ordering():
    g = ProjectionGraph(["a", "b", "c", "d", "e"],
                        [(2, 3, 1), (3, 4, 1)])  # component {c,d,e} and {a},{b}
    p = connected_components(g)
    d = p.as_dict()
    assert d["c"] == d["d"] == d["e"] == 0
    assert d["a"] == 1 and d["b"] == 2


def test_components_match_closure_oracle():
    g = random_weighted_graph(200, 0.008, seed=5)
    p = connected_components(g)
    n = g.n_nodes
    reach = np.eye(n, dtype=bool)
    for i, j, _w in g.edges():
        reach[i, j] = reach[j, i] = True
    # boolean transitive closure by repeated squaring
    for _ in range(9):
        reach = reach | (reach @ reach)
    labels = p.labels
    for i in range(n):
        for j in range(i + 1, n):
            assert (labels[i] == labels[j]) == reach[i, j]


def test_components_invariant_under_weight_rescaling():
    g = random_weighted_graph(30, 0.08, seed=6)
    scaled = ProjectionGraph(g.nodes, [(i, j, w * 17) for i, j, w in g.edges()])
    assert connected_components(g) == connected_components(scaled)


def test_largest_component_size():
    g = ProjectionGraph(["a", "b", "c", "d", "e"], [(0, 1, 1), (1, 2, 1)])
    assert largest_component_size(g) == 3
    assert largest_component_size(ProjectionGraph([], [])) == 0


def test_projection_csv_round_trip():
    g = random_weighted_graph(10, 0.5, seed=7)
    text = g.to_csv()
    assert text.splitlines()[0] == "page_a,page_b,weight"
    rows = list(csv.reader(io.StringIO(text)))[1:]
    index = {n: i for i, n in enumerate(g.nodes)}
    g2 = ProjectionGraph(g.nodes, [(index[a], index[b], int(w)) for a, b, w in rows])
    assert g2.to_csv() == text


def test_partition_contiguity_enforced():
    with pytest.raises(ValueError):
        Partition(("a", "b"), (0, 2), 2)
    p = Partition.from_labels(("a", "b", "c"), ["x", "y", "x"])
    assert p.labels == (0, 1, 0) and p.n_communities == 2
    p = Partition.from_labels("abcde", np.array([7, 7, 3, 9, 3]))
    assert p.labels == (0, 0, 1, 2, 1) and p.n_communities == 3
    assert {type(x) for x in p.labels} == {int}
