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
    project,
)
from echonet.synth import SynthConfig, generate

from conftest import dataset, random_dataset, random_weighted_graph, rec


def test_multiplicity_collapsed():
    d = dataset(rec("u1", "p1", "like", "2014-01-01"),
                rec("u1", "p1", "like", "2014-02-01"))
    b = build_bipartite(d, "like")
    assert b.n_edges == 1
    assert b.user.tolist() == [0] and b.page.tolist() == [0]


def test_repeated_pairs_collapse():
    user, page = [2, 1, 2, 1, 1], [1, 2, 1, 0, 2]
    b = BipartiteGraph(["a", "b", "c"], user, page)
    assert b.user.tolist() == [1, 1, 2]
    assert b.page.tolist() == [0, 2, 1] and b.n_edges == 3


def test_pages_without_pairs_stay_nodes():
    b = BipartiteGraph(["a", "b", "c", "d"], np.array([1, 2]), np.array([1, 1]))
    assert b.pages == ("a", "b", "c", "d")
    assert b.page.tolist() == [1, 1]
    g = project(b)
    assert g.nodes == b.pages and g.n_edges == 0


def test_users_sorted_and_only_those_with_pairs():
    b = BipartiteGraph(["p", "q"], [10, 2, 1, 2], [0, 0, 1, 1])
    assert b.user.tolist() == [1, 2, 2, 10]
    assert b.page.tolist() == [1, 0, 1, 0]
    assert BipartiteGraph(["p", "q"], [], []).n_edges == 0


def test_bipartite_graph_is_read_only():
    b = BipartiteGraph(["p", "q"], [0, 1], [1, 0])
    for column in (b.user, b.page):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1


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
    assert b.n_edges == 0 and len(b.user) == 0


def test_bipartite_edges_match_brute_force():
    d = random_dataset(50, seed=17)
    for kind in ("like", "comment"):
        b = build_bipartite(d, kind)
        expected = {(r.user, r.page) for r in d.records if r.action == kind}
        got = {(d.user_table[u], b.pages[p]) for u, p in zip(b.user, b.page)}
        assert got == expected and b.n_edges == len(expected)
        assert b.pages == tuple(sorted(d.pages))


def test_project_minimal_overlap():
    d = dataset(rec("u1", "p1"), rec("u1", "p2"))
    g = project(build_bipartite(d, "like"))
    assert list(g.edges()) == [(0, 1, 1)] and g.nodes == ("p1", "p2")


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
    weight = {(g.nodes[i], g.nodes[j]): w for i, j, w in g.edges()}
    for a, bb in itertools.combinations(pages, 2):
        assert weight.get((a, bb), 0) == len(liked[a] & liked[bb])
    # weight bound and strength cache
    for i, j, w in g.edges():
        assert w <= min(len(liked[g.nodes[i]]), len(liked[g.nodes[j]]))
    assert g.strengths.tolist() == [sum(ws) for _nb, ws in g.rows()]


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
    given twice; returns the graph and its distinct (user, page) code pairs."""
    pages = [f"p{i:02d}" for i in range(n_pages)]
    pairs = []
    for u in range(n_users):
        k = min(n_pages, int(rng.choice([0, 1, int(rng.integers(0, n_pages + 1))])))
        pairs += [(u, int(p)) for p in rng.choice(n_pages, size=k, replace=False)]
    repeats = [pairs[i] for i in rng.integers(0, len(pairs), len(pairs) // 3)] if pairs else []
    given = pairs + repeats
    rng.shuffle(given)
    return BipartiteGraph(pages, [u for u, _p in given], [p for _u, p in given]), set(pairs)


@pytest.mark.parametrize("seed", range(8))
def test_project_sorted_edges_and_adjacency_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    shapes = [(0, 0), (3, 0), (0, 4), (1, 5), (2, 1)] + [
        (int(rng.integers(2, 15)), int(rng.integers(1, 25))) for _ in range(10)]
    for n_pages, n_users in shapes:
        b, pairs = random_bipartite(rng, n_pages, n_users)
        assert list(zip(b.user.tolist(), b.page.tolist())) == sorted(pairs)
        g = project(b)
        edges = list(g.edges())
        assert edges == sorted(edges)
        users_of = [{u for u, p in pairs if p == page} for page in range(n_pages)]
        expected = [(i, j, len(users_of[i] & users_of[j]))
                    for i, j in itertools.combinations(range(n_pages), 2)
                    if users_of[i] & users_of[j]]
        assert edges == expected
        # each row ascends and holds every edge of its node
        rows = [sorted((i + j - v, w) for i, j, w in expected if v in (i, j))
                for v in range(n_pages)]
        assert g.rows() == [([u for u, _w in r], [w for _u, w in r]) for r in rows]
        assert g.strengths.tolist() == [sum(w for _u, w in r) for r in rows]
        assert g.total_weight == sum(w for _i, _j, w in expected)


def test_project_adds_user_blocks_exactly():
    """1,000 pages put 262 users in a block, so 700 users make three blocks.
    Each user takes 12 pages near 1/5 of its code, so a block touches a
    window of pages that overlaps the next block's."""
    rng = np.random.default_rng(3)
    n_pages, n_users = 1000, 700
    user = np.repeat(np.arange(n_users), 12)
    page = (user // 5 + rng.integers(0, 150, len(user))) % n_pages
    g = project(BipartiteGraph([f"p{i:04d}" for i in range(n_pages)], 3 * user, page))
    incidence = np.zeros((n_users, n_pages))
    incidence[user, page] = 1
    common = (incidence.T @ incidence).astype(np.int64)  # exact: sums of 0/1 below 2**53
    i, j = np.nonzero(np.triu(common, 1))
    assert list(g.edges()) == list(zip(i.tolist(), j.tolist(), common[i, j].tolist()))
    assert g.n_edges > 20_000


def test_projection_rows_ascend_whatever_the_edge_order():
    rng = random.Random(5)
    n = 14
    ordered = [(i, j, rng.randint(1, 9)) for i in range(n) for j in range(i + 1, n)
               if rng.random() < 0.5]
    shuffled = rng.sample(ordered, len(ordered))
    flipped = [(j, i, w) for i, j, w in shuffled]
    nodes = [f"p{rng.randrange(100):02d}_{i}" for i in range(n)]
    graphs = [ProjectionGraph(nodes, edges) for edges in (shuffled, flipped, ordered)]
    graphs.append(ProjectionGraph(nodes, np.array(flipped)))  # a k×3 array reads the same
    for g in graphs:
        assert g.rows() == graphs[2].rows()
        assert list(g.edges()) == ordered
        assert g.to_csv() == graphs[2].to_csv()
    # a pair given more than once, in either orientation, sums its weights
    g = ProjectionGraph(["a", "b", "c"], [(2, 0, 1), (1, 0, 2), (0, 1, 3)])
    assert g.rows() == [([1, 2], [5, 1]), ([0], [5]), ([0], [1])]
    assert list(g.edges()) == [(0, 1, 5), (0, 2, 1)] and g.strengths.tolist() == [6, 5, 1]
    assert (g.src.tolist(), g.dst.tolist()) == ([0, 0, 1, 2], [1, 2, 0, 0])


def test_projection_rejects_self_loops_and_zero_weights():
    with pytest.raises(ValueError):
        ProjectionGraph(["a"], [(0, 0, 1)])
    with pytest.raises(ValueError):
        ProjectionGraph(["a", "b"], [(0, 1, 0)])


def test_components_two_disjoint_edges():
    g = ProjectionGraph(["a", "b", "c", "d"], [(0, 1, 2), (2, 3, 1)])
    p = connected_components(g)
    assert p.n_communities == 2
    assert sorted(p.sizes()) == [2, 2]
    # tie on size: component containing the smallest page id comes first
    assert p.as_dict()["a"] == 0


def test_components_rank_a_size_tie_by_smallest_page_not_node_order():
    g = ProjectionGraph(["d", "c", "b", "a"], [(0, 1, 1), (2, 3, 1)])
    assert connected_components(g).as_dict() == {"d": 1, "c": 1, "b": 0, "a": 0}


def test_components_of_an_empty_graph():
    assert connected_components(ProjectionGraph([], [])) == Partition((), (), 0)


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
