"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import itertools
import time

import numpy as np
from scipy.integrate import quad
from scipy.stats import binom

from echonet.cli import main, run_validation_matrix
from echonet.community import fastgreedy, label_propagation, louvain, modularity, walktrap
from echonet.compare import kappa_from_confusion, rand_index
from echonet.graphs import BipartiteGraph, Partition, ProjectionGraph, project
from echonet.metrics import community_page_stats, loess_fit, pages_per_window, polarization_histogram, user_polarization
from echonet.temporal import cohesion_series, f_tail, manova_pillai, two_way_anova

from conftest import dataset, rec, two_block_graph
from test_community import connected_atlas_graphs, modularity_dense_oracle
from test_compare import rand_index_pair_oracle
from test_temporal import balanced_fixture, f_density


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_projection_oracle():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    checked = 0
    for _ in range(100):
        n_users = int(rng.integers(1, 21))
        n_pages = int(rng.integers(2, 11))
        pages = [f"p{i}" for i in range(n_pages)]
        edges = [(u, p) for u in range(n_users) for p in range(n_pages)
                 if rng.random() < 0.3]
        b = BipartiteGraph(pages, [u for u, _p in edges], [p for _u, p in edges])
        g = project(b)
        liked = {p: {u for u, pp in edges if pp == p} for p in range(n_pages)}
        weight = {(i, j): w for i, j, w in g.edges()}
        for a, c in itertools.combinations(range(n_pages), 2):
            expected = len(liked[a] & liked[c])
            got = weight.get((a, c), 0)
            assert got == expected
            checked += 1
    elapsed = time.monotonic() - t0
    report(1, elapsed < 1.0,
           f"{checked} pair weights exact on 100 random bipartite graphs "
           f"in {elapsed:.2f}s (< 1s)")


def test_criterion_02_modularity_oracle():
    graphs = connected_atlas_graphs(6)
    assert len(graphs) == 142  # connected graphs on 2..6 nodes with >= 1 edge
    rng = np.random.default_rng(202)
    for seed in range(100):
        while True:
            edges = [(i, j, int(rng.integers(1, 10)))
                     for i in range(8) for j in range(i + 1, 8)
                     if rng.random() < 0.45]
            g = ProjectionGraph([f"n{i}" for i in range(8)], edges)
            from echonet.graphs import connected_components
            if edges and connected_components(g).n_communities == 1:
                break
        graphs.append(g)
    worst = 0.0
    for g in graphs:
        part_fg, dendro_fg = fastgreedy(g)
        part_wt, dendro_wt = walktrap(g)
        part_lv = louvain(g, 3)
        part_lp = label_propagation(g, 3)
        for part in (part_fg, part_wt, part_lv, part_lp):
            q = modularity(g, part)
            worst = max(worst, abs(q - modularity_dense_oracle(g, part)))
        assert dendro_fg.best_score == modularity(g, part_fg)
        assert dendro_wt.best_score == modularity(g, part_wt)
    report(2, worst < 1e-12,
           f"modularity matches the direct formula on {len(graphs)} graphs "
           f"(worst |diff| = {worst:.2e} < 1e-12) and reported scores re-evaluate")


def test_criterion_03_planted_recovery():
    t0 = time.monotonic()
    scores = {"fastgreedy": [], "louvain": [], "walktrap": [], "labelprop": []}
    for seed in range(20):
        g, truth = two_block_graph(40, 0.9, 0.05, seed=1000 + seed)
        scores["fastgreedy"].append(rand_index(fastgreedy(g)[0], truth))
        scores["louvain"].append(rand_index(louvain(g, seed), truth))
        scores["walktrap"].append(rand_index(walktrap(g)[0], truth))
        scores["labelprop"].append(rand_index(label_propagation(g, seed), truth))
    elapsed = time.monotonic() - t0
    means = {k: float(np.mean(v)) for k, v in scores.items()}
    lp_median = float(np.median(scores["labelprop"]))
    ok = (means["fastgreedy"] >= 0.95 and means["louvain"] >= 0.95
          and means["walktrap"] >= 0.95 and lp_median >= 0.90 and elapsed < 10.0)
    report(3, ok,
           f"planted recovery over 20 seeds: fg={means['fastgreedy']:.3f} "
           f"lv={means['louvain']:.3f} wt={means['walktrap']:.3f} (all >= 0.95), "
           f"lp median={lp_median:.3f} (>= 0.90), {elapsed:.1f}s (< 10s)")


def test_criterion_04_table1_shape(acceptance_corpus):
    d, _truth, labels = acceptance_corpus
    t0 = time.monotonic()
    matrix = run_validation_matrix(d, labels, seed=7, draws=100)
    elapsed = time.monotonic() - t0
    labeled_min = min(v for kind in matrix.values() for v in kind["labeled"].values())
    random_vals = [v for kind in matrix.values() for v in kind["random"].values()]
    fg_self = [matrix[k]["fastgreedy"]["fastgreedy"] for k in matrix]
    ok = (set(matrix) == {"likes", "comments"}
          and labeled_min >= 0.95
          and all(abs(v - 0.50) <= 0.02 for v in random_vals)
          and all(v == 1.0 for v in fg_self)
          and elapsed < 60.0)
    report(4, ok,
           f"validation matrix: labeled row min={labeled_min:.3f} (>= 0.95), "
           f"random row in [{min(random_vals):.3f}, {max(random_vals):.3f}] "
           f"(0.50 +- 0.02), self cell exactly 1, {elapsed:.1f}s (< 60s)")


def test_criterion_05_bimodality(acceptance_corpus):
    d, _truth, labels = acceptance_corpus
    profiles = user_polarization(d, labels, action="like", min_actions=10)

    # exact binomial oracle for P(|rho| >= 0.9) under the corpus parameters:
    # likes L ~ Bin(60, 0.8), cross-side likes ~ Bin(L, 0.02), qualify L >= 10
    total = acc = 0.0
    for L in range(10, 61):
        pL = binom.pmf(L, 60, 0.8)
        acc += pL * binom.cdf(int(np.floor(0.05 * L)), L, 0.02)
        total += pL
    oracle = acc / total
    assert oracle > 0.85  # the threshold was fixed against this value (0.9277)

    frac = float(np.mean([abs(p.rho) >= 0.9 for p in profiles]))
    sigma = float(np.sqrt(oracle * (1 - oracle) / len(profiles)))
    hist = polarization_histogram(profiles, bins=21)
    width = 2.0 / 21
    outer_mass = (hist.densities[0] + hist.densities[-1]) * width
    inner_max = max(hist.densities[1:-1]) * width if len(hist.densities) > 2 else 0.0
    ok = (frac > 0.85
          and abs(frac - oracle) < 5 * sigma
          and outer_mass > 0.85
          and outer_mass / width / 2 > inner_max / width)
    report(5, ok,
           f"{len(profiles)} qualifying users, |rho| >= 0.9 fraction {frac:.4f} "
           f"(> 0.85; exact oracle {oracle:.4f}); outer bins carry "
           f"{outer_mass:.3f} of the mass")


def test_criterion_06_rand_kappa_closed_forms():
    p = Partition.from_mapping({"a": 0, "b": 0, "c": 1, "d": 1})
    q = Partition.from_mapping({"a": 0, "b": 1, "c": 0, "d": 1})
    exact_third = rand_index(p, q) == 2 / 6
    exact_kappa = kappa_from_confusion([[45, 5], [5, 45]]) == 0.8

    rng = np.random.default_rng(606)
    oracle_exact = True
    for _ in range(200):
        n = int(rng.integers(2, 13))
        nodes = [f"n{i}" for i in range(n)]
        pa = Partition.from_labels(nodes, rng.integers(0, n, n).tolist())
        qa = Partition.from_labels(nodes, rng.integers(0, n, n).tolist())
        if rand_index(pa, qa) != rand_index_pair_oracle(pa, qa):
            oracle_exact = False
            break
    ok = exact_third and exact_kappa and oracle_exact
    report(6, ok, "rand({{a,b},{c,d}}, {{a,c},{b,d}}) = 1/3 exactly, "
                  "kappa([[45,5],[5,45]]) = 0.8 exactly, contingency Rand equals "
                  "pair enumeration on 200 random pairs")


def test_criterion_07_anova_f_machinery():
    inter = two_way_anova(balanced_fixture()).interaction
    closed_form_ok = abs(inter.F - 75.0) < 1e-9

    median_ok = all(abs(f_tail(1.0, d, d) - 0.5) < 1e-9 for d in (1, 2, 7, 56))

    quad_ok = True
    for F, d1, d2 in ((5.053, 1, 56), (12.218, 2, 55)):
        oracle, _ = quad(f_density, F, np.inf, args=(d1, d2),
                         epsabs=1e-12, epsrel=1e-12, limit=200)
        quad_ok &= abs(f_tail(F, d1, d2) - oracle) < 1e-7

    uni = two_way_anova(balanced_fixture()).interaction
    red = manova_pillai([(a, b, (v,)) for a, b, v in balanced_fixture()])
    pillai_ok = (abs(red.F - uni.F) < 1e-9 and red.df1 == uni.df1
                 and red.df2 == uni.df2)
    ok = closed_form_ok and median_ok and quad_ok and pillai_ok
    report(7, ok, f"interaction F = {inter.F:.9f} (closed form 75), "
                  "f_tail(1,d,d) = 0.5, quadrature agreement at (5.053;1,56) and "
                  "(12.218;2,55) to 1e-7, one-DV Pillai reduces to univariate F")


def test_criterion_08_cohesion_contrast():
    from datetime import date

    from echonet.synth import SynthConfig, generate

    t0 = time.monotonic()
    cfg = SynthConfig(users_per_side=(600, 600), pages_per_side=(15, 15),
                      p_out=0.0, actions_per_user=("fixed", 60),
                      comment_fraction=0.25, posts_per_page=8,
                      time_range=(date(2013, 1, 1), date(2014, 12, 31)),
                      seed=11, sub_blocks=((6, 5, 4), (15,)))
    d, _truth, labels = generate(cfg)
    points = cohesion_series(d, labels, action="like", seed=11)
    anti_ratios = [p.largest / p.total for p in points if p.community == "anti"]
    pro_ratios = [p.largest / p.total for p in points if p.community == "pro"]
    elapsed = time.monotonic() - t0
    assert len(anti_ratios) == len(pro_ratios) == 8 * 4  # quarters x algorithms
    ok = (min(anti_ratios) >= 0.95 and max(pro_ratios) <= 0.6 and elapsed < 60.0)
    report(8, ok,
           f"per-quarter cohesion, every algorithm: anti largest/total >= "
           f"{min(anti_ratios):.3f} (>= 0.95), pro <= {max(pro_ratios):.3f} "
           f"(<= 0.6), {elapsed:.1f}s (< 60s)")


def test_criterion_09_exposure_machinery():
    x = np.linspace(0, 1, 50)
    fit_c, lo_c, hi_c = loess_fit(x, np.full(50, 2.5))
    const_ok = (np.max(np.abs(fit_c - 2.5)) < 1e-9
                and np.max(hi_c - lo_c) < 1e-9)
    grid = np.linspace(0.1, 0.9, 9)
    fit_l, _, _ = loess_fit(x, 2 * x + 1, eval_points=grid)
    line_ok = np.max(np.abs(fit_l - (2 * grid + 1))) < 1e-9

    rng = np.random.default_rng(909)
    records = []
    for u in range(25):
        for _ in range(int(rng.integers(1, 40))):
            ts = (f"201{rng.integers(2, 6)}-{rng.integers(1, 13):02d}-"
                  f"{rng.integers(1, 29):02d}")
            records.append(rec(f"u{u}", f"p{rng.integers(0, 12):02d}", "like", ts))
    d = dataset(*records)
    week, month, year = (pages_per_window(d, w) for w in ("week", "month", "year"))
    mono_ok = all(week[f"u{u}"] <= month[f"u{u}"] <= year[f"u{u}"] for u in range(25))

    d3 = dataset(
        rec("u1", "p1"),
        rec("u2", "p1"), rec("u2", "p2"),
        rec("u3", "p1"), rec("u3", "p2"), rec("u3", "p3"),
    )
    mean, sd = community_page_stats(d3, {p: "c1" for p in ("p1", "p2", "p3")})["c1"]
    stats_ok = abs(mean - 2.0) < 1e-12 and abs(sd - 1.0) < 1e-12
    ok = const_ok and line_ok and mono_ok and stats_ok
    report(9, ok, "loess reproduces constants and exact lines to 1e-9, "
                  "pages-per-window is monotone week <= month <= year for all "
                  "users, page stats (1,2,3) -> mean 2, SD 1")


def test_criterion_10_end_to_end_determinism(tmp_path):
    out = tmp_path / "pipeline"
    steps = [
        ["synth", "--seed", "7", "--users", "5000,5000", "--pages", "145,98",
         "--p-out", "0.02", "--actions", "fixed:60", "--out", "data.jsonl",
         "--truth", "labels.csv"],
        ["ingest", "--seed", "7", "--in", "data.jsonl", "--out", "filtered.jsonl"],
        ["validate", "--seed", "7", "--in", "filtered.jsonl", "--labels",
         "labels.csv", "--draws", "100", "--out", "table1.csv"],
        ["polarize", "--seed", "7", "--in", "filtered.jsonl", "--labels",
         "labels.csv", "--out", "pdf.csv", "--profiles", "profiles.csv"],
        ["timeline", "--seed", "7", "--in", "filtered.jsonl", "--labels",
         "labels.csv", "--out", "series.csv"],
        ["cohesion", "--seed", "7", "--in", "filtered.jsonl", "--labels",
         "labels.csv", "--action", "like", "--algorithms", "all",
         "--out", "cohesion.csv"],
    ]

    def run_pipeline() -> float:
        t0 = time.monotonic()
        for step in steps:
            rc = main(step + ["--out-dir", str(out)])
            assert rc == 0, f"step failed: {step[0]}"
        return time.monotonic() - t0

    t_first = run_pipeline()
    snapshot = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(snapshot) >= 12  # 6 data/labels files + 6 manifests
    t_second = run_pipeline()
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    identical = snapshot == second
    ok = identical and t_first < 120.0 and t_second < 120.0
    report(10, ok,
           f"pipeline on 10,000 users / 243 pages: runs {t_first:.0f}s and "
           f"{t_second:.0f}s (< 120s), {len(snapshot)} output files "
           f"byte-identical across runs")
