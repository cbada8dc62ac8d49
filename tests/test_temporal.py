import math
from datetime import datetime, timezone

import numpy as np
import pytest
from scipy.integrate import quad

from echonet import temporal
from echonet.compare import DegenerateDataWarning
from echonet.graphs import project
from echonet.temporal import (
    activity_series,
    cohesion_series,
    f_tail,
    manova_pillai,
    two_way_anova,
)

from conftest import dataset, random_dataset, rec


# ------------------------------------------------------------ activity series


def test_single_post_marks_page_active():
    d = dataset(rec("page", "p1", "post", "2014-02-10"))
    series = activity_series(d, {"p1": "pro"})
    by_key = {(s.quarter, s.community, s.measure): s.count for s in series}
    assert by_key[((2014, 1), "pro", "active_pages_post")] == 1
    for measure in ("active_pages_like", "active_pages_comment",
                    "active_users_like", "active_users_comment"):
        assert by_key[((2014, 1), "pro", measure)] == 0


def test_user_counted_once_per_quarter():
    d = dataset(rec("u1", "a1", "like", "2014-02-01"),
                rec("u1", "a2", "like", "2014-02-15"),
                rec("u1", "a3", "like", "2014-03-20"))
    labels = {"a1": "anti", "a2": "anti", "a3": "anti"}
    series = activity_series(d, labels)
    by_key = {(s.quarter, s.community, s.measure): s.count for s in series}
    assert by_key[((2014, 1), "anti", "active_users_like")] == 1
    assert by_key[((2014, 1), "anti", "active_pages_like")] == 3


def test_series_covers_full_quarter_range_with_zeros():
    d = dataset(rec("u1", "p1", "like", "2013-01-15"),
                rec("u1", "p1", "like", "2013-12-15"))
    series = activity_series(d, {"p1": "pro"})
    quarters = {s.quarter for s in series}
    assert quarters == {(2013, q) for q in (1, 2, 3, 4)}
    by_key = {(s.quarter, s.measure): s.count for s in series}
    assert by_key[((2013, 2), "active_pages_like")] == 0


def quarter_of(ts):
    t = datetime.fromtimestamp(ts, tz=timezone.utc)
    return (t.year, (t.month - 1) // 3 + 1)


def test_series_quarters_oracle():
    """The quarters from the first record to the last, on any page, against the
    quarters of the months between them: across year ends, a single quarter,
    before 1970."""
    months = [(y, m) for y in range(1966, 1973) for m in range(1, 13)]
    for first in range(0, len(months), 5):
        for last in range(first, len(months), 7):
            d = dataset(rec("u1", "p1", "like", "%04d-%02d-28" % months[first]),
                        rec("u2", "p2", "like", "%04d-%02d-01" % months[last]))
            quarters = dict.fromkeys((y, (m - 1) // 3 + 1) for y, m in months[first:last + 1])
            assert [s.quarter for s in activity_series(d, {"p1": "pro"})[::5]] == list(quarters)
    assert activity_series(dataset(), {"p1": "pro"}) == []


def test_series_matches_brute_force_group_by():
    for ts_range in (("2012-01-01T00:00:00Z", "2016-12-31T23:59:59Z"),
                     ("1968-01-01T00:00:00Z", "1971-12-31T23:59:59Z")):  # bins below 0
        d = random_dataset(200, seed=23, ts_range=ts_range)
        labels = {p: ("pro" if p < "p04" else "anti") for p in d.pages}
        series = activity_series(d, labels)
        got = {(s.quarter, s.community, s.measure): s.count for s in series}
        for (q, side, measure), count in got.items():
            entity, action = measure.split("_")[1], measure.split("_")[2]
            relevant = [r for r in d.records
                        if quarter_of(r.ts) == q and labels.get(r.page) == side
                        and r.action == action]
            if entity == "pages":
                assert count == len({r.page for r in relevant})
            else:
                assert count == len({r.user for r in relevant})


# ------------------------------------------------------------------- cohesion


def test_cohesion_clique_quarter():
    records = [rec("u1", f"p{i}", "like", "2014-02-01") for i in range(5)]
    d = dataset(*records)
    labels = {f"p{i}": "pro" for i in range(5)}
    points = cohesion_series(d, labels)
    assert points
    for pt in points:
        assert pt.largest == pt.total == 5


def test_cohesion_user_disjoint_groups():
    records = [rec("u1", p, "like", "2014-02-01") for p in ("a", "b", "c")]
    records += [rec("u2", p, "like", "2014-02-01") for p in ("d", "e")]
    d = dataset(*records)
    labels = {p: "pro" for p in "abcde"}
    for pt in cohesion_series(d, labels):
        assert pt.total == 5 and pt.largest == 3


def test_cohesion_degenerate_quarter_flagged():
    d = dataset(rec("u1", "p1", "like", "2014-02-01"))
    points = cohesion_series(d, {"p1": "pro"}, algorithms=("fastgreedy",))
    assert points == [type(points[0])((2014, 1), "pro", "fastgreedy", 1, 1,
                                      ("degenerate",))]


def test_cohesion_no_shared_users_gives_singletons():
    d = dataset(rec("u1", "p1", "like", "2014-02-01"),
                rec("u2", "p2", "like", "2014-02-01"))
    for pt in cohesion_series(d, {"p1": "pro", "p2": "pro"}):
        assert pt.largest == 1 and pt.total == 2


def test_cumulative_cohesion_collapses_repeated_pairs(monkeypatch):
    # u1 likes a and b in both quarters and u2 likes b and c in the second, so
    # the cumulative second quarter hands the graph (u1, a) and (u1, b) twice
    records = [rec("u1", p, "like", day) for p in "ab" for day in ("2014-02-01", "2014-05-01")]
    records += [rec("u2", p, "like", "2014-05-01") for p in "bc"]
    graphs = []
    bipartite = temporal.BipartiteGraph

    def spy(pages, user, page):
        graphs.append((len(user), bipartite(pages, user, page)))
        return graphs[-1][1]

    monkeypatch.setattr(temporal, "BipartiteGraph", spy)
    points = cohesion_series(dataset(*records), {p: "pro" for p in "abc"},
                             algorithms=("fastgreedy",), cumulative=True)
    assert [(given, b.n_edges) for given, b in graphs] == [(2, 2), (6, 4)]
    assert list(project(graphs[1][1]).edges()) == [(0, 1, 1), (1, 2, 1)]
    assert [(pt.quarter, pt.total) for pt in points] == [((2014, 1), 2), ((2014, 2), 3)]


def test_cohesion_largest_never_exceeds_total():
    d = random_dataset(400, seed=31)
    labels = {p: ("pro" if p < "p04" else "anti") for p in d.pages}
    for pt in cohesion_series(d, labels):
        assert 0 <= pt.largest <= pt.total


def test_cohesion_planted_block_contrast():
    from echonet.synth import SynthConfig, generate
    from datetime import date

    cfg = SynthConfig(users_per_side=(300, 300), pages_per_side=(15, 15),
                      p_out=0.0, actions_per_user=("fixed", 40),
                      comment_fraction=0.25, posts_per_page=4,
                      time_range=(date(2014, 1, 1), date(2014, 12, 31)),
                      seed=11, sub_blocks=((6, 5, 4), (15,)))
    d, _truth, labels = generate(cfg)
    points = cohesion_series(d, labels, seed=5)
    for pt in points:
        if pt.community == "anti":
            assert pt.largest == pt.total  # one tightly knit block
        else:
            assert pt.total == 15 and pt.largest == 6  # biggest of (6, 5, 4)


def test_cohesion_unknown_algorithm():
    with pytest.raises(ValueError):
        cohesion_series(dataset(), {}, algorithms=("spectral",))


def test_cohesion_refuses_a_repeated_algorithm():
    with pytest.raises(ValueError, match="^algorithm 'fastgreedy' named twice$"):
        cohesion_series(dataset(), {}, algorithms=("fastgreedy", "walktrap", "fastgreedy"))


# ---------------------------------------------------------------------- anova


def balanced_fixture():
    obs = []
    for (a, b), mean in zip([("pro", "after"), ("pro", "before"),
                             ("anti", "after"), ("anti", "before")],
                            [10.0, 10.0, 10.0, 20.0]):
        for resid in (-1.0, 0.0, 1.0):
            obs.append((a, b, mean + resid))
    return obs


def test_anova_interaction_closed_form():
    table = two_way_anova(balanced_fixture())
    # SS_AB = n * contrast^2 / 4 = 3 * 100 / 4 = 75, MSE = 8 / 8 = 1
    inter = table.interaction
    assert inter.F == pytest.approx(75.0, abs=1e-9)
    assert inter.df1 == 1 and inter.df2 == 8
    assert inter.ss == pytest.approx(75.0, abs=1e-9)
    assert inter.partial_eta2 == pytest.approx(75 / 83, abs=1e-9)
    assert table.factor_a.F == pytest.approx(75.0, abs=1e-9)
    assert table.factor_b.F == pytest.approx(75.0, abs=1e-9)


def test_anova_balanced_decomposition():
    rng = np.random.default_rng(17)
    obs = [(a, b, float(rng.normal(5, 2)))
           for a in ("pro", "anti") for b in ("before", "after")
           for _ in range(6)]
    table = two_way_anova(obs)
    values = np.array([v for _a, _b, v in obs])
    ss_total = float(np.sum((values - values.mean()) ** 2))
    parts = (table.factor_a.ss + table.factor_b.ss + table.interaction.ss
             + table.ss_error)
    assert parts == pytest.approx(ss_total, rel=1e-9)


def test_anova_constant_data_degenerate():
    obs = [(a, b, 7.0) for a in ("pro", "anti") for b in ("x", "y") for _ in range(3)]
    with pytest.warns(DegenerateDataWarning):
        table = two_way_anova(obs)
    assert table.interaction.F == 0.0 and table.interaction.p == 1.0
    assert "degenerate" in table.interaction.flags


def test_anova_zero_error_is_decided_from_the_data():
    # unbalanced, every cell constant: the sides differ, the epochs do not, and
    # lstsq leaves residue that once read as an interaction with p = 2.5e-9
    counts = {("pro", "before"): 8, ("pro", "after"): 3, ("anti", "before"): 5,
              ("anti", "after"): 9}
    obs = [(a, b, {"pro": 145.0, "anti": 98.0}[a]) for (a, b), n in counts.items()
           for _ in range(n)]
    table = two_way_anova(obs)
    rows = (table.factor_a, table.factor_b, table.interaction)
    assert [(r.F, r.p) for r in rows] == [(math.inf, 0.0), (0.0, 1.0), (0.0, 1.0)]
    assert all(r.flags == ("zero_error",) for r in rows) and table.ss_error == 0.0


def test_anova_empty_cell_identified():
    obs = [("pro", "before", 1.0), ("pro", "after", 2.0), ("anti", "before", 3.0),
           ("pro", "before", 1.5), ("pro", "after", 2.5), ("anti", "before", 3.5)]
    with pytest.raises(ValueError, match="anti.*after"):
        two_way_anova(obs)


def test_anova_df_structure_matches_thirty_quarter_design():
    rng = np.random.default_rng(3)
    obs = []
    for side in ("pro", "anti"):
        for qi in range(30):
            epoch = "before" if qi < 20 else "after"
            obs.append((side, epoch, float(rng.poisson(30 + qi))))
    table = two_way_anova(obs)
    assert table.interaction.df1 == 1
    assert table.interaction.df2 == 56


def test_anova_unbalanced_type_ii_is_order_free():
    rng = np.random.default_rng(8)
    obs = []
    for side, epoch, n in [("pro", "before", 4), ("pro", "after", 9),
                           ("anti", "before", 7), ("anti", "after", 5)]:
        for _ in range(n):
            obs.append((side, epoch, float(rng.normal(10, 3))))
    t1 = two_way_anova(obs)
    t2 = two_way_anova(list(reversed(obs)))
    assert t1.interaction.F == pytest.approx(t2.interaction.F, rel=1e-12)
    assert t1.factor_a.ss == pytest.approx(t2.factor_a.ss, rel=1e-12)


# --------------------------------------------------------------------- manova


def pillai_oracle(obs):
    """Independent dummy-coded eigenvalue route to Pillai's trace F."""
    a_levels = sorted({o[0] for o in obs})
    b_levels = sorted({o[1] for o in obs})
    Y = np.array([o[2] for o in obs], dtype=float)
    n = len(Y)
    d_a = np.array([[1.0 if o[0] == a_levels[0] else 0.0] for o in obs])
    d_b = np.array([[1.0 if o[1] == b_levels[0] else 0.0] for o in obs])
    one = np.ones((n, 1))
    X_full = np.hstack([one, d_a, d_b, d_a * d_b])
    X_red = np.hstack([one, d_a, d_b])

    def resid_sscp(X):
        hat = X @ np.linalg.pinv(X.T @ X) @ X.T
        r = Y - hat @ Y
        return r.T @ r

    E = resid_sscp(X_full)
    H = resid_sscp(X_red) - E
    lam = np.linalg.eigvals(np.linalg.inv(E) @ H).real
    V = float(np.sum(lam / (1 + lam)))
    p = Y.shape[1]
    df1, df2 = p, (n - 4) - p + 1
    F = (V / (1 - V)) * (df2 / df1)
    return V, F, df1, df2


def manova_fixture(seed=4, n_per_cell=8):
    rng = np.random.default_rng(seed)
    obs = []
    for a in ("pro", "anti"):
        for b in ("before", "after"):
            base = rng.normal(20, 4)
            for _ in range(n_per_cell):
                obs.append((a, b, (base + float(rng.normal(0, 2)),
                                   float(rng.normal(0, 1)))))
    return obs


def test_manova_constant_dvs_degenerate():
    obs = [(a, b, (3.0, 3.0)) for a in ("pro", "anti")
           for b in ("x", "y") for _ in range(3)]
    with pytest.warns(DegenerateDataWarning):
        res = manova_pillai(obs)
    assert res.F == 0.0 and res.partial_eta2 == 0.0


def test_manova_matches_eigenvalue_oracle():
    obs = manova_fixture()
    res = manova_pillai(obs)
    V, F, df1, df2 = pillai_oracle(obs)
    assert res.partial_eta2 == pytest.approx(V, abs=1e-9)
    assert res.F == pytest.approx(F, abs=1e-9)
    assert (res.df1, res.df2) == (df1, df2)


def test_manova_df_shape_matches_thirty_quarter_design():
    rng = np.random.default_rng(6)
    obs = []
    for side in ("pro", "anti"):
        for qi in range(30):
            epoch = "before" if qi < 24 else "after"
            obs.append((side, epoch, (float(rng.poisson(40)), float(rng.poisson(60)))))
    res = manova_pillai(obs)
    assert (res.df1, res.df2) == (2, 55)


def test_manova_single_dv_reduces_to_univariate_f():
    obs = balanced_fixture()
    uni = two_way_anova(obs).interaction
    multi = manova_pillai([(a, b, (v,)) for a, b, v in obs])
    assert multi.F == pytest.approx(uni.F, abs=1e-9)
    assert (multi.df1, multi.df2) == (uni.df1, uni.df2)
    assert multi.p == pytest.approx(uni.p, abs=1e-12)


def test_anova_and_manova_refuse_no_observations():
    for test in (two_way_anova, manova_pillai):
        with pytest.raises(ValueError, match="^no observations$"):
            test([])


def test_manova_names_a_dv_constant_within_every_cell():
    obs = [(a, b, ({"pro": 145.0, "anti": 98.0}[a], v)) for a, b, v in balanced_fixture()]
    with pytest.raises(ValueError, match="^dependent variable 1 of 2 is constant "
                                         "within every design cell$"):
        manova_pillai(obs)


def test_manova_collinear_dvs_rejected():
    obs = [(a, b, (v, 2.0 * v)) for a, b, v in balanced_fixture()]
    with pytest.raises(ValueError, match="collinear"):
        manova_pillai(obs)


# --------------------------------------------------------------------- f_tail


def f_density(t, d1, d2):
    c = (math.lgamma((d1 + d2) / 2) - math.lgamma(d1 / 2) - math.lgamma(d2 / 2)
         + (d1 / 2) * math.log(d1 / d2))
    return math.exp(c + (d1 / 2 - 1) * math.log(t) - ((d1 + d2) / 2)
                    * math.log1p(d1 * t / d2))


def test_f_tail_at_zero_is_one():
    assert f_tail(0.0, 3, 17) == 1.0


@pytest.mark.parametrize("d", [1, 2, 5, 56])
def test_f_tail_equal_df_median(d):
    assert f_tail(1.0, d, d) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("F,d1,d2", [(5.053, 1, 56), (12.218, 2, 55), (2.708, 2, 55)])
def test_f_tail_matches_quadrature_oracle(F, d1, d2):
    oracle, err = quad(f_density, F, np.inf, args=(d1, d2),
                       epsabs=1e-12, epsrel=1e-12, limit=200)
    assert err < 1e-9
    assert f_tail(F, d1, d2) == pytest.approx(oracle, abs=1e-7)


def test_f_tail_reported_pairing():
    # the (F, p) pair reported for the comment-activity interaction
    assert f_tail(5.053, 1, 56) == pytest.approx(0.029, abs=5e-4)


def test_f_tail_monotone_in_f():
    values = [f_tail(f, 3, 20) for f in np.linspace(0, 10, 60)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_f_tail_rejects_negative_f():
    with pytest.raises(ValueError):
        f_tail(-0.1, 1, 1)
