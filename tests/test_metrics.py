import hashlib
import math
import tracemalloc
import warnings
from datetime import datetime, timezone

import numpy as np
import pytest

from echonet.compare import DegenerateDataWarning
from echonet.graphs import Partition
from echonet.metrics import (
    community_page_stats,
    loess_fit,
    pages_per_window,
    polarization_histogram,
    two_largest_sides,
    user_engagement,
    user_polarization,
)
from echonet.synth import SynthConfig, generate
from echonet.temporal import cohesion_series

from conftest import dataset, random_dataset, rec

SIDES = {"p1": "c1", "p2": "c2"}


def likes(user, page, n, day0=1, month=3):
    from datetime import date, timedelta

    base = date(2014, month, day0)
    return [rec(user, page, "like", (base + timedelta(days=i)).isoformat())
            for i in range(n)]


def test_polarization_endpoint_and_symmetry():
    d = dataset(*likes("u1", "p1", 10), *likes("u2", "p1", 5), *likes("u2", "p2", 5))
    out = user_polarization(d, SIDES)
    by_user = {p.user: p for p in out}
    assert by_user["u1"].rho == 1.0 and by_user["u1"].x == 10
    assert by_user["u2"].rho == 0.0


def test_polarization_threshold_excludes_light_users():
    d = dataset(*likes("u1", "p1", 9), *likes("u2", "p1", 10))
    out = user_polarization(d, SIDES)
    assert [p.user for p in out] == ["u2"]


def test_polarization_counts_actions_not_pages():
    d = dataset(*likes("u1", "p1", 7), *likes("u1", "p1", 5, month=4))
    out = user_polarization(d, SIDES)
    assert out[0].x == 12


def test_polarization_ignores_unmapped_pages():
    d = dataset(*likes("u1", "p1", 10), *likes("u1", "px", 10))
    out = user_polarization(d, SIDES)
    assert out[0].x == 10 and out[0].y == 0


def test_polarization_antisymmetric_under_side_swap():
    d = dataset(*likes("u1", "p1", 8), *likes("u1", "p2", 4),
                *likes("u2", "p2", 12))
    swapped = {page: {"c1": "c2", "c2": "c1"}[side] for page, side in SIDES.items()}
    fwd = user_polarization(d, SIDES, min_actions=1)
    rev = user_polarization(d, swapped, min_actions=1)
    assert [p.user for p in fwd] == [p.user for p in rev]
    for a, b in zip(fwd, rev):
        assert a.rho == -b.rho


def test_polarization_invariant_under_duplication():
    records = likes("u1", "p1", 8) + likes("u1", "p2", 4)
    d1 = dataset(*records)
    d3 = dataset(*(records * 3))
    r1 = user_polarization(d1, SIDES, min_actions=1)[0].rho
    r3 = user_polarization(d3, SIDES, min_actions=1)[0].rho
    assert r1 == r3


def test_polarization_empty_side_map_errors():
    with pytest.raises(ValueError):
        user_polarization(dataset(), {})


def test_two_largest_sides_picks_biggest_communities():
    p = Partition.from_labels(["a", "b", "c", "d", "e", "f"],
                              [0, 0, 0, 1, 1, 2])
    sides = two_largest_sides(p)
    assert sides == {"a": "c1", "b": "c1", "c": "c1", "d": "c2", "e": "c2"}


def test_histogram_point_mass_in_last_bin():
    d = dataset(*likes("u1", "p1", 10))
    profiles = user_polarization(d, SIDES)
    hist = polarization_histogram(profiles, bins=21)
    assert hist.densities[-1] > 0
    assert sum(hist.densities[:-1]) == 0


def test_histogram_three_bins_hand_check():
    class P:  # bare profile stub
        def __init__(self, rho):
            self.rho = rho

    hist = polarization_histogram([P(-1.0), P(0.0), P(1.0)], bins=3)
    width = 2 / 3
    assert hist.densities == pytest.approx(((1 / 3) / width,) * 3)


def test_histogram_mass_sums_to_one():
    rng = np.random.default_rng(3)

    class P:
        def __init__(self, rho):
            self.rho = rho

    for bins in (2, 5, 21):
        profiles = [P(float(v)) for v in rng.uniform(-1, 1, 200)]
        hist = polarization_histogram(profiles, bins=bins)
        width = 2.0 / bins
        assert sum(hist.densities) * width == pytest.approx(1.0, abs=1e-12)


def test_histogram_bad_bins():
    with pytest.raises(ValueError):
        polarization_histogram([], bins=21)
    d = dataset(*likes("u1", "p1", 10))
    with pytest.raises(ValueError):
        polarization_histogram(user_polarization(d, SIDES), bins=1)


# ----------------------------------------------------------------- engagement


def test_engagement_single_like_has_zero_lifetime():
    d = dataset(rec("u1", "p1", "like", "2014-03-01"),
                *likes("u2", "p1", 3))
    out = {e.user: e for e in user_engagement(d, SIDES)}
    assert out["u1"].lifetime == 0
    assert out["u1"].lifetime_std == 0.0  # community minimum


def test_engagement_minmax_endpoints():
    d = dataset(*likes("u1", "p1", 2), *likes("u2", "p1", 5), *likes("u3", "p1", 10))
    out = {e.user: e for e in user_engagement(d, SIDES)}
    assert out["u1"].activity_std == 0.0
    assert out["u2"].activity_std == pytest.approx(3 / 8)
    assert out["u3"].activity_std == 1.0


def test_engagement_standardized_per_community():
    d = dataset(*likes("u1", "p1", 2), *likes("u2", "p1", 6),
                *likes("u3", "p2", 50), *likes("u4", "p2", 60, month=5))
    out = {e.user: e for e in user_engagement(d, SIDES)}
    assert out["u2"].activity_std == 1.0  # max within c1, not globally
    assert out["u4"].activity_std == 1.0
    assert out["u1"].community == "c1" and out["u3"].community == "c2"


def test_engagement_degenerate_community_flagged():
    d = dataset(rec("u1", "p1", "like", "2014-03-01"))
    with pytest.warns(DegenerateDataWarning):
        out = user_engagement(d, SIDES)
    assert out[0].lifetime_std == 0.0 and out[0].activity_std == 0.0


def test_engagement_majority_side_assignment():
    d = dataset(*likes("u1", "p1", 5), *likes("u1", "p2", 2),
                *likes("u2", "p2", 9), *likes("u3", "p2", 4),
                *likes("u4", "p1", 2, day0=5))
    out = {e.user: e for e in user_engagement(d, SIDES)}
    assert out["u1"].community == "c1"
    assert out["u2"].community == "c2"
    assert out["u1"].activity == 7  # likes on both sides count toward activity


# -------------------------------------------------------------------- windows


def test_pages_per_window_single_week():
    d = dataset(rec("u1", "p1", "like", "2014-03-03"),
                rec("u1", "p2", "like", "2014-03-04"),
                rec("u1", "p3", "like", "2014-03-05"))
    assert pages_per_window(d, "week") == {"u1": 3}


def test_pages_per_window_month_vs_year():
    records = [rec("u1", f"p{m}", "like", f"2014-{m:02d}-10") for m in range(1, 7)]
    d = dataset(*records)
    assert pages_per_window(d, "month") == {"u1": 1}
    assert pages_per_window(d, "year") == {"u1": 6}


def test_pages_per_window_monotone():
    rng = np.random.default_rng(11)
    records = []
    for u in range(6):
        for _ in range(30):
            records.append(rec(f"u{u}", f"p{rng.integers(0, 9)}", "like",
                               f"201{rng.integers(2, 6)}-{rng.integers(1, 13):02d}-"
                               f"{rng.integers(1, 29):02d}"))
    d = dataset(*records)
    week, month, year = (pages_per_window(d, w) for w in ("week", "month", "year"))
    assert week.keys() == month.keys() == year.keys() == {f"u{u}" for u in range(6)}
    for u in range(6):
        assert week[f"u{u}"] <= month[f"u{u}"] <= year[f"u{u}"]


def test_pages_per_window_bad_args():
    d = dataset(rec("u1", "p1", "like"))
    with pytest.raises(ValueError):
        pages_per_window(d, "fortnight")
    assert "nobody" not in pages_per_window(d, "week")


@pytest.mark.parametrize("window, key_of", [
    ("year", lambda t: t.year),
    ("month", lambda t: (t.year, t.month)),
    ("week", lambda t: t.isocalendar()[:2]),
])
def test_pages_per_window_matches_per_user_datetime_count(window, key_of):
    d = random_dataset(3000, seed=23)
    for action in ("like", "comment"):
        expected = {}
        for user in {r.user for r in d.records if r.action == action}:
            windows = {}
            for r in d.records:
                if r.user == user and r.action == action:
                    t = datetime.fromtimestamp(r.ts, tz=timezone.utc)
                    windows.setdefault(key_of(t), set()).add(r.page)
            expected[user] = max(len(pages) for pages in windows.values())
        assert pages_per_window(d, window, action) == expected


@pytest.mark.parametrize("window", ["week", "month", "year"])
def test_pages_per_window_holds_a_few_words_per_record(window):
    """Peak memory of the group-by, result included, per record of the action.

    The records are coded before tracing starts. A set of pages per (user,
    window), held for the whole corpus, costs more than the bound.
    """
    cfg = SynthConfig(users_per_side=(600, 600), pages_per_side=(12, 8),
                      actions_per_user=("fixed", 20), posts_per_page=10, seed=4)
    d = generate(cfg)[0]
    n_likes = sum(r.action == "like" for r in d.records)
    pages_per_window(d, window)  # fills the calendar caches
    tracemalloc.start()
    try:
        pages = pages_per_window(d, window)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n_likes == 19_191 and len(pages) == 1_200
    assert peak <= 100 * n_likes


# ---------------------------------------------------------------------- stats


def test_page_stats_all_single_page():
    d = dataset(*likes("u1", "p1", 2), *likes("u2", "p1", 3))
    stats = community_page_stats(d, SIDES)
    assert stats["c1"] == (1.0, 0.0)


def test_page_stats_one_two_three():
    d = dataset(
        *likes("u1", "p1", 1),
        *likes("u2", "p1", 1), *likes("u2", "p2", 1),
        *likes("u3", "p1", 1), *likes("u3", "p2", 1), *likes("u3", "p3", 1),
    )
    sides = {"p1": "c1", "p2": "c1", "p3": "c1"}
    mean, sd = community_page_stats(d, sides)["c1"]
    assert mean == pytest.approx(2.0)
    assert sd == pytest.approx(1.0)


# Digests of repr(output) on a corpus with posts, comments, an unmapped page (p07)
# and a third label value ("mixed"); polarization gets the two-sided map.
SIDE_MAPPED_PINNED = {
    ("like", "polarization"): "00437964a986daaf971b652a84f61a1826b271646c67c2cc187cfefe7a5f4a4f",
    ("like", "engagement"): "9b1b878c8c0fc96584d6e83051a19a48971eb012a4d1a319362c573c62bec014",
    ("like", "page_stats"): "9311419155acb3a4fd72cb91fdb32af1b797ee802a83a6301f53687a004e09bd",
    ("like", "cohesion"): "80a45533afa11ae53c3aaeacccaf43590a4c7b717756e88b3fa33cc9de4890bf",
    ("like", "cumulative"): "5745781d069ada26105fcb1850b634376462789bece56ff2a9dbd2746197b185",
    ("comment", "polarization"):
        "316b7e7f5bccb355c7bcd658b1cc284150dea162f02a864fa938139e13b50661",
    ("comment", "engagement"): "5c63dd3d42dd217f78145be94b42ddecaca90216d6b07aeccaf33de1ee654ac6",
    ("comment", "page_stats"): "ec58e27573fb3d9808e22e45d9e1911f6e460f639bafb182105d88a0ce632c9b",
    ("comment", "cohesion"): "28692f34daa5a44b387a6c781a63286f35c5dfa57c6ddeb1f668b0e251b17a2d",
    ("comment", "cumulative"): "c6387a954e5ae23fde49ca794aa7440ebc73e270b9fa63cb52dfcd7ba82f4ecf",
}


def test_side_mapped_analyses_pinned():
    labels = {"p00": "pro", "p01": "pro", "p02": "pro", "p03": "anti", "p04": "anti",
              "p05": "anti", "p06": "mixed"}
    two_sided = {p: s for p, s in labels.items() if s != "mixed"}
    d = random_dataset(900, seed=11, n_users=30,
                       ts_range=("2014-01-01T00:00:00Z", "2015-06-30T23:59:59Z"))
    digests = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateDataWarning)
        for action in ("like", "comment"):
            outputs = {
                "polarization": user_polarization(d, two_sided, action, min_actions=1),
                "engagement": user_engagement(d, labels, action),
                "page_stats": community_page_stats(d, labels, action),
                "cohesion": cohesion_series(d, labels, action, seed=3),
                "cumulative": cohesion_series(d, labels, action, seed=3, cumulative=True),
            }
            for name, out in outputs.items():
                digests[action, name] = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digests == SIDE_MAPPED_PINNED


# ---------------------------------------------------------------------- loess


def loess_direct_oracle(x, y, span, x0):
    """Straight-line tricube WLS at one point via the polyfit route."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    k = int(math.ceil(span * len(x)))
    dist = np.abs(x - x0)
    h = np.sort(dist)[k - 1]
    w = np.clip(1 - np.clip(dist / h, 0, 1) ** 3, 0, None) ** 3
    mask = w > 0
    coeffs = np.polyfit(x[mask], y[mask], 1, w=np.sqrt(w[mask]))
    return float(np.polyval(coeffs, x0))


def test_loess_reproduces_constant_with_zero_width_band():
    x = np.linspace(0, 1, 40)
    y = np.full(40, 3.25)
    fit, lo, hi = loess_fit(x, y)
    assert fit == pytest.approx(3.25, abs=1e-12)
    assert np.allclose(hi - lo, 0.0, atol=1e-9)


def test_loess_reproduces_exact_line():
    x = np.linspace(-2, 5, 60)
    y = 2 * x + 1
    grid = np.linspace(-2, 5, 11)
    fit, _lo, _hi = loess_fit(x, y, eval_points=grid)
    assert np.max(np.abs(fit - (2 * grid + 1))) < 1e-9


def test_loess_matches_direct_formula_on_noisy_sine():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0, 4 * np.pi, 500))
    y = np.sin(x) + rng.normal(0, 0.3, 500)
    grid = np.linspace(0.5, 4 * np.pi - 0.5, 10)
    fit, lo, hi = loess_fit(x, y, span=0.75, eval_points=grid)
    for i, x0 in enumerate(grid):
        assert fit[i] == pytest.approx(loess_direct_oracle(x, y, 0.75, x0), abs=1e-9)
        assert lo[i] <= fit[i] <= hi[i]


def test_loess_span_one_on_linear_data_equals_ols():
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0, 10, 80))
    y = -1.5 * x + 4
    slope, intercept = np.polyfit(x, y, 1)
    grid = np.linspace(1, 9, 7)
    fit, _, _ = loess_fit(x, y, span=1.0, eval_points=grid)
    assert np.max(np.abs(fit - (slope * grid + intercept))) < 1e-9


def test_loess_degenerate_design_falls_back_to_constant():
    x = np.array([1.0, 1.0, 1.0, 5.0, 6.0, 7.0])
    y = np.array([2.0, 4.0, 6.0, 1.0, 1.0, 1.0])
    with pytest.warns(DegenerateDataWarning):
        fit, _, _ = loess_fit(x, y, span=0.5, eval_points=[1.0])
    assert fit[0] == pytest.approx(4.0)  # mean of the stacked point


def test_loess_span_beyond_one_is_span_one():
    rng = np.random.default_rng(8)
    x = np.sort(rng.uniform(0, 10, 40))
    y = np.sin(x) + rng.normal(0, 0.2, 40)
    whole = loess_fit(x, y, span=1.0)
    for span in (1.5, 1e308):
        assert all(np.array_equal(a, b) for a, b in zip(loess_fit(x, y, span=span), whole))


def test_loess_input_validation():
    with pytest.raises(ValueError):
        loess_fit([1, 2], [1, 2])
    with pytest.raises(ValueError):
        loess_fit([1, 2, 3, 4], [1, 2, 3, 4], span=0.2)
    # every neighbour of 0.5 is at the tricube's edge, so none has weight
    with pytest.warns(DegenerateDataWarning), \
            pytest.raises(ValueError, match="no data point has positive weight at x = 0.5"):
        loess_fit([0, 0, 1, 1], [1, 2, 3, 4], eval_points=[0.5])
