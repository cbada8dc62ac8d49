"""Per-user polarization and selective-exposure measures.

Polarization of a user is (x - y) / (x + y) over their action counts on two
opposing page communities; engagement couples a user's lifetime and activity
(min-max standardized within their community) with the variety of pages they
touch per calendar window, smoothed by local regression.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .compare import DegenerateDataWarning
from .graphs import Partition
from .ingest import Dataset
from .timebins import WINDOW_KEYS, by_day

DEFAULT_MIN_ACTIONS = 10
DEFAULT_BINS = 21
DEFAULT_SPAN = 0.75
MAX_COUNT = 10_000  # bins, grid points or random draws: each costs time or memory


def check_count(name: str, value: int, least: int) -> None:
    """Raise ValueError unless least <= value <= MAX_COUNT."""
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    if value > MAX_COUNT:
        raise ValueError(f"{name} must be at most {MAX_COUNT}, got {value}")


@dataclass(frozen=True)
class PolarizationProfile:
    user: str
    x: int  # actions on the first community
    y: int  # actions on the second community
    rho: float


@dataclass(frozen=True)
class Histogram:
    edges: tuple[float, ...]
    densities: tuple[float, ...]
    count: int


@dataclass(frozen=True)
class UserEngagement:
    user: str
    community: str
    lifetime: int  # seconds between latest and earliest like
    activity: int  # number of likes
    lifetime_std: float
    activity_std: float


def side_order(sides: dict[str, str]) -> tuple[str, str]:
    values = sorted(set(sides.values()))
    if len(values) != 2:
        raise ValueError(f"side map must use exactly 2 side values, got {values}")
    return (values[0], values[1])


def two_largest_sides(p: Partition) -> dict[str, str]:
    """Side map from a detected partition: its two biggest communities.

    Pages outside the two largest communities are omitted (their actions are
    then ignored by the polarization counts). Ties broken by smallest page id.
    """
    if p.n_communities < 2:
        raise ValueError("partition has fewer than 2 communities")
    comms = p.communities()
    order = sorted(range(len(comms)), key=lambda c: (-len(comms[c]), min(comms[c])))
    sides: dict[str, str] = {}
    for name, c in zip(("c1", "c2"), order[:2]):
        for page in comms[c]:
            sides[page] = name
    return sides


def user_polarization(d: Dataset, sides: dict[str, str], action: str = "like",
                      min_actions: int = DEFAULT_MIN_ACTIONS) -> list[PolarizationProfile]:
    """Per-user polarization rho = (x - y) / (x + y) over action counts.

    x counts actions of the given kind on the first side in sorted order, y on
    the second (total actions, not distinct pages); actions on unmapped pages are
    ignored. Only users with x + y >= min_actions are reported.
    """
    if not sides:
        raise ValueError("empty side map")
    second = side_order(sides)[1]
    counts: dict[str, list[int]] = {}
    for r, side in d.on_sides(action, sides):
        counts.setdefault(r.user, [0, 0])[side == second] += 1
    out = []
    for user in sorted(counts):
        x, y = counts[user]
        if x + y >= min_actions:
            out.append(PolarizationProfile(user, x, y, (x - y) / (x + y)))
    return out


def polarization_histogram(profiles, bins: int = DEFAULT_BINS) -> Histogram:
    """Equal-width density histogram of rho over [-1, 1], endpoints included."""
    check_count("bins", bins, 2)
    rhos = [p.rho for p in profiles]
    if not rhos:
        raise ValueError("no profiles to bin")
    densities, edges = np.histogram(rhos, bins=bins, range=(-1.0, 1.0), density=True)
    return Histogram(tuple(edges.tolist()), tuple(densities.tolist()), len(rhos))


def standardize(values: list[int], what: str, community: str) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        warnings.warn(f"{what} is constant within community {community!r}; "
                      "standardized values set to 0", DegenerateDataWarning)
        return [0.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def user_engagement(d: Dataset, sides: dict[str, str],
                    action: str = "like") -> list[UserEngagement]:
    """Lifetime and activity per user, min-max standardized per community.

    Lifetime is the time between a user's latest and earliest liked post;
    activity is their like count. A user's community is the side receiving the
    majority of their likes (ties: first side in sorted order). Communities
    with a constant measure get standardized values of 0, flagged.
    """
    per_user: dict[str, dict] = {}
    for r, side in d.on_sides(action, sides):
        slot = per_user.setdefault(r.user, {"first": r.ts, "last": r.ts, "n": 0,
                                            "by_side": {}})
        slot["first"] = min(slot["first"], r.ts)
        slot["last"] = max(slot["last"], r.ts)
        slot["n"] += 1
        slot["by_side"][side] = slot["by_side"].get(side, 0) + 1
    if not per_user:
        raise ValueError(f"dataset has no {action} records on mapped pages")

    grouped: dict[str, list[tuple[str, int, int]]] = {}
    for user in sorted(per_user):
        slot = per_user[user]
        community = max(sorted(slot["by_side"]), key=lambda s: slot["by_side"][s])
        grouped.setdefault(community, []).append(
            (user, slot["last"] - slot["first"], slot["n"]))

    out: list[UserEngagement] = []
    for community in sorted(grouped):
        rows = grouped[community]
        lifetimes = [r[1] for r in rows]
        activities = [r[2] for r in rows]
        life_std = standardize(lifetimes, "lifetime", community)
        act_std = standardize(activities, "activity", community)
        for (user, life, act), ls, as_ in zip(rows, life_std, act_std):
            out.append(UserEngagement(user, community, life, act, ls, as_))
    out.sort(key=lambda e: e.user)
    return out


def pages_per_window(d: Dataset, window: str, action: str = "like") -> dict[str, int]:
    """Max distinct pages per window for each user with an action of the given
    kind; windows (calendar years, months or ISO weeks) are keyed once per day.
    """
    if window not in WINDOW_KEYS:
        raise ValueError(f"window must be one of {sorted(WINDOW_KEYS)}, got {window!r}")
    key_of = by_day(WINDOW_KEYS[window])
    per_user: dict[str, dict[tuple, set[str]]] = {}
    for r in d.records:
        if r.action == action:
            per_user.setdefault(r.user, {}).setdefault(key_of(r.ts), set()).add(r.page)
    return {user: max(map(len, windows.values())) for user, windows in per_user.items()}


def community_page_stats(d: Dataset, sides: dict[str, str],
                         action: str = "like") -> dict[str, tuple[float, float]]:
    """Per community: (mean, sample SD) of distinct pages liked per user."""
    per: dict[str, dict[str, set[str]]] = {}
    for r, side in d.on_sides(action, sides):
        per.setdefault(side, {}).setdefault(r.user, set()).add(r.page)
    out: dict[str, tuple[float, float]] = {}
    for side in sorted(per):
        counts = [len(pages) for _u, pages in sorted(per[side].items())]
        mean = sum(counts) / len(counts)
        if len(counts) > 1:
            sd = math.sqrt(sum((c - mean) ** 2 for c in counts) / (len(counts) - 1))
        else:
            sd = 0.0
        out[side] = (mean, sd)
    return out


def loess_fit(x, y, span: float = DEFAULT_SPAN, eval_points=None):
    """Local linear regression with tricube weights and pointwise 95% bands.

    At each evaluation point the span-nearest neighbors get tricube weights
    and a weighted straight line is fitted; the band is fit +- 1.96 * SE with
    SE from the local weighted least squares and a pooled residual variance.
    Neighborhoods whose x values are all identical fall back to a local
    constant fit (flagged).

    Returns (fit, lower95, upper95) arrays over ``eval_points`` (default: the
    sorted unique x values).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = len(x)
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if not math.isfinite(span):
        raise ValueError(f"span must be a finite number, got {span}")
    k = math.ceil(min(span, 1.0) * n)
    if k < 2:
        raise ValueError(f"span {span} covers fewer than 2 of the {n} points")
    if eval_points is None:
        eval_points = np.unique(x)
    else:
        eval_points = np.asarray(eval_points, dtype=float)

    def local_coeffs(x0: float):
        """Weight vector l with fit(x0) = l . y."""
        dist = np.abs(x - x0)
        h = np.partition(dist, k - 1)[k - 1]
        if h == 0.0:
            w = (dist == 0.0).astype(float)
        else:
            u = np.clip(dist / h, 0.0, 1.0)
            w = (1.0 - u ** 3) ** 3
        sw = w.sum()
        if sw <= 0.0:  # every neighbour sits at distance h, where tricube is 0
            raise ValueError(f"no data point has positive weight at x = {x0}; "
                             "a larger span would include more")
        z = x - x0
        swz = float(w @ z)
        swzz = float(w @ (z * z))
        denom = sw * swzz - swz * swz
        xs = x[w > 0.0]  # np.allclose(xs, xs[0]) without its temporaries:
        distinct = len(xs) > 1 and not (
            np.abs(xs - xs[0]).max() <= 1e-8 + 1e-5 * abs(xs[0]))
        if denom <= 0.0 or not distinct:
            warnings.warn(f"degenerate local design at x = {x0}; "
                          "using local constant fit", DegenerateDataWarning)
            return w / sw
        return w * (swzz - swz * z) / denom

    @cache  # one local fit per distinct x0: the data and the grid repeat x values
    def local_fit(x0: float):
        """fit(x0), l . l and l at the data points equal to x0 (all the same)."""
        l = local_coeffs(x0)
        at_x0 = l[x == x0]
        return float(l @ y), float(l @ l), at_x0[0] if len(at_x0) else None

    # pooled residual variance from fits at the data points
    hat_diag = np.empty(n)
    resid = np.empty(n)
    for i in range(n):
        fit_i, _, hat_diag[i] = local_fit(x[i])
        resid[i] = y[i] - fit_i
    dof = n - hat_diag.sum()
    if dof <= 0:
        dof = max(n - 2, 1)
    sigma2 = float(resid @ resid) / dof

    fit = np.empty(len(eval_points))
    half = np.empty(len(eval_points))
    for i, x0 in enumerate(eval_points):
        fit[i], ll, _ = local_fit(float(x0))
        half[i] = 1.96 * math.sqrt(max(sigma2, 0.0) * ll)
    return fit, fit - half, fit + half
