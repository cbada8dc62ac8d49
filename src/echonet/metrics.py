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
from .ingest import ACTION_CODES, Dataset, distinct
from .timebins import WINDOW_KEYS, day_bins

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


def check_span(span: float) -> None:
    """Raise ValueError unless the LOESS span is a finite positive number."""
    if not math.isfinite(span):
        raise ValueError(f"span must be a finite number, got {span}")
    if span <= 0:
        raise ValueError(f"span must be positive, got {span}")


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
    rows, side, names = d.on_sides(action, sides)  # side 0 is x's, 1 is y's
    if len(names) != 2:
        raise ValueError(f"side map must use exactly 2 side values, got {names}")
    x, y = (np.bincount(d.user[rows[side == s]], minlength=len(d.user_table)) for s in (0, 1))
    users = np.flatnonzero((x + y > 0) & (x + y >= min_actions))
    return [PolarizationProfile(user, x, y, (x - y) / (x + y)) for user, x, y in zip(
        d.user_table[users].tolist(), x[users].tolist(), y[users].tolist())]


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
    rows, side, names = d.on_sides(action, sides)
    if not len(rows):
        raise ValueError(f"dataset has no {action} records on mapped pages")
    users, user = np.unique(d.user[rows], return_inverse=True)
    ts = d.ts[rows]
    first, last = np.full(len(users), ts.max()), np.full(len(users), ts.min())
    np.minimum.at(first, user, ts)
    np.maximum.at(last, user, ts)
    lifetime, activity = last - first, np.bincount(user)
    by_side = np.bincount(user * len(names) + side, minlength=len(users) * len(names))
    community = by_side.reshape(len(users), len(names)).argmax(axis=1)  # first of a tie
    life_std, act_std = np.zeros(len(users)), np.zeros(len(users))
    for c in np.unique(community).tolist():
        members = community == c
        life_std[members] = standardize(lifetime[members].tolist(), "lifetime", names[c])
        act_std[members] = standardize(activity[members].tolist(), "activity", names[c])
    return list(map(UserEngagement, d.user_table[users].tolist(), [names[c] for c in community],
                    lifetime.tolist(), activity.tolist(), life_std.tolist(), act_std.tolist()))


def pages_per_window(d: Dataset, window: str, action: str = "like") -> dict[str, int]:
    """Max distinct pages per window for each user with an action of the given
    kind; windows (calendar years, months or ISO weeks) are keyed once per day.
    """
    if window not in WINDOW_KEYS:
        raise ValueError(f"window must be one of {sorted(WINDOW_KEYS)}, got {window!r}")
    rows = np.flatnonzero(d.action == ACTION_CODES[action])
    windows, bins = day_bins(d.ts[rows], WINDOW_KEYS[window])
    n_users, n_pages = len(d.user_table), len(d.page_table)
    keys = distinct(np.ravel_multi_index((d.user[rows], windows, d.page[rows]),
                                         (n_users, len(bins), n_pages)))
    user_windows, counts = np.unique(keys // n_pages, return_counts=True)
    users, first = np.unique(user_windows // len(bins), return_index=True)
    return dict(zip(d.user_table[users].tolist(), np.maximum.reduceat(counts, first).tolist()))


def community_page_stats(d: Dataset, sides: dict[str, str],
                         action: str = "like") -> dict[str, tuple[float, float]]:
    """Per community: (mean, sample SD) of distinct pages liked per user."""
    rows, side, names = d.on_sides(action, sides)
    n_users, n_pages = len(d.user_table), len(d.page_table)
    keys = distinct(np.ravel_multi_index((side, d.user[rows], d.page[rows]),
                                         (len(names), n_users, n_pages)))
    side_users, pages = np.unique(keys // n_pages, return_counts=True)
    side = side_users // n_users
    out: dict[str, tuple[float, float]] = {}
    for s in np.unique(side).tolist():
        counts = pages[side == s].tolist()
        mean = sum(counts) / len(counts)
        if len(counts) > 1:
            sd = math.sqrt(sum((c - mean) ** 2 for c in counts) / (len(counts) - 1))
        else:
            sd = 0.0
        out[names[s]] = (mean, sd)
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
    check_span(span)
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
