"""Quarterly growth and cohesion series plus the factorial interaction tests.

Activity series count active pages and users per calendar quarter and
community; cohesion series measure, per quarter, how much of a community's
active page set falls into its biggest detected sub-community. The 2x2
ANOVA/MANOVA machinery tests sentiment-by-epoch interactions on those series.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .community import ALGORITHMS, derived_seed
from .compare import DegenerateDataWarning
from .graphs import BipartiteGraph, project
from .ingest import ACTION_CODES, ACTION_TABLE, Dataset, distinct_rows
from .timebins import calendar_bins, quarter_at

MEASURES = (
    "active_pages_post",
    "active_pages_like",
    "active_pages_comment",
    "active_users_like",
    "active_users_comment",
)


@dataclass(frozen=True)
class SeriesPoint:
    quarter: tuple[int, int]
    community: str
    measure: str
    count: int


@dataclass(frozen=True)
class CohesionPoint:
    quarter: tuple[int, int]
    community: str
    algorithm: str
    largest: int  # size of the biggest detected community
    total: int  # active pages that quarter
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class AnovaResult:
    term: str
    F: float
    df1: int
    df2: int
    p: float
    partial_eta2: float
    ss: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class AnovaTable:
    factor_a: AnovaResult  # sentiment
    factor_b: AnovaResult  # epoch
    interaction: AnovaResult
    ss_error: float
    df_error: int


def _quarters(d: Dataset, rows):
    """Each row's quarter as an index into the quarters from the first record
    to the last, inclusive, and those quarters."""
    first, last = (calendar_bins([d.ts.min(), d.ts.max()], "quarter").tolist()
                   if len(d) else (0, -1))
    quarters = [quarter_at(i) for i in range(first, last + 1)]
    return calendar_bins(d.ts[rows], "quarter") - first, quarters


def activity_series(d: Dataset, labels: dict[str, str]) -> list[SeriesPoint]:
    """Active-page and active-user counts per (quarter, community, measure).

    A page is active in a quarter per measure if it made a post / received a
    like / received a comment then; a user is active if they gave a like (or
    comment) to any page of the community that quarter. Every quarter in the
    dataset's span is emitted, zeros included.
    """
    rows, side, communities = d.on_sides(None, labels)
    quarter, span = _quarters(d, rows)
    shape = (len(span), len(communities), len(ACTION_TABLE))
    cells = np.ravel_multi_index((quarter, side, d.action[rows]), shape)
    active = {}  # "pages" or "users" -> distinct count per (quarter, community, action)
    for entity, table, codes in (("pages", d.page_table, d.page), ("users", d.user_table, d.user)):
        cell_of, _ = distinct_rows((cells, codes[rows]), (math.prod(shape), len(table)))
        active[entity] = np.bincount(cell_of, minlength=math.prod(shape)).reshape(shape).tolist()
    measures = [(m, *m.split("_")[1:]) for m in MEASURES]  # (measure, entity, action)
    return [SeriesPoint(q, side, measure, active[entity][i][s][ACTION_CODES[a]])
            for i, q in enumerate(span) for s, side in enumerate(communities)
            for measure, entity, a in measures]


def cohesion_series(d: Dataset, labels: dict[str, str], action: str = "like",
                    algorithms=tuple(ALGORITHMS), seed: int = 0,
                    cumulative: bool = False) -> list[CohesionPoint]:
    """Largest detected community vs. active pages, per quarter and community.

    For each quarter and community, the bipartite graph of that quarter's
    actions on the community's pages is projected and each algorithm reports
    its biggest community. ``total`` counts the community's pages with at
    least one action that quarter; quarters with fewer than 2 active pages are
    emitted degenerate (largest = total) and flagged. With ``cumulative`` the
    graph accumulates all actions up to the quarter.
    """
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
    rows, side, communities = d.on_sides(action, labels)
    quarter, span = _quarters(d, rows)
    shape = (len(communities) * len(span), len(d.user_table), len(d.page_table))
    group, user, page = distinct_rows(
        (side * len(span) + quarter, d.user[rows], d.page[rows]), shape)
    bounds = np.searchsorted(group, np.arange(shape[0] + 1))  # distinct pairs by group
    out: list[CohesionPoint] = []
    for i, q in enumerate(span):
        for s, side in enumerate(communities):
            start, stop = (bounds[s * len(span) + k] for k in (0 if cumulative else i, i + 1))
            pages = np.unique(page[start:stop])
            total = len(pages)
            if total < 2:
                for algo in algorithms:
                    out.append(CohesionPoint(q, side, algo, total, total,
                                             ("degenerate",)))
                continue
            g = project(BipartiteGraph(d.page_table[pages].tolist(), user[start:stop],
                                       np.searchsorted(pages, page[start:stop])))
            for algo in algorithms:
                if g.total_weight == 0:
                    largest = 1  # no co-actors: every page is its own community
                else:
                    part, _ = ALGORITHMS[algo](
                        g, derived_seed(seed, "cohesion", q, side, algo))
                    largest = max(part.sizes())
                out.append(CohesionPoint(q, side, algo, largest, total))
    return out


def f_tail(F: float, df1: int, df2: int) -> float:
    """Upper-tail probability of the F distribution.

    Evaluated through the regularized incomplete beta function:
    p = I_{df2 / (df2 + df1 F)}(df2/2, df1/2).
    """
    if F < 0:
        raise ValueError(f"F must be non-negative, got {F}")
    if df1 <= 0 or df2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(F):
        return 0.0
    from scipy.special import betainc  # imported here: only ANOVA/MANOVA need it

    x = df2 / (df2 + df1 * F)
    return float(betainc(df2 / 2.0, df1 / 2.0, x))


def _fit(obs, n_values: int):
    """Validate the 2x2 layout of (sentiment, epoch, values) rows and fit it.

    Returns the values, a mask of the dependent variables constant within
    every design cell, and the residual cross-product matrices of the full,
    additive, no-sentiment and no-epoch models.
    """
    rows = list(obs)
    if not rows:
        raise ValueError("no observations")
    a_levels = sorted({r[0] for r in rows})
    b_levels = sorted({r[1] for r in rows})
    if len(a_levels) != 2 or len(b_levels) != 2:
        raise ValueError(f"need exactly 2 levels per factor, got {a_levels} x {b_levels}")
    a = np.array([1.0 if r[0] == a_levels[1] else -1.0 for r in rows])
    b = np.array([1.0 if r[1] == b_levels[1] else -1.0 for r in rows])
    cell = 2 * (a > 0) + (b > 0)  # (a_levels[cell // 2], b_levels[cell % 2])
    if (empty := np.bincount(cell, minlength=4) == 0).any():
        k = int(np.argmax(empty))
        raise ValueError(f"empty design cell ({a_levels[k // 2]!r}, {b_levels[k % 2]!r})")
    vals = []
    for r in rows:
        v = r[2]
        v = (float(v),) if np.isscalar(v) else tuple(float(c) for c in v)
        if len(v) != n_values:
            raise ValueError(f"expected {n_values} dependent values, got {len(v)}")
        vals.append(v)
    if len(rows) < 5:
        raise ValueError(f"need at least 5 observations, got {len(rows)}")
    Y = np.array(vals)
    constant = np.all([np.ptp(Y[cell == c], axis=0) == 0 for c in range(4)], axis=0)

    def rss(*columns):
        X = np.column_stack([np.ones(len(rows)), *columns])
        resid = Y - X @ np.linalg.lstsq(X, Y, rcond=None)[0]
        return resid.T @ resid

    return Y, constant, [rss(a, b, a * b), rss(a, b), rss(b), rss(a)]


def two_way_anova(obs) -> AnovaTable:
    """Fixed-effects 2x2 ANOVA; Type II sums, so unbalanced designs are fine.

    ``obs`` is an iterable of (sentiment, epoch, value). Returns the
    interaction together with both main effects; the interaction has
    df1 = 1 and df2 = N - 4. Constant data yields F = 0, p = 1, flagged.
    When every design cell is constant the error is zero: an effect whose sum
    of squares is at most 1e-12 of the total is then zero (F = 0, p = 1) and
    any other has F = inf, p = 0, all three flagged ``zero_error``.
    """
    Y, constant, fits = _fit(obs, 1)
    y = Y[:, 0]
    n = len(y)
    ss_total = float(np.sum((y - y.mean()) ** 2))
    df_error = n - 4
    if ss_total == 0.0:
        warnings.warn("constant response; all effects zero", DegenerateDataWarning)
        zero = lambda term, df1: AnovaResult(term, 0.0, df1, df_error, 1.0, 0.0, 0.0,
                                             ("degenerate",))
        return AnovaTable(zero("sentiment", 1), zero("epoch", 1),
                          zero("interaction", 1), 0.0, df_error)

    rss_full, rss_additive, rss_no_a, rss_no_b = (float(m[0, 0]) for m in fits)
    ss_ab = rss_additive - rss_full
    ss_a = rss_no_a - rss_additive
    ss_b = rss_no_b - rss_additive
    zero_error = bool(constant[0])  # from the data, as lstsq leaves rounding residue
    sse = 0.0 if zero_error else rss_full
    mse = sse / df_error

    def result(term: str, ss: float) -> AnovaResult:
        ss = max(ss, 0.0)
        if zero_error:
            ss = ss if ss > 1e-12 * ss_total else 0.0
            f = math.inf if ss > 0 else 0.0
            flags = ("zero_error",)
        else:
            f = ss / mse
            flags = ()
        return AnovaResult(term, f, 1, df_error, f_tail(f, 1, df_error),
                           ss / (ss + sse) if (ss + sse) > 0 else 0.0, ss, flags)

    return AnovaTable(result("sentiment", ss_a), result("epoch", ss_b),
                      result("interaction", ss_ab), sse, df_error)


def manova_pillai(obs) -> AnovaResult:
    """Pillai's trace for the 2x2 interaction with multivariate responses.

    ``obs`` is an iterable of (sentiment, epoch, value_tuple). The hypothesis
    and error cross-product matrices come from the full and interaction-free
    linear models; with p dependent variables and one hypothesis df the F
    approximation has df1 = p and df2 = N - 3 - p. With a single dependent
    variable this reduces exactly to the univariate ANOVA F. A variable that is
    constant within every design cell leaves E singular and is refused.
    """
    rows = list(obs)
    p = 1 if not rows or np.isscalar(rows[0][2]) else len(rows[0][2])
    Y, constant, (E, additive, _, _) = _fit(rows, p)
    df_error = len(Y) - 4
    H = additive - E

    total = Y - Y.mean(axis=0)
    if float(np.abs(total).max()) == 0.0:
        warnings.warn("constant responses; Pillai trace is 0", DegenerateDataWarning)
        df2 = df_error - p + 1
        return AnovaResult("interaction", 0.0, p, df2, 1.0, 0.0, 0.0, ("degenerate",))

    if constant.any():  # its row and column of E are zero
        raise ValueError(f"dependent variable {int(np.argmax(constant)) + 1} of {p} "
                         "is constant within every design cell")
    he = H + E
    if np.linalg.matrix_rank(he) < p:
        raise ValueError("singular error matrix: dependent variables are collinear")
    V = float(np.trace(np.linalg.solve(he, H)))
    V = min(max(V, 0.0), 1.0)
    df1 = p  # s(2m + s + 1) with s = 1, m = (|p - 1| - 1) / 2
    df2 = df_error - p + 1
    if V >= 1.0:
        warnings.warn("perfect interaction fit", DegenerateDataWarning)
        return AnovaResult("interaction", math.inf, df1, df2, 0.0, 1.0,
                           float(np.trace(H)), ("perfect_fit",))
    F = (V / (1.0 - V)) * (df2 / df1)
    return AnovaResult("interaction", F, df1, df2, f_tail(F, df1, df2), V,
                       float(np.trace(H)))
