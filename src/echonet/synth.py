"""Seeded planted-polarization dataset generator.

Produces datasets with a known page/user side assignment so every downstream
analysis can be checked against ground truth. Each entity (page or user) draws
from its own counter-based Philox stream keyed by (seed, entity index), so the
output is independent of generation order and reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .ingest import ACTION_CODES, DEFAULT_RANGE, Dataset, sort_codes
from .timebins import day_end, day_start, parse_date

SIDES = ("pro", "anti")

# disjoint stream namespaces inside the 128-bit Philox key space
_PAGE_STREAM = 1 << 40
_USER_STREAM = 2 << 40

ACTIVITY_CAP = 5000  # most actions per user: lognormal draws are capped, fixed counts checked
USERS_CAP = 1_000_000  # most users per side
PAGES_CAP = 10_000  # most pages per side
POSTS_CAP = 10_000  # most posts per page
RECORDS_CAP = 100_000_000  # most records a config implies, ACTIVITY_CAP per lognormal user


@dataclass(frozen=True)
class SynthConfig:
    users_per_side: tuple[int, int]  # (pro, anti)
    pages_per_side: tuple[int, int] = (145, 98)
    p_out: float = 0.02
    # ("fixed", n) or ("lognormal", mu, sigma): per-user action count
    actions_per_user: tuple = ("lognormal", 2.0, 1.0)
    comment_fraction: float = 0.2
    posts_per_page: int = 50
    time_range: tuple = DEFAULT_RANGE
    seed: int = 0
    # user-disjoint page blocks per side, e.g. ((6, 5, 4), (15,)): users split
    # across blocks proportionally to block page counts, and own-side actions
    # stay within the user's block; None is one block per side
    sub_blocks: tuple | None = None

    def validate(self) -> None:
        if not 0.0 <= self.p_out <= 1.0:
            raise ValueError(f"p_out must be in [0,1], got {self.p_out}")
        if not 0.0 <= self.comment_fraction <= 1.0:
            raise ValueError(f"comment_fraction must be in [0,1], got {self.comment_fraction}")
        for name, counts, cap in (("users_per_side", self.users_per_side, USERS_CAP),
                                  ("pages_per_side", self.pages_per_side, PAGES_CAP),
                                  ("posts_per_page", (self.posts_per_page,), POSTS_CAP)):
            for n in counts:
                if not 0 <= n <= cap:
                    raise ValueError(f"{name} must be in 0..{cap}, got {n}")
        for si, (side, users, pages) in enumerate(zip(SIDES, self.users_per_side,
                                                      self.pages_per_side)):
            if users > 0 and pages == 0:
                raise ValueError(f"side {side!r} has {users} users but no pages")
            if users > 0 and self.p_out > 0 and self.pages_per_side[1 - si] == 0:
                raise ValueError(f"side {side!r} has {users} users and p_out {self.p_out}, "
                                 f"but side {SIDES[1 - si]!r} has no pages")
        kind, *params = self.actions_per_user
        if kind == "fixed":
            if len(params) != 1 or not 0 <= params[0] <= ACTIVITY_CAP:
                raise ValueError(f"bad fixed activity spec {self.actions_per_user}, "
                                 f"N must be in 0..{ACTIVITY_CAP}")
        elif kind == "lognormal":
            if len(params) != 2 or params[1] < 0 or not all(map(math.isfinite, params)):
                raise ValueError(f"bad lognormal activity spec {self.actions_per_user}")
        else:
            raise ValueError(f"unknown activity distribution {kind!r}")
        records = (sum(self.pages_per_side) * self.posts_per_page
                   + sum(self.users_per_side) * (params[0] if kind == "fixed" else ACTIVITY_CAP))
        if records > RECORDS_CAP:
            raise ValueError(f"config implies up to {records} records (posts plus each user's "
                             f"actions, {ACTIVITY_CAP} per lognormal draw), more than "
                             f"the cap of {RECORDS_CAP}")
        if self.sub_blocks is not None:
            for side, blocks, pages in zip(SIDES, self.sub_blocks, self.pages_per_side):
                if min(blocks) <= 0 or sum(blocks) != pages:
                    raise ValueError(
                        f"{side} sub_blocks {blocks} must be positive and sum to {pages}")
        start, end = parse_date(self.time_range[0]), parse_date(self.time_range[1])
        if start > end:
            raise ValueError(f"empty time range {start}..{end}")
        if start.year < 1000:  # the years canonical timestamps can hold
            raise ValueError(f"time range {start}..{end} is outside 1000-01-01..9999-12-31")


@dataclass(frozen=True)
class PlantedTruth:
    """Ground-truth side of every generated page and user."""

    page_side: dict[str, str]
    user_side: dict[str, str]


def _entity_rng(seed: int, entity: int) -> np.random.Generator:
    key = (seed & 0xFFFFFFFFFFFFFFFF) | (entity << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _split_proportional(total: int, weights: tuple[int, ...]) -> list[int]:
    """Largest-remainder split of ``total`` across ``weights``."""
    wsum = sum(weights) or 1  # all weights 0: a side with no pages, so no users
    raw = [total * w / wsum for w in weights]
    out = [int(math.floor(x)) for x in raw]
    rest = total - sum(out)
    order = sorted(range(len(weights)), key=lambda i: (-(raw[i] - out[i]), i))
    for i in order[:rest]:
        out[i] += 1
    return out


def generate(config: SynthConfig):
    """Generate (Dataset, PlantedTruth, page label map) from a config.

    Every page emits ``posts_per_page`` post records at uniform times in the
    range; every user draws an action count, then each action independently
    targets a uniform own-side page with probability 1 - p_out (restricted to
    the user's block when sub-blocks are configured) and a uniform page on the
    opposite side otherwise. Actions are comments with probability
    ``comment_fraction``, likes otherwise.
    """
    config.validate()
    t0 = day_start(parse_date(config.time_range[0]))
    t1 = day_end(parse_date(config.time_range[1]))

    pages_by_side = {side: [f"{side}_p{i:04d}" for i in range(n_pages)]
                     for side, n_pages in zip(SIDES, config.pages_per_side)}
    page_side = {page: side for side in SIDES for page in pages_by_side[side]}
    pages = list(page_side)  # a page's code here is its index, as publisher and as page
    user_side: dict[str, str] = {}
    # what actions target on a page: its posts, or the "_s0" post if it has none
    n_posts = max(config.posts_per_page, 1)
    posts = [f"{page}_s{j:05d}" if config.posts_per_page else f"{page}_s0"
             for page in pages for j in range(n_posts)]

    # page posts, one Philox stream per page
    stamps = [_entity_rng(config.seed, _PAGE_STREAM + i).integers(
        t0, t1 + 1, size=config.posts_per_page) for i in range(len(pages))]
    page = np.repeat(np.arange(len(pages)), config.posts_per_page)
    columns = [[page], [page], [np.arange(len(page))], [np.full(len(page), ACTION_CODES["post"])],
               [np.array(stamps, np.int64).reshape(-1)]]  # user, page, post, action, ts

    # per-user action streams, numbered in the order users are made
    first_page = (0, config.pages_per_side[0])
    for si, side in enumerate(SIDES):
        other = (first_page[1 - si], config.pages_per_side[1 - si])
        blocks = config.sub_blocks[si] if config.sub_blocks else (config.pages_per_side[si],)
        ends = list(accumulate(blocks))
        users_per_block = _split_proportional(config.users_per_side[si], blocks)
        own_of_user = [(first_page[si] + lo, hi - lo)
                       for lo, hi, n in zip([0] + ends, ends, users_per_block) for _ in range(n)]
        for u, own in enumerate(own_of_user):
            user = f"{side}_u{u:06d}"
            rng = _entity_rng(config.seed, _USER_STREAM + len(user_side))
            user_side[user] = side

            if config.actions_per_user[0] == "fixed":
                n_act = int(config.actions_per_user[1])
            else:
                _, mu, sigma = config.actions_per_user
                n_act = math.ceil(min(rng.lognormal(mu, sigma), ACTIVITY_CAP))
            if n_act == 0:
                continue

            # fixed draw order keeps the stream layout independent of outcomes
            cross = rng.random(n_act) < config.p_out
            page_u = rng.random(n_act)
            post_idx = rng.integers(0, n_posts, size=n_act)
            is_comment = rng.random(n_act) < config.comment_fraction
            ts = rng.integers(t0, t1 + 1, size=n_act)

            first, n_pool = np.where(cross, other[0], own[0]), np.where(cross, other[1], own[1])
            page = first + (page_u * n_pool).astype(np.int64)  # int(pu * len(pool))
            action = np.where(is_comment, ACTION_CODES["comment"], ACTION_CODES["like"])
            code = len(pages) + len(user_side) - 1  # users follow the pages in the user table
            for column, values in zip(columns, (np.full(n_act, code), page,
                                                page * n_posts + post_idx, action, ts)):
                column.append(values)

    tables = [pages + list(user_side), pages, posts]
    labels = dict(page_side)
    return (Dataset(coded=sort_codes(tables, [np.concatenate(c) for c in columns])),
            PlantedTruth(page_side, user_side), labels)
