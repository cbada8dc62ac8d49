import hashlib
import math
import tracemalloc
from dataclasses import replace
from datetime import date, datetime, time, timezone

import pytest

from echonet.graphs import build_bipartite, connected_components, project
from echonet.ingest import serialize_records
from echonet.metrics import user_polarization
from echonet.synth import RECORDS_CAP, SynthConfig, generate


def small_config(**over):
    base = dict(users_per_side=(40, 40), pages_per_side=(5, 4), p_out=0.1,
                actions_per_user=("fixed", 20), posts_per_page=5,
                time_range=(date(2013, 1, 1), date(2014, 12, 31)), seed=3)
    base.update(over)
    return SynthConfig(**base)


def test_p_out_zero_forces_pure_sides():
    d, truth, labels = generate(small_config(p_out=0.0))
    for r in d.records:
        if r.action != "post":
            assert truth.user_side[r.user] == truth.page_side[r.page]
    profiles = user_polarization(d, labels, min_actions=1)
    assert profiles
    assert all(p.rho in (-1.0, 1.0) for p in profiles)


def test_determinism_byte_identical():
    a = serialize_records(generate(small_config())[0])
    b = serialize_records(generate(small_config())[0])
    assert a == b


def test_different_seeds_differ():
    a = serialize_records(generate(small_config(seed=1))[0])
    b = serialize_records(generate(small_config(seed=2))[0])
    assert a != b


def test_cross_fraction_within_three_sigma():
    p_out = 0.05
    cfg = SynthConfig(users_per_side=(5000, 5000), pages_per_side=(6, 6),
                      p_out=p_out, actions_per_user=("fixed", 12),
                      posts_per_page=3, seed=13)
    d, truth, _labels = generate(cfg)
    n = cross = 0
    for r in d.records:
        if r.action == "post":
            continue
        n += 1
        cross += truth.user_side[r.user] != truth.page_side[r.page]
    sigma = math.sqrt(p_out * (1 - p_out) / n)
    assert abs(cross / n - p_out) < 3 * sigma


def test_exact_record_count():
    cfg = small_config()
    d, _, _ = generate(cfg)
    posts = sum(cfg.pages_per_side) * cfg.posts_per_page
    actions = sum(cfg.users_per_side) * cfg.actions_per_user[1]
    assert len(d) == posts + actions


def test_generate_holds_narrow_columns_while_it_draws():
    """Peak memory of generate, above the Dataset it returns, is each user's
    arrays (int32 codes, an int8 action and an int64 ts: 21 bytes a record)
    and their concatenation (21 more); int64 codes and actions take 40 each."""
    generate(small_config())
    cfg = SynthConfig(users_per_side=(400, 400), actions_per_user=("fixed", 60), seed=7)
    tracemalloc.start()
    try:
        d = generate(cfg)[0]
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(d) == 60_150
    assert peak - current <= 64 * len(d)


def test_timestamps_within_range():
    cfg = small_config()
    d, _, _ = generate(cfg)
    lo, hi = (datetime.combine(day, t, timezone.utc).timestamp()
              for day, t in zip(cfg.time_range, (time(0, 0, 0), time(23, 59, 59))))
    assert all(lo <= r.ts <= hi for r in d.records)


def test_truth_covers_everything():
    d, truth, labels = generate(small_config())
    assert set(truth.page_side) == d.pages == set(labels)
    assert set(truth.user_side) >= d.users


def test_pure_sides_project_to_single_components():
    d, truth, _ = generate(small_config(p_out=0.0))
    g = project(build_bipartite(d, "like"))
    components = {frozenset(c) for c in connected_components(g).communities()}
    assert components == {frozenset(p for p, s in truth.page_side.items() if s == side)
                          for side in ("pro", "anti")}


def test_zero_pages_with_users_rejected():
    with pytest.raises(ValueError):
        generate(small_config(pages_per_side=(5, 0)))


def test_zero_users_on_a_side_is_fine():
    d, truth, _ = generate(small_config(users_per_side=(40, 0)))
    assert all(s == "pro" for s in truth.user_side.values())


def test_bad_p_out_rejected():
    with pytest.raises(ValueError):
        generate(small_config(p_out=1.5))


def test_sub_blocks_must_sum_to_pages():
    with pytest.raises(ValueError):
        generate(small_config(sub_blocks=((3, 3), (4,))))


def test_implied_record_count_is_capped_before_generation():
    # lognormal users count ACTIVITY_CAP (5000) each: 20,000 of them are exactly the cap
    at_cap = small_config(users_per_side=(10_000, 10_000),
                          actions_per_user=("lognormal", 2.0, 1.0), posts_per_page=0)
    at_cap.validate()
    with pytest.raises(ValueError, match=f"up to {RECORDS_CAP + 9} records"):
        replace(at_cap, posts_per_page=1).validate()


def test_sub_blocks_are_user_disjoint():
    cfg = small_config(pages_per_side=(15, 15), p_out=0.0,
                       sub_blocks=((6, 5, 4), (15,)))
    d, truth, _ = generate(cfg)
    pro_pages = [p for p, s in truth.page_side.items() if s == "pro"]
    blocks = {p: (0 if p < "pro_p0006" else 1 if p < "pro_p0011" else 2)
              for p in sorted(pro_pages)}
    touched: dict[str, set[int]] = {}
    for r in d.records:
        if r.action == "post" or truth.page_side[r.page] != "pro":
            continue
        touched.setdefault(r.user, set()).add(blocks[r.page])
    assert touched
    assert all(len(bs) == 1 for bs in touched.values())


def test_lognormal_activity_capped():
    cfg = small_config(actions_per_user=("lognormal", 2.0, 1.0), seed=21)
    d, _, _ = generate(cfg)
    per_user: dict[str, int] = {}
    for r in d.records:
        if r.action != "post":
            per_user[r.user] = per_user.get(r.user, 0) + 1
    assert per_user
    assert all(1 <= n <= 5000 for n in per_user.values())


# --- pinned outputs of the less common configurations -----------------------

def synth_digest(cfg) -> str:
    """SHA-256 of the canonical records, both truth maps and the labels, in order."""
    d, truth, labels = generate(cfg)
    h = hashlib.sha256(serialize_records(d).encode())
    for mapping in (truth.page_side, truth.user_side, labels):
        h.update(repr(mapping).encode())
    return h.hexdigest()


SYNTH_CASES = {
    "no_posts": small_config(posts_per_page=0),
    "no_posts_sub_blocks": small_config(posts_per_page=0, pages_per_side=(15, 4),
                                        sub_blocks=((6, 5, 4), (4,))),
    "one_page_side": small_config(users_per_side=(40, 0), pages_per_side=(5, 0), p_out=0.0),
    "lognormal": small_config(actions_per_user=("lognormal", 2.0, 1.0), seed=21),
}

# A digest may only change with a CHANGES.md entry that explains the behaviour change.
SYNTH_PINNED = {
    "lognormal": "6e6565bf01224a3b00c0f411498477905e8b1eee1f0e40b828a1bf0fe092d4a1",
    "no_posts": "dcb251a2ee43ba674691e173a044e3832a4cb810d05a31c07fc4845285dfc472",
    "no_posts_sub_blocks": "fe1a2b9f7ad421ac38755587c473cfecd09bc997bf66204e7b20d20f50cd7b8b",
    "one_page_side": "47daa00a7f1d7147ce45a40e281fd18032c2582d610df18afb1f76b16992e847",
}


@pytest.mark.parametrize("name", sorted(SYNTH_CASES))
def test_synth_output_is_pinned(name):
    assert synth_digest(SYNTH_CASES[name]) == SYNTH_PINNED[name]


def test_one_block_per_side_is_no_sub_blocks():
    cfg = small_config(pages_per_side=(15, 4))
    assert synth_digest(replace(cfg, sub_blocks=((15,), (4,)))) == synth_digest(cfg)
