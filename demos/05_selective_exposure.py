"""Selective exposure: page variety against engagement, with smooth bands.

For each community, users get a standardized lifetime (time between first and
last like) and activity (like count); the response is the maximum number of
distinct pages they like within one calendar window. A local regression with
95% bands summarizes the trend per community.
"""

import numpy as np

from echonet import (
    community_page_stats,
    loess_fit,
    pages_per_window,
    user_engagement,
)
from echonet.synth import SynthConfig, generate

cfg = SynthConfig(users_per_side=(600, 600), pages_per_side=(16, 12),
                  p_out=0.02, actions_per_user=("lognormal", 2.5, 0.8),
                  seed=14)
dataset, _truth, labels = generate(cfg)

stats = community_page_stats(dataset, labels)
for side, (mean, sd) in stats.items():
    print(f"{side}: users touch M = {mean:.2f} pages (SD = {sd:.2f})")

engagement = user_engagement(dataset, labels)
by_side = {}
for e in engagement:
    by_side.setdefault(e.community, []).append(e)

print("\nmonthly page variety vs standardized activity (loess, 95% band):")
grid = np.linspace(0.0, 1.0, 6)
pages = pages_per_window(dataset, "month")
for side in sorted(by_side):
    members = by_side[side]
    x = np.array([e.activity_std for e in members])
    y = np.array([pages[e.user] for e in members], dtype=float)
    fit, lo, hi = loess_fit(x, y, span=0.75, eval_points=grid)
    print(f"  {side}:")
    for g, f, l, h in zip(grid, fit, lo, hi):
        print(f"    activity {g:.1f}: {f:5.2f} pages  [{l:5.2f}, {h:5.2f}]")
