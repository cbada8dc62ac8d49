"""Generate a planted two-sided interaction corpus and project it onto pages.

The generator plants a known side for every page and user; users mostly act
on their own side (p_out controls leakage). Projecting the user-page likes
bipartite graph yields a weighted page graph whose edge weights count common
users, which is where all the downstream structure lives.
"""

from echonet import build_bipartite, project
from echonet.synth import SynthConfig, generate

cfg = SynthConfig(users_per_side=(400, 400), pages_per_side=(12, 9),
                  p_out=0.03, actions_per_user=("fixed", 30), seed=42)
dataset, truth, labels = generate(cfg)
print(f"corpus: {len(dataset)} records, {len(dataset.pages)} pages, "
      f"{len(dataset.users)} users")

bip = build_bipartite(dataset, "like")
print(f"likes bipartite: {len(set(bip.user.tolist()))} active users, {bip.n_edges} edges")

g = project(bip)
print(f"projection: {g.n_nodes} pages, {g.n_edges} weighted edges, "
      f"total weight {g.total_weight}")

ranked = sorted(g.edges(), key=lambda e: -e[2])[:8]
print("\nheaviest co-engagement pairs (weight = common users):")
for i, j, w in ranked:
    a, b = g.nodes[i], g.nodes[j]
    same = "same side " if labels[a] == labels[b] else "CROSS SIDE"
    print(f"  {a} -- {b}  weight {w:4d}  [{same}]")

within = sum(w for i, j, w in g.edges() if labels[g.nodes[i]] == labels[g.nodes[j]])
print(f"\nwithin-side weight share: {within / g.total_weight:.3f} "
      f"(p_out = {cfg.p_out})")
