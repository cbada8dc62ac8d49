"""Fixed reference work that measures how fast the host runs at the moment.

    python3 perfbench/calibrate.py

run.py times one run of this script before every program process it times,
and scales the run's reported times by REFERENCE_CAL_S / (median time of this
script in the run). On a shared host the speed of a core drifts by 20-40% over
minutes; this work drifts with it, so scaled times vary less between runs than
raw times do. It does the kinds of work the echonet CLI does (process start,
numpy and scipy imports, JSON decoding, dict and set loops, sparse products)
but imports nothing from the repository, so a change to the program leaves it
as it is. Changing this file changes every scaled time the benchmark reports.
"""

import json
import random

import numpy as np
from scipy import sparse

RECORDS = 20000
USERS = 3000
PAGES = 250

rng = random.Random(12345)
lines = [json.dumps({"user": f"u{rng.randrange(USERS)}", "page": f"p{rng.randrange(PAGES)}",
                     "action": rng.choice(("like", "comment", "post")),
                     "time": rng.randrange(10**9)}) for _ in range(RECORDS)]
liked: dict[str, set] = {}
for record in map(json.loads, lines):
    if record["action"] == "like":
        liked.setdefault(record["user"], set()).add(int(record["page"][1:]))
pairs: dict[tuple[int, int], int] = {}
for user_pages in liked.values():
    ps = sorted(user_pages)
    for i, a in enumerate(ps):
        for b in ps[i + 1:]:
            pairs[a, b] = pairs.get((a, b), 0) + 1
rows = [u for u, user_pages in enumerate(liked.values()) for _ in user_pages]
cols = [p for user_pages in liked.values() for p in user_pages]
incidence = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(liked), PAGES))
projection = (incidence.T @ incidence).toarray()
eigenvalues = np.linalg.eigvalsh(projection)
print(len(pairs), int(projection.sum()), round(float(eigenvalues[-1]), 3))
