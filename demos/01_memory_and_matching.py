"""Identity memories and cross-camera matching, on toy vectors.

Two cameras observe overlapping sets of people. Each camera summarizes its
people as unit embeddings (one memory row per identity); mutual-argmax
matching then discovers which identities the cameras share, and the merge
rule blends matched rows while appending the genuinely new ones.
"""

import numpy as np

from ike_lab import (
    IdentityMemory,
    association_precision,
    cycle_match,
    iku_merge,
    momentum_update,
)

rng = np.random.default_rng(0)


def unit(v):
    return v / np.linalg.norm(v)


# Ground truth: five people, as unit vectors.
people = {name: unit(rng.normal(size=8)) for name in "ABCDE"}

# Camera 1 saw A, B, C. Camera 2 sees everyone, D and E for the first time
# (with a little viewpoint noise). Neither camera knows the letters; each
# labels its own people locally 0,1,2,...
hist = IdentityMemory(
    np.stack([unit(people[n] + 0.05 * rng.normal(size=8)) for n in "ABC"]),
    provenance=[ord(n) for n in "ABC"],
)
cur = IdentityMemory(
    np.stack([unit(people[n] + 0.05 * rng.normal(size=8)) for n in "ABCDE"]),
    provenance=[ord(n) for n in "ABCDE"],
)

print("similarity of current identity 1 (person B) to history rows (A, B, C):")
print("  ", np.round(hist.rows @ cur.rows[1], 3))

assoc = cycle_match(cur, hist)
print("\nmutual-argmax matches (current index -> historical index, -1 = new):")
print("  ", assoc.tolist())

prec = association_precision(assoc, cur.provenance, hist.provenance)
print(f"association precision: {prec.correct}/{prec.discovered} = {prec.precision}")

# A fresh observation of person B nudges its memory row (90% new feature).
f_new = unit(people["B"] + 0.05 * rng.normal(size=8))
before = (cur.rows @ f_new)[1]
momentum_update(cur, np.array([1]), f_new[None], omega=0.1)
after = (cur.rows @ f_new)[1]
print(f"\nmomentum update moved row B toward the new feature: {before:.4f} -> {after:.4f}")

merged = iku_merge(hist, cur, assoc, lam=0.25)
print(f"\nmerged memory: {len(hist)} historical + {len(cur)} current "
      f"-> {len(merged)} rows (matched rows blended, new ones appended)")
print("merged provenance:", [chr(g) for g in merged.provenance])
