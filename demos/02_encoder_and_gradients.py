"""The small encoder and its analytic gradients.

Forward produces tapped middle features plus a unit-norm embedding; backward
returns exact parameter gradients, which we verify here against central
finite differences for every loss term, composed through the encoder.
"""

import numpy as np

from ike_lab import IdentityMemory, forward_batch, grad_check, init_encoder, unit_rows
from ike_lab.checks import GRAD_TERMS, make_loss_closure
from ike_lab.trainer import Hyperparams

rng = np.random.default_rng(7)

params = init_encoder([6, 8, 8, 6], rng)
out = forward_batch(params, rng.normal(size=(1, 6)))
embedding = out.embeddings[0]
print(f"embedding dim {embedding.shape[0]}, norm {np.linalg.norm(embedding):.15f}")
print(f"middle taps: {out.middles[0].shape[1]} and {out.middles[1].shape[1]} units")

# A training-like batch: current labels, some matched historical labels.
hist_params = init_encoder([6, 8, 8, 6], rng)
X = rng.normal(size=(5, 6))
y = rng.integers(7, size=5)
y_hist = np.array([0, -1, 3, -1, 1])
cur_mem = IdentityMemory(unit_rows(rng, 7, 6))
hist_mem = IdentityMemory(unit_rows(rng, 4, 6))
hyper = Hyperparams()

print("\nmax relative error, analytic vs central finite differences (step 1e-5):")
for term in GRAD_TERMS:
    closure = make_loss_closure(term, hist_params, X, y, y_hist, cur_mem, hist_mem, hyper)
    err = grad_check(params, closure)
    print(f"  {term:<8} {err:.3e}")
