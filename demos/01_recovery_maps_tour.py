"""Tour of the recovery-map constructions.

Builds the Petz map, its rotated variants and the exact universal map for
a random channel, compares the universal map with a quadrature rule's
mixture of rotated maps, then checks the structural properties they are
supposed to have: perfect recovery of the reference state, reduction to
the identity for a trivial channel, and stability under tensoring with an
untouched reference system.
"""

import numpy as np

import petzlab as pl

rng = np.random.default_rng(1)
rule = pl.beta0_quadrature(129)

# A reference state sigma and a channel to be (approximately) reversed.
sigma = pl.random_density(3, rng)
channel = pl.random_channel(3, 2, 2, rng)
out_sigma = channel.apply(sigma)

print("reference state sigma, dim 3; channel 3 -> 2 with env dim 2")

# --- Petz map: perfect recovery of sigma -------------------------------
petz_map = pl.petz(sigma, channel)
err = 2 * pl.trace_distance(petz_map.apply(out_sigma), sigma)
print(f"Petz map recovers sigma:          trace-norm error {err:.2e}")

# --- rotated Petz maps also fix sigma, for every rotation parameter ----
for t in (-2.0, 0.5, 3.0):
    rot = pl.rotated_petz(sigma, channel, t)
    err = 2 * pl.trace_distance(rot.apply(out_sigma), sigma)
    print(f"rotated Petz (t = {t:+.1f}) recovers: trace-norm error {err:.2e}")

# --- the universal map mixes rotations with the cosh weight ------------
universal = pl.universal_recovery(sigma, channel)
err = 2 * pl.trace_distance(universal.apply(out_sigma), sigma)
print(f"universal map ({len(universal.kraus)} Kraus operators): trace-norm error {err:.2e}")
mixture = pl.convex_mixture(pl.rotated_petz_family(sigma, channel, rule.nodes / 2), rule.weights)
dist = pl.choi_distance(universal, mixture)
print(f"{len(rule)}-node mixture ({len(mixture.kraus)} operators): Choi distance {dist:.2e}")
print(f"mixture weights sum to {mixture.weights.sum():.15f}")

# --- normalization: a trivial channel needs no recovery ----------------
identity_rec = pl.universal_recovery(sigma, pl.identity_channel(3))
dist = pl.choi_distance(identity_rec, pl.identity_channel(3))
print(f"identity channel -> identity map:  Choi distance {dist:.2e}")

# --- stabilization: an untouched reference system stays untouched ------
tau = pl.random_density(2, rng)
big = pl.universal_recovery(pl.tensor_product(sigma, tau), channel.tensor(pl.identity_channel(2)))
lifted = pl.Channel(
    [pl.tensor_product(k, np.eye(2)) for k in universal.kraus], mode="tni"
)
dist = pl.choi_distance(big, lifted)
print(f"stabilization:                     Choi distance {dist:.2e}")

# --- every map in the family is CP and trace non-increasing ------------
choi_min = float(np.min(np.linalg.eigvalsh(universal.choi())))
print(f"universal Choi minimum eigenvalue: {choi_min:.2e} (CP up to rounding)")
