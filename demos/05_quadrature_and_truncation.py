"""The mixing density, its quadrature, and finite-rank truncation trends.

The universal map averages rotated recoveries against the density
beta0(t) = (pi/2) / (cosh(pi t) + 1), which is peaked at t = 0 (the plain
Petz map) and has exponential tails.  The discretization keeps the weight
mass exactly one so the mixture stays a channel on the right support.
"""

import numpy as np

import petzlab as pl
from petzlab.recovery import beta0_density, beta_theta_density
from petzlab.verify import truncation_convergence

# --- the density -----------------------------------------------------------
print("beta0 density: peaked at zero, exponential tails")
for t in (0.0, 0.5, 1.0, 2.0, 4.0):
    print(f"  beta0({t:3.1f}) = {beta0_density(t):.9f}")
print(f"  beta0(0) = pi/4 = {np.pi/4:.9f}")
print(f"  theta -> 0 limit: beta_0.001(0.7) = {beta_theta_density(0.7, 0.001):.9f} "
      f"vs beta0(0.7) = {beta0_density(0.7):.9f}")

# --- quadrature ------------------------------------------------------------
print("\nquadrature rules (weights renormalized to exactly unit mass):")
for n in (33, 65, 129):
    rule = pl.beta0_quadrature(n)
    m2 = rule.integrate(rule.nodes**2)
    print(f"  n = {n:3d}: weight sum - 1 = {rule.weights.sum()-1:+.1e}, "
          f"second moment = {m2:.12f} (exact 1/3)")

# nodes symmetric around the Petz point t = 0
rule = pl.beta0_quadrature(65)
print(f"  first moment at n = 65: {rule.integrate(rule.nodes):+.1e}")

# convergence of the remainder bound under node doubling
gen = np.random.default_rng(2)
sigma = pl.random_density(3, gen)
rho = pl.random_density(3, gen)
channel = pl.random_channel(3, 2, 2, gen)
slacks = {
    n: pl.dpi_remainder(rho, sigma, channel, pl.beta0_quadrature(n)).slack_mixture
    for n in (65, 129, 257)
}
print(f"  slack at 65/129/257 nodes: {slacks[65]:.12f} / "
      f"{slacks[129]:.12f} / {slacks[257]:.12f}")

# --- finite-rank truncation --------------------------------------------------
# compressing both operators with one projector family can only lower the
# relative entropy, and the compressed value climbs back as the rank grows;
# intermediate ranks give subnormalized pairs, so their slack column is a
# convergence diagnostic rather than a bound (it approaches the true slack)
print("\ntruncation study on a dim-12 instance (common projector from sigma):")
rho = pl.random_density(12, gen)
sigma = pl.random_density(12, gen)
channel = pl.random_channel(12, 4, 3, gen)
rep = truncation_convergence(rho, sigma, channel, [2, 4, 6, 8, 10, 12])
print(f"  D(rho||sigma) full: {rep.full_relative_entropy:.9f}")
for k, d, slack in zip(rep.ks, rep.truncated_relative_entropies, rep.slacks):
    print(f"  rank {k:2d}: D_k = {d:.9f}   remainder slack = {slack:.6f}")
print(f"  monotone below full value: {rep.monotone_ok}; "
      f"final gap {rep.final_delta:.2e}")
