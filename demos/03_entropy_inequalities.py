"""Recovery remainders for three classical entropy inequalities.

Strong subadditivity, concavity of the conditional entropy and joint
convexity of the relative entropy all follow from data processing; each
inherits a remainder term built from one recovery map that depends only
on the averaged or marginal data.
"""

import numpy as np

import petzlab as pl
from petzlab.verify import concavity_remainder, joint_convexity_remainder

gen = np.random.default_rng(5)

# --- strong subadditivity ------------------------------------------------
print("strong subadditivity: I(A:C|B) >= -2 log F(rho_ABC, R_B->BC(rho_AB))")

ghz = pl.ghz_state(3)
rep = pl.ssa_remainder(ghz, (2, 2, 2))
print(f"  GHZ:     I = {rep.cmi:.6f} (ln 2 = {np.log(2):.6f}), "
      f"F = {rep.recovered_fidelity:.6f}, slack = {rep.slack:.2e}")

markov = pl.tensor_product(pl.random_density(4, gen), pl.random_density(2, gen))
rep = pl.ssa_remainder(markov, (2, 2, 2))
print(f"  product: I = {rep.cmi:.2e}, F = {rep.recovered_fidelity:.10f} "
      "(Markov states are perfectly rebuilt)")

for i in range(3):
    rep = pl.ssa_remainder(pl.random_density(8, gen), (2, 2, 2))
    print(f"  random:  I = {rep.cmi:.6f}, rhs = {rep.rhs:.6f}, slack = {rep.slack:.6f}")

# --- concavity of the conditional entropy --------------------------------
print("\nconcavity of H(A|B): remainder from rebuilding members off the average")
weights = gen.dirichlet(np.ones(3))
members = [(weights[x], pl.random_density(4, gen)) for x in range(3)]
rep = concavity_remainder(members, (2, 2))
print(f"  ensemble of 3: lhs = {rep.lhs:.6f}, rhs = {rep.rhs:.6f}, slack = {rep.slack:.6f}")
print(f"  member fidelities: {np.round(rep.member_fidelities, 6)}")

# --- joint convexity of the relative entropy ------------------------------
print("\njoint convexity of D: remainder from re-attaching the classical label")
weights = gen.dirichlet(np.ones(2))
members = [
    (weights[x], pl.random_density(2, gen), pl.random_density(2, gen))
    for x in range(2)
]
rep = joint_convexity_remainder(members)
print(f"  ensemble of 2: lhs = {rep.lhs:.6f}, rhs = {rep.rhs:.6f}, slack = {rep.slack:.6f}")
