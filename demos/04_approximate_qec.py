"""Approximate quantum error correction via distinguishability gaps.

A codespace is (approximately) protected from a channel exactly when the
relative entropy between any code state and the codespace projector is
(approximately) preserved by the noise.  The forward direction bounds the
recovered fidelity by the gap; the converse bounds the gap by the
fidelity through entropy continuity.
"""

import numpy as np

import petzlab as pl

# --- a perfectly correctable code ----------------------------------------
# the three-qubit repetition code corrects any single bit flip
pi = pl.three_qubit_bit_flip_code()
noise = pl.single_bit_flip_channel(0.1)
rep = pl.qec_analyze(pi, noise, samples=12, seed=1)
print("three-qubit bit-flip code, single-flip noise (p = 0.1):")
print(f"  sampled max gap       : {rep.sampled_max_gap:.2e}")
print(f"  min recovered fidelity: {rep.min_recovered_fidelity:.12f}")
print(f"  forward bound 1 - g/2 : {rep.forward_bound:.12f}  (holds: {rep.forward_ok})")
print(f"  converse bound        : {rep.converse_bound:.6f}  (holds: {rep.converse_ok})")

# --- an uncorrectable situation -------------------------------------------
print("\ntwo-dimensional codespace under depolarizing noise (lambda = 0.2):")
gen = np.random.default_rng(11)
basis = np.linalg.eigh(pl.random_density(4, gen))[1]
pi2 = basis[:, :2] @ basis[:, :2].conj().T
rep = pl.qec_analyze(pi2, pl.depolarizing_channel(4, 0.2), samples=12, seed=2)
print(f"  sampled max gap       : {rep.sampled_max_gap:.6f}")
print(f"  min recovered fidelity: {rep.min_recovered_fidelity:.6f}")
print(f"  forward bound 1 - g/2 : {rep.forward_bound:.6f}  (holds: {rep.forward_ok})")
print(f"  converse bound        : {rep.converse_bound:.6f}  (holds: {rep.converse_ok})")

# --- unitary noise is always reversible ------------------------------------
rep = pl.qec_analyze(pi, pl.unitary_channel(pl.random_unitary(8, 3)), 8, seed=3)
print("\nunitary 'noise' (trivially correctable):")
print(f"  max gap {rep.sampled_max_gap:.2e}, min fidelity {rep.min_recovered_fidelity:.12f}")
