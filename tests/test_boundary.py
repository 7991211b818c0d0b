"""Caller input is checked at the API boundary: every public function that
takes a Hermitian matrix rejects a slightly non-Hermitian one by naming the
symmetry residual."""

import numpy as np
import pytest

from petzlab.channels import (
    assert_positive,
    bit_flip_channel,
    random_channel,
    random_density,
    truncate_project,
)
from petzlab.entropy import (
    conditional_mutual_information,
    fidelity,
    fidelity_measurement,
    measured_relative_entropy_lb,
    relative_entropy,
    renyi_delta,
    support_violation,
    trace_distance,
    von_neumann_entropy,
)
from petzlab.linalg import (
    eig_hermitian,
    fun_on_support,
    imaginary_power,
    log_on_support,
    power_on_support,
    sqrtm_psd,
    support_projector,
)
from petzlab.recovery import (
    beta0_quadrature,
    count_eigenspaces,
    eigenspace_phase_unitary,
    petz,
    phase_rotated_petz,
    rotated_petz,
    rotated_petz_family,
    universal_recovery,
)
from petzlab.verify import (
    alpha_bound_check,
    concavity_remainder,
    dpi_remainder,
    finite_set_recovery_search,
    joint_convexity_remainder,
    qec_analyze,
    ssa_remainder,
    truncation_convergence,
)

RULE = beta0_quadrature(9)
RHO = random_density(3, 11)
SIGMA = random_density(3, 12)
CHAN = random_channel(3, 2, 2, 13)
STATE8 = random_density(8, 14)
STATE4 = random_density(4, 15)
GRID = np.linspace(-1.0, 1.0, 3)


def with_nan(h):
    """``h`` with a NaN on its first diagonal entry."""
    out = np.array(h, dtype=complex)
    out[0, 0] = np.nan
    return out


def skewed(h):
    """``h`` plus ``1e-6`` in one upper off-diagonal entry: relative
    symmetry residual about 1e-6, far above the 1e-10 tolerance."""
    out = np.array(h, dtype=complex)
    out[0, 1] += 1e-6
    return out


# (function, argument) -> call taking the argument's value
CASES = {
    "fun_on_support": lambda h: fun_on_support(h, np.sqrt),
    "power_on_support": lambda h: power_on_support(h, 0.5),
    "imaginary_power": lambda h: imaginary_power(h, 0.3),
    "log_on_support": log_on_support,
    "sqrtm_psd": sqrtm_psd,
    "support_projector": support_projector,
    "eig_hermitian": eig_hermitian,
    "von_neumann_entropy": von_neumann_entropy,
    "relative_entropy-rho": lambda h: relative_entropy(h, SIGMA),
    "relative_entropy-sigma": lambda h: relative_entropy(RHO, h),
    "fidelity-rho": lambda h: fidelity(h, SIGMA),
    "fidelity-sigma": lambda h: fidelity(RHO, h),
    "fidelity_measurement-rho": lambda h: fidelity_measurement(h, SIGMA),
    "fidelity_measurement-omega": lambda h: fidelity_measurement(RHO, h),
    "renyi_delta-rho": lambda h: renyi_delta(h, SIGMA, CHAN, 0.75),
    "renyi_delta-sigma": lambda h: renyi_delta(RHO, h, CHAN, 0.75),
    "petz": lambda h: petz(h, CHAN),
    "rotated_petz": lambda h: rotated_petz(h, CHAN, 0.3),
    "rotated_petz_family": lambda h: rotated_petz_family(h, CHAN, GRID),
    "universal_recovery": lambda h: universal_recovery(h, CHAN, RULE),
    "phase_rotated_petz": lambda h: phase_rotated_petz(h, CHAN, [0.1, 0.2], [0.1, 0.2, 0.3]),
    "count_eigenspaces": count_eigenspaces,
    "eigenspace_phase_unitary": lambda h: eigenspace_phase_unitary(h, [0.1, 0.2, 0.3]),
    "dpi_remainder-rho": lambda h: dpi_remainder(h, SIGMA, CHAN, RULE),
    "dpi_remainder-sigma": lambda h: dpi_remainder(RHO, h, CHAN, RULE),
    "alpha_bound_check-rho": lambda h: alpha_bound_check(h, SIGMA, CHAN, [0.75], RULE),
    "alpha_bound_check-sigma": lambda h: alpha_bound_check(RHO, h, CHAN, [0.75], RULE),
    "finite_set_recovery_search-states": lambda h: finite_set_recovery_search(
        [h], SIGMA, CHAN, GRID, iterations=1
    ),
    "finite_set_recovery_search-sigma": lambda h: finite_set_recovery_search(
        [RHO], h, CHAN, GRID, iterations=1
    ),
    "joint_convexity_remainder-rho": lambda h: joint_convexity_remainder(
        [(0.5, h, SIGMA), (0.5, RHO, SIGMA)], RULE
    ),
    "joint_convexity_remainder-sigma": lambda h: joint_convexity_remainder(
        [(0.5, RHO, h), (0.5, RHO, SIGMA)], RULE
    ),
    "truncation_convergence-rho": lambda h: truncation_convergence(h, SIGMA, CHAN, [1, 3], RULE),
    "truncation_convergence-sigma": lambda h: truncation_convergence(RHO, h, CHAN, [1, 3], RULE),
    "truncate_project": lambda h: truncate_project(h, 2),
    "assert_positive": assert_positive,
}

# functions whose matrix argument lives on a composite space
COMPOSITE_CASES = {
    "conditional_mutual_information": (
        lambda h: conditional_mutual_information(h, (2, 2, 2)), STATE8
    ),
    "ssa_remainder": (lambda h: ssa_remainder(h, (2, 2, 2), RULE), STATE8),
    "concavity_remainder": (
        lambda h: concavity_remainder([(0.5, h), (0.5, STATE4)], (2, 2), RULE), STATE4
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_non_hermitian_input_rejected(name):
    with pytest.raises(ValueError, match="residual"):
        CASES[name](skewed(RHO))


@pytest.mark.parametrize("name", sorted(COMPOSITE_CASES))
def test_non_hermitian_composite_input_rejected(name):
    call, state = COMPOSITE_CASES[name]
    with pytest.raises(ValueError, match="residual"):
        call(skewed(state))


def test_qec_analyze_rejects_non_hermitian_projector():
    # idempotent, so only the residual rejects it
    projector = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="residual"):
        qec_analyze(projector, bit_flip_channel(0.1), 2, RULE)


def test_unchecked_arguments_accept_non_hermitian_input():
    assert support_violation(skewed(RHO), SIGMA) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(skewed(RHO), SIGMA) == pytest.approx(trace_distance(RHO, SIGMA), abs=1e-6)
    assert trace_distance(RHO, skewed(SIGMA)) == pytest.approx(trace_distance(RHO, SIGMA), abs=1e-6)


# arguments checked for shape and finiteness only
POVM = [np.diag(np.eye(3)[i]).astype(complex) for i in range(3)]
UNCHECKED_CASES = {
    "trace_distance-rho": lambda h: trace_distance(h, SIGMA),
    "trace_distance-sigma": lambda h: trace_distance(RHO, h),
    "support_violation-rho": lambda h: support_violation(h, SIGMA),
    "measured_relative_entropy_lb-rho": lambda h: measured_relative_entropy_lb(h, SIGMA, POVM),
    "measured_relative_entropy_lb-omega": lambda h: measured_relative_entropy_lb(RHO, h, POVM),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(CASES) + sorted(UNCHECKED_CASES))
def test_non_finite_input_rejected(name):
    call = CASES.get(name) or UNCHECKED_CASES[name]
    with pytest.raises(ValueError, match="non-finite"):
        call(with_nan(RHO))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_rejected(bad):
    with pytest.raises(ValueError, match="ts must be finite"):
        rotated_petz(SIGMA, CHAN, bad)
    with pytest.raises(ValueError, match="ts must be finite"):
        rotated_petz_family(SIGMA, CHAN, [0.0, bad])
    with pytest.raises(ValueError, match="phases must be finite"):
        phase_rotated_petz(SIGMA, CHAN, [0.1, bad], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="phases must be finite"):
        phase_rotated_petz(SIGMA, CHAN, [0.1, 0.2], [bad, 0.2, 0.3])
    with pytest.raises(ValueError, match="phases must be finite"):
        eigenspace_phase_unitary(SIGMA, [0.1, bad, 0.3])
