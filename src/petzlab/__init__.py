"""petzlab: universal recovery maps and remainder-term entropy inequalities.

A dense-numerics toolkit for building the Petz, rotated-Petz and
universal (mixture) recovery maps of a quantum channel, and for checking
the recovery-remainder strengthenings of the data processing inequality,
strong subadditivity, concavity of conditional entropy, joint convexity
of relative entropy, and approximate quantum error correction bounds.
"""

from .channels import (
    Channel,
    assert_positive,
    bit_flip_channel,
    channels_close,
    choi_distance,
    dephasing_channel,
    depolarizing_channel,
    ghz_state,
    identity_channel,
    maximally_mixed,
    partial_trace_channel,
    pure_state,
    random_channel,
    random_density,
    random_unitary,
    single_bit_flip_channel,
    three_qubit_bit_flip_code,
    truncate_project,
    unitary_channel,
)
from .entropy import (
    binary_entropy,
    conditional_mutual_information,
    fannes_audenaert_bound,
    fidelity,
    fidelity_measurement,
    measured_relative_entropy_lb,
    nats_to_bits,
    relative_entropy,
    renyi_delta,
    trace_distance,
    von_neumann_entropy,
)
from .linalg import (
    eig_hermitian,
    imaginary_power,
    log_on_support,
    partial_trace,
    power_on_support,
    schatten_norm,
    support_projector,
    tensor_product,
)
from .recovery import (
    QuadratureRule,
    RecoveryMap,
    beta0_density,
    beta0_quadrature,
    beta_quadrature,
    beta_theta_density,
    convex_mixture,
    petz,
    phase_rotated_petz,
    rotated_petz,
    rotated_petz_family,
    universal_recovery,
)
from .verify import (
    DpiReport,
    QecReport,
    SweepConfig,
    alpha_bound_check,
    concavity_remainder,
    dpi_remainder,
    finite_set_recovery_search,
    joint_convexity_remainder,
    qec_analyze,
    ssa_remainder,
    sweep,
    truncation_convergence,
)

__version__ = "0.1.0"
