"""Numerical laboratory for mixing, quantum Zeno and strong-damping limits
of truncated bosonic systems.

The attenuator's mixing, zeno and damping sweeps apply their maps
matrix-free; the gapped zeno channel, the binomial kind and the reference
engine of :mod:`zenolab.zeno` work on dense superoperators."""

from .linalg import (
    adjoint,
    devectorize,
    kron,
    matrix_exp,
    trace_norm,
    vectorize,
)
from .fock import (
    CoherentVector,
    annihilation,
    coherent_vector,
    number_operator,
    particle_number,
    trace_distance,
    vacuum_state,
)
from .channels import (
    Dephasing,
    HamiltonianCommutator,
    KrausChannel,
    Superoperator,
    apply,
    attenuator_generator,
    attenuator_kraus,
    attenuator_mixing_bound,
    choi_matrix,
    identity_superoperator,
    is_completely_positive,
    to_superoperator,
    transpose_superoperator,
    vacuum_projection_superop,
)
from .binomial import (
    binomial_product,
    expansion_term_enumerated,
    expansion_terms,
    expansion_terms_applied,
    restricted_count,
    restricted_count_enumerated,
    restricted_difference_bound_check,
    simplex_count,
    simplex_count_enumerated,
    simplex_ratio_bound_check,
    workhorse_limit_check,
)
from .zeno import (
    FitResult,
    ZenoConfig,
    constant_big_n,
    damped_evolution,
    effective_dynamics,
    fit_log_envelope,
    fit_rate,
    theoretical_zeno_bound_ssup,
    zeno_product,
    zeno_product_iterated,
)

__version__ = "0.1.0"
