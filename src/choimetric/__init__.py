"""choimetric: distances between completely positive maps on
finite-dimensional C*-algebras via Choi-Jamiolkowski functionals and
spectral-triple seminorms."""

from .algebra import (
    ConcreteAlgebra,
    LinearFunctional,
    TraceFunctional,
    as_trace,
    build_algebra,
    density_from_functional,
    diagonal_algebra,
    matrix_algebra,
    opposite_algebra,
    selfadjoint_basis,
    standard_matrix_trace,
    swap_functional,
    tensor_algebra,
    tensor_functional,
    tensor_trace,
)
from .channels import (
    ChannelMap,
    amplify,
    channel_from_omega,
    choi_matrix,
    compose,
    cp_oracle_npositivity,
    identity_channel,
    is_completely_positive,
    is_trace_channel,
    is_trace_preserving,
    is_unital,
    omega_tau,
    tensor_channel,
    trace_adjoint,
)
from .geometry import (
    CommutatorSeminorm,
    KasparovSeminorm,
    Seminorm,
    SpectralTriple,
    kasparov_product,
    left_tensor_seminorm,
    right_tensor_seminorm,
    seminorm_domination_check,
)
from .groups import (
    Cocycle,
    FiniteGroup,
    GroupAlgebra,
    LengthFunction,
    PositiveDefiniteFunction,
    canonical_trace,
    cyclic_group,
    dihedral_group,
    direct_product,
    klein_twist_cocycle,
    multiplier_channel,
    multiplier_contraction_check,
    symmetric_group_3,
    trivial_cocycle,
    twisted_group_algebra,
    word_length,
)
from .metrics import (
    DLResult,
    MKResult,
    WassersteinResult,
    delta_distance,
    dl_distance,
    dl_stabilized,
    mk_between,
    prepare_ball,
    wasserstein_dual,
)

__version__ = "0.1.0"
