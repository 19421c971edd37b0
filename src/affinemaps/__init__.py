"""Affine maps of open-system quantum dynamics.

Construction, representation, validity domains, and experimental
reconstruction of the maps rho -> L(rho) + K induced on a subsystem by
unitary evolution of a larger finite-dimensional system.
"""

from .basis import (
    HermitianBasis,
    JointStateCoeffs,
    ProductBasis,
    TransferMatrix,
    build_basis,
    expand_state,
    marginal_coeffs,
    product_basis,
    reconstruct_state,
    transfer_matrix,
)
from .domains import (
    DomainQuery,
    DomainSample,
    InfeasibleError,
    image_of_ball,
    is_compatible_full,
    is_compatible_partial,
    is_in_positivity_domain,
    partial_feasibility,
    probe_state,
    sample_domain,
)
from .linalg import (
    DEFAULT_TOL,
    herm_eig,
    is_psd,
    kron,
    partial_trace,
    random_density,
    random_unitary,
    unitary_from_hermitian,
)
from .maps import (
    AffineMap,
    BMatrix,
    ChoiMatrix,
    apply_L,
    apply_affine,
    b_matrix,
    choi_and_cp,
    choi_matrix,
    extract_G,
    extract_K,
    extract_map,
    linear_extension,
    map_from_json,
    map_to_json,
    mean_value_correction,
    pm_decomposition,
    purity_delta,
    w_operators,
)
from .qubit2 import (
    IntHamParams,
    LorentzParams,
    Rotation,
    bloch_action,
    int_ham_b_matrix,
    int_ham_map,
    int_ham_unitary,
    kappa_bounds_check,
    kappa_search,
    kappa_vector,
    lorentz_map,
    lorentz_unitary,
    su2_from_rotation,
)
from .tomography import (
    MapReconstruction,
    ProbeSet,
    design_probes,
    evaluate_probes,
    map_oracle,
    reconstruct_map,
    validate_reconstruction,
)

__version__ = "0.1.0"
