"""Bidirectional correspondence between finite-dimensional Markovian quantum
master equations (H, a) and affine coherence-vector ODEs v' = G v + c, with a
complete-positivity decision, an ODE solver, and random-ensemble experiments.
"""
from .basis import (
    NiceBasis,
    StructureConstants,
    ValidationReport,
    coherence_vector,
    coordinatize,
    decoordinatize,
    generate_gell_mann,
    structure_constants,
    verify_nice_basis,
)
from .cp import (
    CPReport,
    check_lindblad,
    cp_quadratic_form,
    sample_extreme_ray,
)
from .forward import (
    DiagonalDissipator,
    MasterEqParams,
    OdePair,
    apply_dissipator,
    apply_liouvillian,
    c_from_a,
    diagonalize_dissipator,
    forward_map,
    liouvillian_matrix,
    q_from_h,
    r_from_a,
)
from .inverse import (
    Tensor4,
    a_from_gc,
    decompose_g,
    h_from_g,
    inverse_map,
    phi,
    r_image_check,
)
from .odesolve import OdeSolution, evolve_density, propagator, solve
from .rarity import (
    CovarianceReport,
    RarityEstimate,
    estimate_p_gue,
    estimate_p_lindblad_ginoe,
    ginoe_induced_a_covariance,
    gue_p_analytic,
    wilson_interval,
)
from .superop import (
    FAFRep,
    SuperopMatrix,
    SuperopTensor,
    adjoint_faf,
    adjoint_tensor,
    apply_faf,
    apply_tensor,
    faf_from_tensor,
    is_hermiticity_preserving,
    is_unital,
    superop_matrix,
    tensor_from_faf,
    tensor_from_map,
    tensor_from_matrix,
)

__version__ = "0.1.0"
