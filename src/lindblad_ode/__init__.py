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
from .maps import (
    CPReport,
    DiagonalDissipator,
    FAFRep,
    MasterEqParams,
    OdePair,
    SuperopMatrix,
    SuperopTensor,
    Tensor4,
    a_from_gc,
    adjoint,
    apply,
    apply_dissipator,
    c_from_a,
    check_lindblad,
    decompose_g,
    diagonalize_dissipator,
    forward_map,
    h_from_g,
    inverse_map,
    liouvillian_matrix,
    phi,
    q_from_h,
    r_from_a,
    r_image_check,
    sample_extreme_ray,
    superop_matrix,
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

__version__ = "0.1.0"
