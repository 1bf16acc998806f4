"""Pseudo-Hermitian toolkit for the complex double-delta scattering model.

Scattering eigenfunctions and overlap matrices, first-order metric
kernels, the equivalent Hermitian Hamiltonian with Gaussian-packet energy
expectation values, pseudo-Hermitian observables, a finite-dimensional
perturbative metric engine, and coupling-plane maps of spectral
singularities and bound states.
"""

from .errors import (
    BranchError,
    ContourError,
    DdscatterError,
    DegeneracyError,
    DomainError,
    InconsistencyError,
    NoConvergenceError,
    NonQuasiHermitianError,
    QuadratureError,
    SingularPointError,
    UnsupportedCouplingError,
)
from .hermitianize import (
    EnergyBreakdown,
    GaussianPacket,
    apply_h,
    energy_gaussian,
    energy_quadrature,
    h_delta_coefficients,
    h_kernel,
    p_kernel,
    u_fn,
    v_fn,
    w_fn,
    x_kernel,
)
from .kernels import (
    DistributionalKernel,
    KernelPrimitive,
    KernelTerm,
    hermitian_completion,
    kernel_eval,
    kernel_pair,
    regular_part_grid,
)
from .metric import (
    AppendixAParams,
    eta1_appendixA,
    eta1_bounded,
    inm,
    inm_quadrature,
    metric_de_residual,
    spectral_metric_estimate,
    u_inverse_sqrt_route,
)
from .model import (
    Couplings,
    PhysicalContext,
    ScatteringBranch,
    dimensionalize,
    k_matrix,
    m22,
    m22_with_derivative,
    nondimensionalize,
    psi_conj_eval,
    psi_eval,
    smeared_overlap_check,
    transfer_matrix,
)
from .numerics import (
    ComplexRect,
    QuadratureSpec,
    count_zeros,
    integrate_1d,
    integrate_panels,
    matrix_inv_sqrt,
    refine_root,
)
from .perturbation import (
    PerturbedOperator,
    QExpansion,
    conjugated_h,
    equivalent_h,
    eta_from_q,
    map_observable,
    solve_q1,
    solve_q2,
)
from .spectrum import (
    ScanCell,
    ScanMode,
    bound_state_roots,
    count_bound_states,
    couplings_with_zeros,
    default_bound_rect,
    find_spectral_singularities,
    scan_region,
)

__version__ = "0.1.0"
