"""Difference-kernel (2-D convolution) operators on a rectangle.

Discretizes identity-plus-convolution operators with midpoint collocation,
verifies their displacement identities, computes the rho-function of the
inverse both directly and through the structured g/theta/psi
representation, and reconstructs inverse operators from rho exactly at
the discrete level.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DiffKernError,
    InvalidArgumentError,
    KernelEvaluationError,
    NearSingularGError,
    PoleProximityError,
    SingularOperatorError,
    UnsupportedEvaluationError,
)
from .grid import (
    GridSpec,
    KernelModel,
    KernelSamples,
    make_grid,
    normalize_kernel,
    sample_kernel,
)
from .kernels import (
    exp_kernel,
    gaussian_kernel,
    identity_kernel,
    poly_kernel,
    separable_kernel,
    with_profiles,
)
from .operators import (
    ConvOperator,
    PiPair,
    assemble_pi,
    discrete_generator,
    displacement_identity_residual,
    displacement_rank,
    k_op,
    m4_identity_residual,
    m_op,
)
from .inversion import (
    RhoEvaluator,
    build_rho_evaluator,
    build_rho_table,
    g_symmetry_residual,
    inverse_from_rho,
    rho_direct,
    rho_structured,
)

__version__ = "0.1.0"
