"""qkl: numerical and exact verification engine for the bilinear generating
functions of hypergeometric and basic hypergeometric orthogonal polynomials.

The package evaluates the Meixner-Pollaczek, continuous Hahn, Hahn, Jacobi,
Askey-Wilson, and Al-Salam-Chihara families, their Poisson kernels in both
bilinear-sum and closed (2F1 / 8W7) form, and machine-verifies every identity
relating them, numerically to configurable tolerance or exactly over the
Gaussian rationals.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DegreeError,
    DenominatorPoleError,
    DivergenceError,
    DomainError,
    HypothesisError,
    ParamError,
    PoleError,
    PrecisionError,
    QKLError,
    RangeError,
    RealityError,
    VWPoleError,
)
from .exact import GaussianRational, coeff_2f1, gr, verify_hahn_exact, verify_mult_2f1_exact
from .hyper import (
    SeriesEval,
    SeriesStatus,
    TruncationPolicy,
    bhs_rphis,
    default_policy,
    detect_termination,
    gauss_2f1,
    hyp_pfq,
    vwp_8w7,
)
from .identities import (
    IdentityCase,
    IdentityReport,
    identity_ids,
    run_case,
    sample_params,
)
from .kernels import (
    KernelPoint,
    ac_kernel_closed,
    ac_kernel_closed_alt,
    ac_kernel_sum,
    mp_kernel_closed,
    mp_kernel_sum,
)
from .numerics import EXTENDED, STANDARD, Context, extended_context
from .polys import (
    ASCParams,
    AWParams,
    CHahnParams,
    HahnParams,
    MPParams,
    asc_poly,
    aw_poly,
    chahn_poly,
    hahn_poly,
    jacobi_poly,
    mp_poly,
    mp_poly_rec,
    sj_ac,
    sj_mp,
)
from .quadrature import QuadratureResult, aw_weight, mp_weight, ortho_gram
from .series import (
    QBase,
    bessel_j,
    complex_gamma,
    complex_pow_principal,
    pochhammer,
    qpoch,
    qpoch_many,
)
