"""lyapcert: certificates of stability and convergence for discrete-time systems.

The package covers four routes to a certificate:

* direct quadratic certificates for linear maps (fixed and time-varying),
* local certificates for nonlinear maps via first-order analysis with an
  explicit basin radius,
* converse constructions that turn observed decay envelopes into
  certified comparison functions,
* averaging and two-time-scale composition for slow/fast pairs, with an
  explicit range of admissible step parameters.

Everything is driven by plain numpy arrays; randomness flows through a
counter-based generator so every result is reproducible from one seed.
"""

from .averaging import (
    AveragedCertificate,
    AveragedField,
    AveragingBudget,
    SigmaTable,
    budget_for_delta,
    build_averaged_lyapunov,
    check_drift_remainder,
    estimate_average,
    estimate_sigma,
    fit_slow_constants,
    mu,
    nu,
)
from .certcheck import (
    CandidateFunction,
    ConditionReport,
    check_decrease,
    check_positive_definite,
)
from .converse import (
    ConverseCertificate,
    build_exponential_converse,
    build_trajectory_converse,
    estimate_lipschitz,
    verify_converse,
)
from .dynsys import (
    ExponentialEnvelope,
    DynSystem,
    LinearTV,
    SlowFastSamples,
    SlowFastSystem,
    fit_exponential_envelope,
    linear_part,
    simulate,
    trajectory_to_csv,
)
from .errors import (
    BudgetInfeasibleError,
    CertificateNotFoundError,
    DivergenceError,
    HypothesisViolationError,
    InapplicableError,
    LyapcertError,
    StageError,
    SteinSolvabilityError,
)
from .linearize import (
    JacobianEstimate,
    LocalCertificate,
    certify_local_autonomous,
    certify_local_nonautonomous,
    numerical_jacobian,
    validate_basin,
)
from .rng import Rng
from .stein import (
    SpectrumReport,
    SteinSolution,
    classify_linear,
    instability_certificate,
    solve_stein_kron,
    solve_stein_series,
    verify_transition_decay,
)
from .timescales import (
    CompositeCertificate,
    EllConstants,
    assemble_coefficients,
    certify_semiglobal,
    estimate_ell_constants,
    find_eps_r,
    validate_rate,
    verify_composite,
)

__version__ = "0.1.0"

__all__ = [
    "AveragedCertificate",
    "AveragedField",
    "AveragingBudget",
    "BudgetInfeasibleError",
    "CandidateFunction",
    "CertificateNotFoundError",
    "CompositeCertificate",
    "ConditionReport",
    "ConverseCertificate",
    "ExponentialEnvelope",
    "SteinSolvabilityError",
    "DivergenceError",
    "DynSystem",
    "EllConstants",
    "HypothesisViolationError",
    "InapplicableError",
    "JacobianEstimate",
    "LinearTV",
    "LocalCertificate",
    "LyapcertError",
    "Rng",
    "SigmaTable",
    "SlowFastSamples",
    "SlowFastSystem",
    "SpectrumReport",
    "StageError",
    "SteinSolution",
    "assemble_coefficients",
    "budget_for_delta",
    "build_averaged_lyapunov",
    "build_exponential_converse",
    "build_trajectory_converse",
    "certify_local_autonomous",
    "certify_local_nonautonomous",
    "certify_semiglobal",
    "check_decrease",
    "check_drift_remainder",
    "check_positive_definite",
    "classify_linear",
    "estimate_average",
    "estimate_ell_constants",
    "estimate_lipschitz",
    "estimate_sigma",
    "find_eps_r",
    "fit_exponential_envelope",
    "fit_slow_constants",
    "instability_certificate",
    "linear_part",
    "mu",
    "nu",
    "numerical_jacobian",
    "simulate",
    "solve_stein_kron",
    "solve_stein_series",
    "trajectory_to_csv",
    "validate_basin",
    "validate_rate",
    "verify_composite",
    "verify_converse",
    "verify_transition_decay",
    "__version__",
]
