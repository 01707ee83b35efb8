"""p-adic hypergeometric values for the Legendre family.

Exact evaluation of the truncated-p-adic hypergeometric sums 2G2 and
6G6 attached to y^2 = x(x-1)(x-lambda), their identification with
Frobenius traces, Hecke traces on Gamma_0(4) and Gamma_0(8), and
Sato-Tate moment and distribution experiments.
"""

from .errors import (
    ArgumentNotRepresentableError,
    BadPrecisionError,
    BadWeightError,
    NoOrderFourCharacterError,
    NonIntegralLeadingPowerError,
    NoRepresentativeError,
    NotPrimeError,
    PadicHGError,
    ParameterNotPadicError,
    PrecisionExhaustedError,
    PrimeTooSmallError,
    SingularLambdaError,
    WrongResidueClassError,
)
from .field import (
    PrimeContext,
    is_prime,
    make_prime_ctx,
)
from .hecke import (
    eta_product_coeffs,
    newform_coefficients,
    pk_poly,
    trace_level4,
    trace_level8,
)
from .hypergeo import (
    GnValue,
    eval_family,
    eval_gn,
    family_sweep,
    lift_signed,
)
from .padic import (
    GammaTable,
    build_gamma_table,
    frac_bracket,
    jacobi_sum_check,
    product_formula_check,
    reflection_check,
    teichmuller,
)
from .stats import (
    DistributionReport,
    MomentReport,
    catalan,
    distribution_report,
    ks_statistic,
    moment_sum,
    semicircle_cdf,
    semicircle_density,
)
from .verify import CheckResult, primes_between, run_suite

__version__ = "0.1.0"

__all__ = [
    "ArgumentNotRepresentableError",
    "BadPrecisionError",
    "BadWeightError",
    "CheckResult",
    "DistributionReport",
    "GammaTable",
    "GnValue",
    "MomentReport",
    "NoOrderFourCharacterError",
    "NonIntegralLeadingPowerError",
    "NoRepresentativeError",
    "NotPrimeError",
    "PadicHGError",
    "ParameterNotPadicError",
    "PrecisionExhaustedError",
    "PrimeContext",
    "PrimeTooSmallError",
    "SingularLambdaError",
    "WrongResidueClassError",
    "build_gamma_table",
    "catalan",
    "distribution_report",
    "eta_product_coeffs",
    "eval_family",
    "eval_gn",
    "family_sweep",
    "frac_bracket",
    "is_prime",
    "jacobi_sum_check",
    "ks_statistic",
    "lift_signed",
    "make_prime_ctx",
    "moment_sum",
    "newform_coefficients",
    "pk_poly",
    "primes_between",
    "product_formula_check",
    "reflection_check",
    "run_suite",
    "semicircle_cdf",
    "semicircle_density",
    "teichmuller",
    "trace_level4",
    "trace_level8",
    "__version__",
]
