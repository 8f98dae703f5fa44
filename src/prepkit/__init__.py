"""Exact Weierstrass preparation, truncated power-series arithmetic,
resultant bounds, gap-series certificates, and a Diophantine encoding
layer, all over finite-precision local coefficient rings.

No floating point is used anywhere: elements are integers mod p^K,
polynomials over F_p truncated at t^K, or their exact counterparts, and
every inequality is decided by exact integer comparison.
"""

from .errors import (BadNormalization, BadPrecision, BothConstant,
                     BudgetExceeded, CompositeModulus, DegreeAboveOne,
                     HenselConditionFails, InsufficientXPrecision,
                     InvariantViolation, IoError,
                     NoUnitCoefficient, NonBinaryCoefficient, NonPrimeBase,
                     NonzeroConstantInner, NotAUnit, NotAUnitSeries,
                     PointNotSmall, PrecisionTooLow, PrepkitError,
                     RingMismatch, SpecViolation, UsageError, WindowTooSmall,
                     ZeroAtPrecision, ZeroInput)
from .rings import make_ring
from .series import (OracleSeries, RationalityVerdict, Series, comp_inverse,
                     compose, detect_periodic_01, detect_recurrence, evaluate,
                     make_series, series_add, series_invert, series_mul,
                     series_sub)
from .weierstrass import (WFactorization, prepare, reduction_index,
                          strong_factor, weierstrass_divide)
from .resultant import (BoundReport, Poly, hadamard_check, make_poly,
                        resultant, tdegree_check)
from .padic_analysis import (BoundCheck, CertificateReport, FamilySummary,
                             GapSpec, MarginReport, bound_check_prime,
                             build_gap_series, certify_family,
                             certify_not_root, enumerate_family,
                             family_margin, gap_linear_factor, hensel_lift,
                             phi_truncation, reference_spec,
                             small_root_of_gap)
from .h10 import (DioPoly, FPOracle, GapGrowthEvidence, Inconclusive,
                  LazyBP, OverBudget, RationalCertified,
                  UnderdeterminedBeyond, cantor_unpair, decision_probe,
                  exponent_E, make_dio, parse_dio_inline, parse_dio_text,
                  theta, zigzag)

__version__ = "0.1.0"
