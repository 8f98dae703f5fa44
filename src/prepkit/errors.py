"""Exception taxonomy shared across the package.

Every error carries a message plus a structured `data` dict for
library callers; the CLI writes only the error's type and message, as
one JSON line on stderr. Exit-code policy: exceptions exit 1; exit 2 is
reserved for honest inconclusive-at-budget verdicts, which are returned
as values, never raised.
"""


class PrepkitError(Exception):
    def __init__(self, message, **data):
        super().__init__(message)
        self.data = data


class CompositeModulus(PrepkitError):
    """The base of a requested ring is not prime."""


class BadPrecision(PrepkitError):
    """A precision parameter is below 1."""


class ZeroAtPrecision(PrepkitError):
    """Valuation of a residue that is zero at working precision; the
    caller cannot distinguish true zero from pi^K times a unit."""


class ZeroInput(PrepkitError):
    """Exact zero passed where a nonzero element is required."""


class NotAUnit(PrepkitError):
    """Unit inversion requested for a non-unit."""


class RingMismatch(PrepkitError):
    """Operands built over different coefficient rings."""


class NotAUnitSeries(PrepkitError):
    """Series inversion requested with a non-unit constant term."""


class NonzeroConstantInner(PrepkitError):
    """Composition g must have zero constant term."""


class BadNormalization(PrepkitError):
    """Compositional inverse needs f = x + higher order terms."""


class PointNotSmall(PrepkitError):
    """Series evaluation point must have positive valuation."""


class InsufficientXPrecision(PrepkitError):
    """The stored window is too short for the requested tail bound."""


class NonBinaryCoefficient(PrepkitError):
    """Periodicity scan input must be a 0/1 sequence."""


class WindowTooSmall(PrepkitError):
    """Recurrence detection needs window length at least 2*max_order+2."""


class NoUnitCoefficient(PrepkitError):
    """No windowed coefficient is a unit; widen the window or factor out
    a uniformizer power first."""


class BothConstant(PrepkitError):
    """Sylvester matrices need at least one nonconstant polynomial."""


class SpecViolation(PrepkitError):
    """A gap-series description violates one of its admissibility
    conditions; carries the condition number and the offending index."""


class HenselConditionFails(PrepkitError):
    """val(f(x0)) > 2*val(f'(x0)) does not hold at the starting point."""


class DegreeAboveOne(PrepkitError):
    """The gap series has reduction index above 1, so its small root
    lives in an extension and is out of scope."""


class BudgetExceeded(PrepkitError):
    """A materialization would exceed the configured degree budget;
    carries the needed size."""


class PrecisionTooLow(PrepkitError):
    """Working precision is too small for a sound valuation comparison;
    carries the required precision."""


class NonPrimeBase(PrepkitError):
    """Encoder base coefficient must be prime."""


class InvariantViolation(PrepkitError):
    """A computed result failed the identity that certifies it, such as
    the division identity or a factorization roundtrip; names the check
    and, where there is one, the first failing index."""


class UsageError(PrepkitError):
    """Command-line usage error, naming the offending flag."""


class IoError(PrepkitError):
    """Report emission failed (unwritable path and similar)."""
