"""Truncated power series over a coefficient ring.

A Series is an immutable window of x_prec coefficients. An OracleSeries
wraps a deterministic coefficient rule and materializes windows on
demand; memoization is append-only, so concurrent readers are safe.

Operations: add, sub, mul, unit inversion, composition, compositional
inverse, evaluation at a small point, and two rationality detectors
(eventual 0/1 periodicity and linear recurrence over a fraction field).
"""

import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadNormalization,
    InsufficientXPrecision,
    NonBinaryCoefficient,
    NonzeroConstantInner,
    NotAUnitSeries,
    PointNotSmall,
    RingMismatch,
    WindowTooSmall,
)
from .rings import ExactFpTRing, ExactZRing, IntModRing, Ring


@dataclass(frozen=True)
class Series:
    ring: Ring
    x_prec: int
    coeffs: tuple

    def __post_init__(self):
        assert self.x_prec >= 1
        assert len(self.coeffs) == self.x_prec

    def coeff(self, n):
        return self.coeffs[n]

    def window(self, m):
        if m > self.x_prec:
            raise InsufficientXPrecision(
                "window %d exceeds stored precision %d" % (m, self.x_prec),
                needed=m, have=self.x_prec)
        return list(self.coeffs[:m])

    def truncate(self, m):
        return Series(self.ring, m, tuple(self.window(m)))


def make_series(ring, coeffs, x_prec=None):
    """Canonicalize and zero-pad coeffs into a Series window."""
    coeffs = [ring.canon(c) for c in coeffs]
    if x_prec is None:
        x_prec = len(coeffs)
    if len(coeffs) > x_prec:
        raise ValueError("got %d coefficients for a window of %d"
                         % (len(coeffs), x_prec))
    coeffs = coeffs + [ring.zero()] * (x_prec - len(coeffs))
    return Series(ring, x_prec, tuple(coeffs))


class OracleSeries:
    """Series given by a deterministic coefficient rule, cached."""

    def __init__(self, ring, fn, x_prec):
        self.ring = ring
        self.fn = fn
        self.x_prec = x_prec
        self._memo = {}
        self._lock = threading.Lock()

    def coeff(self, n):
        if not 0 <= n < self.x_prec:
            raise InsufficientXPrecision(
                "index %d outside oracle window %d" % (n, self.x_prec),
                needed=n + 1, have=self.x_prec)
        memo = self._memo
        if n in memo:
            return memo[n]
        v = self.ring.canon(self.fn(n))
        with self._lock:
            memo[n] = v
        return v

    def window(self, m):
        return [self.coeff(i) for i in range(m)]

    def materialize(self, m):
        return Series(self.ring, m, tuple(self.window(m)))


def _common(f, g):
    if f.ring != g.ring:
        raise RingMismatch("operand rings differ: %r vs %r" % (f.ring, g.ring))
    return f.ring, min(f.x_prec, g.x_prec)


def series_add(f, g):
    ring, m = _common(f, g)
    return Series(ring, m, tuple(ring.add(a, b)
                                 for a, b in zip(f.coeffs[:m], g.coeffs[:m])))


def series_sub(f, g):
    ring, m = _common(f, g)
    return Series(ring, m, tuple(ring.sub(a, b)
                                 for a, b in zip(f.coeffs[:m], g.coeffs[:m])))


def series_mul(f, g):
    """Product on the smaller of the two windows."""
    ring, m = _common(f, g)
    out = ring.convolve(list(f.coeffs[:m]), list(g.coeffs[:m]), m)
    return Series(ring, m, tuple(out))


def series_invert(f):
    """Multiplicative inverse by Newton doubling; the constant term
    must be a unit (NotAUnitSeries otherwise)."""
    ring = f.ring
    try:
        inv0 = ring.invert_unit(f.coeffs[0])
    except Exception as ex:
        raise NotAUnitSeries("constant term is not a unit") from ex
    m = f.x_prec
    g = [inv0]
    win = 1
    while win < m:
        win = min(2 * win, m)
        # g <- g * (2 - f * g) at the doubled window
        fg = ring.convolve(list(f.coeffs[:win]), g, win)
        two_minus = [ring.sub(ring.zero(), c) for c in fg]
        two_minus[0] = ring.add(two_minus[0], ring.add(ring.one(), ring.one()))
        g = ring.convolve(g, two_minus, win)
    return Series(ring, m, tuple(g))


def compose(f, g):
    """f(g(x)); g must have zero constant term."""
    ring, m = _common(f, g)
    if not ring.is_zero(g.coeffs[0]):
        raise NonzeroConstantInner("inner series has nonzero constant term")
    gcut = list(g.coeffs[:m])
    acc = [ring.zero()] * m
    for k in range(m - 1, -1, -1):
        acc = ring.convolve(acc, gcut, m)
        acc[0] = ring.add(acc[0], f.coeffs[k])
    return Series(ring, m, tuple(acc))


def comp_inverse(f):
    """Compositional inverse of f = x + higher order terms, by the
    triangular relation g_n = -sum_{k<n} g_k [x^n] f^k."""
    ring = f.ring
    m = f.x_prec
    if not ring.is_zero(f.coeffs[0]):
        raise BadNormalization("constant term must be zero")
    if m < 2 or f.coeffs[1] != ring.one():
        raise BadNormalization("linear coefficient must be one")
    fc = list(f.coeffs)
    powers = [None, fc]
    for k in range(2, m):
        powers.append(ring.convolve(powers[-1], fc, m))
    g = [ring.zero(), ring.one()]
    for n in range(2, m):
        s = ring.sum(ring.mul(g[k], powers[k][n]) for k in range(1, n))
        g.append(ring.neg(s))
    return Series(ring, m, tuple(g))


def comp_inverse_newton(f):
    """Same contract as comp_inverse via window-doubling Newton steps;
    kept as an independent route for uniqueness checks."""
    ring = f.ring
    m = f.x_prec
    if not ring.is_zero(f.coeffs[0]):
        raise BadNormalization("constant term must be zero")
    if m < 2 or f.coeffs[1] != ring.one():
        raise BadNormalization("linear coefficient must be one")
    fprime = [ring.mul(ring.from_int(k), f.coeffs[k]) for k in range(1, m)]
    g = [ring.zero(), ring.one()]
    win = 2
    while win < m:
        win = min(2 * win, m)
        gs = Series(ring, win, tuple(g + [ring.zero()] * (win - len(g))))
        err = series_sub(compose(f.truncate(win), gs), _identity(ring, win))
        dfg = compose(Series(ring, win, tuple(fprime[:win - 1]) + (ring.zero(),)), gs)
        step = series_mul(err, series_invert(dfg))
        g = [ring.sub(a, b) for a, b in zip(gs.coeffs, step.coeffs)]
    return Series(ring, m, tuple(g))


def _identity(ring, m):
    c = [ring.zero()] * m
    if m > 1:
        c[1] = ring.one()
    return Series(ring, m, tuple(c))


def evaluate(f, a, target_val_prec):
    """Evaluate f at a point of positive valuation. The result is a
    ring element correct modulo pi^target_val_prec; the window must
    reach the first index whose tail is provably that small."""
    ring = f.ring
    target = target_val_prec
    if ring.prec is None:
        raise ValueError("evaluation needs a finite-precision coefficient ring")
    if target < 1 or ring.prec < target:
        raise ValueError("target precision %r outside ring precision %d"
                         % (target, ring.prec))
    a = ring.canon(a)
    va = ring.val(a)
    if va == 0:
        raise PointNotSmall("evaluation point is a unit; need val >= 1")
    if va is None:
        i_star = 1
    else:
        i_star = -(-target // va)
    if i_star > f.x_prec:
        raise InsufficientXPrecision(
            "need %d coefficients, window has %d" % (i_star, f.x_prec),
            needed=i_star, have=f.x_prec)
    prefix = f.window(i_star)
    acc = ring.zero()
    for c in reversed(prefix):
        acc = ring.add(ring.mul(acc, a), c)
    return acc


@dataclass(frozen=True)
class RationalityVerdict:
    kind: str  # "rational" | "irrational_at_budget"
    d: int = None
    s: int = None
    q: tuple = None
    budget: int = None

    @property
    def is_rational(self):
        return self.kind == "rational"


def _binary_values(source, budget):
    if hasattr(source, "coeff"):
        ring = source.ring
        raw = [source.coeff(i) for i in range(budget)]
        out = []
        for i, v in enumerate(raw):
            if ring.is_zero(v):
                out.append(0)
            elif v == ring.one():
                out.append(1)
            else:
                raise NonBinaryCoefficient("coefficient %d is not 0 or 1" % i,
                                           index=i)
        return out
    vals = [source(i) if callable(source) else source[i] for i in range(budget)]
    for i, v in enumerate(vals):
        if v not in (0, 1):
            raise NonBinaryCoefficient("coefficient %d is not 0 or 1" % i,
                                       index=i)
    return list(vals)


def detect_periodic_01(source, budget):
    """Least (d, s) in lexicographic order such that the 0/1 sequence
    is d-periodic from index s, with s + 2d <= budget; the witness is
    q = 1 - x^d. No such pair means irrational at this budget."""
    if budget < 4:
        raise ValueError("budget must be at least 4, got %r" % (budget,))
    vals = _binary_values(source, budget)
    for d in range(1, budget // 2 + 1):
        for s in range(0, budget - 2 * d + 1):
            if all(vals[i] == vals[i + d] for i in range(s, budget - d)):
                q = (1,) + (0,) * (d - 1) + (-1,)
                return RationalityVerdict("rational", d=d, s=s, q=q,
                                          budget=budget)
    return RationalityVerdict("irrational_at_budget", budget=budget)


class _FractionField:
    """Q over Z; like _RatFuncField, it takes the Ring method names."""

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def sub(self, a, b):
        return a - b

    def invert_unit(self, a):
        return 1 / a

    def canon(self, c):
        return Fraction(c)


class _RatFuncField:
    """Rational functions over F_p; elements are (num, den) pairs of
    F_p[t] elements in lowest terms with monic denominator."""

    def __init__(self, p):
        self.R = ExactFpTRing(p)

    def _norm(self, num, den):
        assert den
        R = self.R
        if not num:
            return ((), (1,))
        g = R.gcd(num, den)
        if g != (1,):
            num = R.divmod(num, g)[0]
            den = R.divmod(den, g)[0]
        if den[-1] != 1:
            p = R.p
            inv = pow(den[-1], -1, p)
            num = tuple(x * inv % p for x in num)
            den = tuple(x * inv % p for x in den)
        return (num, den)

    def zero(self):
        return ((), (1,))

    def one(self):
        return ((1,), (1,))

    def is_zero(self, a):
        return not a[0]

    def mul(self, a, b):
        R = self.R
        return self._norm(R.mul(a[0], b[0]), R.mul(a[1], b[1]))

    def add(self, a, b):
        R = self.R
        num = R.add(R.mul(a[0], b[1]), R.mul(b[0], a[1]))
        return self._norm(num, R.mul(a[1], b[1]))

    def sub(self, a, b):
        R = self.R
        num = R.sub(R.mul(a[0], b[1]), R.mul(b[0], a[1]))
        return self._norm(num, R.mul(a[1], b[1]))

    def invert_unit(self, a):
        assert a[0]
        return self._norm(a[1], a[0])

    def canon(self, c):
        return (self.R.canon(c), (1,))


def _recurrence_field(ring):
    # Z/p at precision 1 is the field itself
    if isinstance(ring, IntModRing) and ring.prec == 1:
        return ring
    if isinstance(ring, ExactZRing):
        return _FractionField()
    if isinstance(ring, ExactFpTRing):
        return _RatFuncField(ring.p)
    raise ValueError("recurrence detection needs a field or exact domain, "
                     "got kind %s with prec %r" % (ring.kind, ring.prec))


def detect_recurrence(f, max_order):
    """Least order d <= max_order such that q(x) * f(x) is a polynomial
    of degree < d for some q with q(0) = 1, judged on every window row
    n in [d, M). The window must satisfy M >= 2 * max_order + 2, which
    makes the shortest recurrence, and so q, unique.

    One Berlekamp-Massey pass (Massey 1969) over the window finds the
    linear complexity L and its connection polynomial in O(M * L) field
    operations. L never decreases, so the pass stops as soon as L
    exceeds max_order. An all-zero window (L = 0) reports d = 1, and q
    is zero-padded to d + 1 entries when its degree falls below d."""
    if hasattr(f, "materialize"):
        f = f.materialize(f.x_prec)
    ring = f.ring
    F = _recurrence_field(ring)
    m = f.x_prec
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if m < 2 * max_order + 2:
        raise WindowTooSmall("window %d is below 2*%d+2" % (m, max_order),
                             have=m, needed=2 * max_order + 2)
    c = [F.canon(x) for x in f.coeffs]
    one = F.one()
    # C is the current connection polynomial, B the one before the last
    # length change, b the discrepancy that forced that change and
    # shift the x-power between them; len(C) <= L + 1 throughout.
    C, B, L, b, shift = [one], [one], 0, one, 1
    for n in range(m):
        delta = c[n]
        for i in range(1, len(C)):
            delta = F.add(delta, F.mul(C[i], c[n - i]))
        if F.is_zero(delta):
            shift += 1
            continue
        coef = F.mul(delta, F.invert_unit(b))
        T = C
        C = C + [F.zero()] * (shift + len(B) - len(C))
        for i, y in enumerate(B):
            C[shift + i] = F.sub(C[shift + i], F.mul(coef, y))
        if 2 * L <= n:
            L, B, b, shift = n + 1 - L, T, delta, 1
            if L > max_order:
                return RationalityVerdict("irrational_at_budget", budget=m)
        else:
            shift += 1
    d = max(L, 1)
    q = tuple(C) + (F.zero(),) * (d + 1 - len(C))
    return RationalityVerdict("rational", d=d, s=0, q=q, budget=m)
