"""Truncated power series over a coefficient ring.

A Series is an immutable window of x_prec coefficients. An OracleSeries
is a deterministic coefficient rule with a declared window of x_prec;
it computes each coefficient on first read and memoizes it, and takes
no lock. Both answer one protocol, so every operation here and every
one built on them takes either type: ring, x_prec, coeff(n), window(m)
(the first m coefficients; InsufficientXPrecision past x_prec), coeffs
(the whole window, built once), truncate(m) (the first m
coefficients as a Series), deriv() (the formal derivative, a Series)
and eval(x, ring) (f at a point of positive valuation, in f's ring or
that ring at lower precision, as Poly.eval evaluates a polynomial).
Windows and x_prec are capped at rings.SIZE_CAP, and a series built
from input over a finite ring at SERIES_CAP digits, x_prec * precision
(BudgetExceeded).

Operations: add, sub, mul, unit inversion, composition, compositional
inverse, evaluation at a small point, and two rationality detectors
(eventual 0/1 periodicity, and linear recurrence by Berlekamp-Massey on
the coefficient ring itself: over Z/p, or fraction-free over Z and
F_p[t]).

Every product is one Ring.convolve. Unit inversion is Newton doubling
that solves only the unknown half of each window: from g = f^-1 mod x^k,
e = coefficients k .. 2k - 1 of f·g is one middle product, which the
ring computes without the low half it would discard, and g·e mod x^k
gives the next k coefficients. The steps run on the ring's bulk form
(Ring.bulk), an int64 array over zp and zmodpk while p^K < 2^62, and
one (m, K) int64 array of digits over fpt while p < 2^62: -f and g
are converted once, and g back into elements once. Composition
on a window of m is Brent and Kung's baby-step/giant-step algorithm
(J. ACM 25 (1978), Alg. 2.1): about 2*sqrt(m) products plus one block
product, Ring.matmul, of f's coefficient chunks against g's baby
powers. That block product is a numpy int64 matmul over zp and zmodpk
while k*(p^K - 1)^2 < 2^63 and over fpt while k*K*(p - 1)^2 < 2^63,
for k = ceil(sqrt(m)) baby powers, and runs on object ints past those
bounds and over z. The compositional inverse is Newton reversion on
that composition, g <- g - (f(g) - x)/f'(g), doubling the window each
step.
"""

from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import isqrt

from .errors import (
    BadNormalization,
    BadPrecision,
    BudgetExceeded,
    InsufficientXPrecision,
    InvariantViolation,
    NonBinaryCoefficient,
    NonzeroConstantInner,
    NotAUnit,
    NotAUnitSeries,
    PointNotSmall,
    RingMismatch,
    WindowTooSmall,
)
from .rings import SIZE_CAP, Ring, dec_str


# The most digits, x_prec * ring.prec, that a series over a finite ring
# may hold as input: work and memory grow with their product, which
# SIZE_CAP bounds only one factor at a time. 2^22 is 11.6 times the
# largest series of the tests and the benchmark (zp:2:600 at window
# 600, 360,000 digits; the benchmark's largest is zp:2:140 at 140).
SERIES_CAP = 1 << 22


def check_x_prec(x_prec, ring=None):
    """x_prec, or BadPrecision when it is below 1 and BudgetExceeded
    past rings.SIZE_CAP, or past SERIES_CAP digits over a finite ring."""
    if x_prec < 1:
        raise BadPrecision("series needs x_prec >= 1, got %d" % x_prec,
                           x_prec=x_prec)
    if x_prec > SIZE_CAP:
        raise BudgetExceeded("series needs x_prec <= %d, got %d"
                             % (SIZE_CAP, x_prec),
                             needed=x_prec, budget=SIZE_CAP)
    if ring is not None and ring.prec is not None:
        digits = x_prec * ring.prec
        if digits > SERIES_CAP:
            raise BudgetExceeded(
                "series needs x_prec * precision <= %d digits, got %d * %d "
                "= %d" % (SERIES_CAP, x_prec, ring.prec, digits),
                needed=digits, budget=SERIES_CAP)
    return x_prec


@dataclass(frozen=True)
class Series:
    ring: Ring
    x_prec: int
    coeffs: tuple

    def __post_init__(self):
        check_x_prec(self.x_prec)
        if len(self.coeffs) != self.x_prec:
            raise InvariantViolation("a window of %d holds %d coefficients"
                                     % (self.x_prec, len(self.coeffs)))

    def coeff(self, n):
        return self.coeffs[n]

    def window(self, m):
        _check_window(self, m)
        return list(self.coeffs[:m])

    def truncate(self, m):
        return Series(self.ring, m, tuple(self.window(m)))

    def deriv(self):
        """The formal derivative, on a window one shorter (and at least
        one)."""
        ring, cs = self.ring, self.coeffs
        dc = [ring.mul(ring.from_int(k), cs[k]) for k in range(1, len(cs))]
        return Series(ring, max(len(dc), 1), tuple(dc) or (ring.zero(),))

    def eval(self, x, ring=None):
        """f(x) for x of positive valuation, in ring: f's own by
        default, or f's ring at a lower precision. The signature is
        Poly.eval's, so Newton lifting takes either."""
        R = ring or self.ring
        return R.canon(evaluate(self, self.ring.canon(x), R.prec))


def _check_window(f, m):
    if m > f.x_prec:
        raise InsufficientXPrecision(
            "window %d exceeds stored precision %d" % (m, f.x_prec),
            needed=m, have=f.x_prec)


def make_series(ring, coeffs, x_prec=None):
    """Canonicalize and zero-pad coeffs into a Series window; the
    window's budget is checked first."""
    coeffs = list(coeffs)
    if x_prec is None:
        x_prec = len(coeffs)
    if len(coeffs) > x_prec:
        raise ValueError("got %d coefficients for a window of %d"
                         % (len(coeffs), x_prec))
    check_x_prec(x_prec, ring)
    coeffs = ([ring.canon(c) for c in coeffs]
              + [ring.zero()] * (x_prec - len(coeffs)))
    return Series(ring, x_prec, tuple(coeffs))


class OracleSeries:
    """Series given by a deterministic coefficient rule, cached."""

    def __init__(self, ring, fn, x_prec):
        self.ring = ring
        self.fn = fn
        self.x_prec = check_x_prec(x_prec, ring)
        self._memo = {}

    def coeff(self, n):
        if not 0 <= n < self.x_prec:
            raise InsufficientXPrecision(
                "index %d outside oracle window %d" % (n, self.x_prec),
                needed=n + 1, have=self.x_prec)
        memo = self._memo
        if n not in memo:
            memo[n] = self.ring.canon(self.fn(n))
        return memo[n]

    def window(self, m):
        _check_window(self, m)
        return [self.coeff(i) for i in range(m)]

    @cached_property
    def coeffs(self):
        return tuple(self.window(self.x_prec))

    truncate = Series.truncate
    deriv = Series.deriv
    eval = Series.eval


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
    except NotAUnit as ex:
        raise NotAUnitSeries("constant term is not a unit") from ex
    return Series(ring, f.x_prec, tuple(_invert(ring, list(f.coeffs), inv0)))


def _invert(ring, fc, inv0):
    """fc^-1 on its window, from inv0 = fc[0]^-1. If f·g = 1 + x^k·e
    mod x^2k, then f^-1 = g - x^k·g·e mod x^2k: each step finds only
    the unknown half, and -e is the middle product of -f·g. The steps
    run on the ring's bulk form (Ring.bulk): -f and g are converted
    once, and g back into elements once."""
    m = len(fc)
    h = ring.bulk([ring.neg(c) for c in fc])
    g = ring.bulk([inv0] + [ring.zero()] * (m - 1))
    k = 1
    while k < m:
        win = min(2 * k, m)
        e = ring.convolve(h[:win], g[:k], win, k)
        g[k:win] = ring.convolve(g[:win - k], e, win - k)
        k = win
    return ring.elements(g)


def _compose(ring, outers, g):
    """[f(g) mod x^n for f, n in outers], for a window g of m >= n
    coefficients with g(0) = 0, by Brent and Kung's baby-step/giant-step
    composition (J. ACM 25 (1978), Alg. 2.1). With k = ceil(sqrt(m)),
    f = sum_i F_i x^(ik) with deg F_i < k, so f(g) = sum_i F_i(g)·h^i
    for h = g^k. Every F_i(g), for all outers at once, comes from one
    block product of their coefficient chunks against the baby powers
    g^0 .. g^(k-1); the sum is Horner's rule in h. As h^i vanishes mod
    x^(ik), step i works mod x^(n - ik)."""
    m = len(g)
    zero = ring.zero()
    k = isqrt(m - 1) + 1
    powers = [[ring.one()] + [zero] * (m - 1)]
    for _ in range(k - 1):
        powers.append(ring.convolve(powers[-1], g, m))
    rows, firsts = [], []
    for f, n in outers:
        f = list(f[:n]) + [zero] * (-n % k)
        firsts.append(len(rows))
        rows += [f[i:i + k] for i in range(0, n, k)]
    blocks = ring.matmul(rows, powers)
    if any(n > k for _, n in outers):
        h = ring.convolve(powers[-1], g, m)
    out = []
    for first, (_, n) in zip(firsts, outers):
        top = (n - 1) // k
        acc = blocks[first + top][:n - top * k]
        for i in range(top - 1, -1, -1):
            # acc <- F_i(g) + h·acc mod x^L, with h = x^k·h[k:]
            L = n - i * k
            hacc = ring.convolve(acc, h[k:L], L - k)
            b = blocks[first + i]
            acc = b[:k] + [ring.add(x, y) for x, y in zip(b[k:L], hacc)]
        out.append(acc)
    return out


def compose(f, g):
    """f(g(x)); g must have zero constant term."""
    ring, m = _common(f, g)
    if not ring.is_zero(g.coeffs[0]):
        raise NonzeroConstantInner("inner series has nonzero constant term")
    fg, = _compose(ring, [(f.coeffs, m)], list(g.coeffs[:m]))
    return Series(ring, m, tuple(fg))


def comp_inverse(f):
    """Compositional inverse of f = x + higher order terms by Newton
    reversion (Brent and Kung 1978): if g inverts f mod x^w, then
    g - (f(g) - x)/f'(g) inverts it mod x^2w. As f(g) - x vanishes mod
    x^w, f'(g) is needed mod x^w only; it is a unit in every
    characteristic, since f'(0) = 1. f(g) and f'(g) share g's baby
    powers and one block product."""
    ring = f.ring
    m = f.x_prec
    if not ring.is_zero(f.coeffs[0]):
        raise BadNormalization("constant term must be zero")
    if m < 2 or f.coeffs[1] != ring.one():
        raise BadNormalization("linear coefficient must be one")
    df = f.deriv().coeffs
    g = [ring.zero(), ring.one()]
    while len(g) < m:
        w = len(g)
        win = min(2 * w, m)
        fg, dfg = _compose(ring, [(f.coeffs, win), (df, win - w)],
                           g + [ring.zero()] * (win - w))
        inv = _invert(ring, dfg, ring.invert_unit(dfg[0]))
        g += [ring.neg(c) for c in ring.convolve(fg[w:], inv, win - w)]
    return Series(ring, m, tuple(g))


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
    # writes one entry of q in its JSON form
    q_encode: object = field(default=None, compare=False, repr=False)

    @property
    def is_rational(self):
        return self.kind == "rational"


def detect_periodic_01(ring, vals):
    """Least (d, s) in lexicographic order such that vals, a list of
    ring elements each 0 or 1, is d-periodic from index s, with
    s + 2d <= len(vals); the witness is q = 1 - x^d. No such pair means
    irrational at this budget, len(vals)."""
    budget = len(vals)
    if budget < 4:
        raise ValueError("budget must be at least 4, got %r" % (budget,))
    one = ring.one()
    for i, v in enumerate(vals):
        if not ring.is_zero(v) and v != one:
            raise NonBinaryCoefficient("coefficient %d is not 0 or 1" % i,
                                       index=i)
    for d in range(1, budget // 2 + 1):
        for s in range(0, budget - 2 * d + 1):
            if all(vals[i] == vals[i + d] for i in range(s, budget - d)):
                q = (1,) + (0,) * (d - 1) + (-1,)
                return RationalityVerdict("rational", d=d, s=s, q=q,
                                          budget=budget,
                                          q_encode=dec_str)
    return RationalityVerdict("irrational_at_budget", budget=budget)


def detect_recurrence(f, max_order):
    """Least order d <= max_order such that q(x) * f(x) is a polynomial
    of degree < d for some q with q(0) = 1, judged on every window row
    n in [d, M). The window must satisfy M >= 2 * max_order + 2, which
    makes the shortest recurrence, and so q, unique.

    One Berlekamp-Massey pass (Massey 1969) over the window, on f's ring
    itself, finds the linear complexity L and its connection polynomial
    C in O(M * L) ring operations. Over Z/p (ring.is_field) C(0) = 1 and
    each update is C <- C - (delta / b) * x^s * B. Over z and fpt_exact
    (ring.is_exact) it is fraction-free, C <- b * C - delta * x^s * B
    (Kaltofen and Yuhasz, Linear Algebra Appl. 439 (2013)), and C is
    then divided by the gcd of its entries, which keeps them from
    growing exponentially; q = C / C(0) is formed once, at the end, as
    (num, den) pairs in lowest terms with den positive over Z and monic
    over F_p[t]. Any other ring: ValueError. L never decreases, so the
    pass stops as soon as L exceeds max_order. An all-zero window
    (L = 0) reports d = 1, and q is zero-padded to d + 1 entries when
    its degree falls below d."""
    R = f.ring
    is_field = R.is_field
    if not (is_field or R.is_exact):
        raise ValueError("recurrence detection needs a field or exact domain, "
                         "got kind %s with prec %r" % (R.kind, R.prec))
    m = f.x_prec
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if m < 2 * max_order + 2:
        raise WindowTooSmall("window %d is below 2*%d+2" % (m, max_order),
                             have=m, needed=2 * max_order + 2)
    c = f.coeffs
    zero, one = R.zero(), R.one()
    # C is the current connection polynomial, B the one before the last
    # length change, b the discrepancy that forced that change and
    # shift the x-power between them; len(C) <= L + 1 throughout.
    C, B, L, b, shift = [one], [one], 0, one, 1
    for n in range(m):
        delta = c[n] if is_field else R.mul(C[0], c[n])
        for i in range(1, len(C)):
            delta = R.add(delta, R.mul(C[i], c[n - i]))
        if R.is_zero(delta):
            shift += 1
            continue
        T = C
        if is_field:
            coef = R.mul(delta, R.invert_unit(b))
        else:
            coef, C = delta, [R.mul(b, x) for x in C]
        C = C + [zero] * (shift + len(B) - len(C))
        for i, y in enumerate(B):
            C[shift + i] = R.sub(C[shift + i], R.mul(coef, y))
        if not is_field:
            g = reduce(R.gcd, C)  # unit-normal, and nonzero as C(0) is
            if g != one:
                C = [R.exact_div(x, g) for x in C]
        if 2 * L <= n:
            L, B, b, shift = n + 1 - L, T, delta, 1
            if L > max_order:
                return RationalityVerdict("irrational_at_budget", budget=m)
        else:
            shift += 1
    d = max(L, 1)
    C = C + [zero] * (d + 1 - len(C))
    if is_field:
        q, q_encode = tuple(C), R.encode
    else:
        q, q_encode = tuple(_ratio(R, x, C[0]) for x in C), R.encode_fraction
    return RationalityVerdict("rational", d=d, s=0, q=q, budget=m,
                              q_encode=q_encode)


def _ratio(R, num, den):
    """num / den over the exact ring R as a (num, den) pair in lowest
    terms, den unit-normal; zero over one for zero."""
    if R.is_zero(num):
        return (num, R.one())
    g = R.gcd(num, den)
    u = R.invert_unit(R.unit_part(den))
    return (R.mul(R.exact_div(num, g), u), R.mul(R.exact_div(den, g), u))
