"""Weierstrass division, preparation, and strong factorization over
finite-precision local coefficient rings.

Division writes g = q * f + r with deg r below the reduction index of
f. At window precision the pair (q, r) is pinned down as the unique
fixed point q = c + L(q) of a contraction, where f = alpha + x^n * beta,
c = beta^-1 * shift_n(g) and L(q) = -beta^-1 * shift_n(q * alpha) gains
one uniformizer power per application. That fixed point also satisfies
the normalization that the top n coefficients of beta * q vanish. Both
facts are checked after every division and raise InvariantViolation if
they fail.

The default schedule `lifting` computes the fixed point level by level
in the pi-adic precision: q mod pi^k comes from q mod pi^ceil(k/2) and
one correction solved at the remaining precision, so most of its
arithmetic runs at a fraction of the ring's precision (Dixon's p-adic
lifting, as Newton-Hensel lifting). The schedules `direct` (K + 2
passes from zero) and `warmstart` (K + 1 passes from c) iterate the
contraction at full precision; they are the reference routes the tests
compare `lifting` against, bit for bit.

Strong factorization splits f = pi^v * P * U with P a monic
distinguished polynomial (non-leading coefficients of positive
valuation) and U a unit series: the valuation content is divided out,
preparation runs at reduced precision, and the factors lift back.
"""

from dataclasses import dataclass

from .errors import (InvariantViolation, NoUnitCoefficient, RingMismatch,
                     ZeroAtPrecision)
from .rings import FpTRing, IntModRing, Ring
from .series import Series, make_series, series_invert, series_mul

SCHEDULES = ("lifting", "direct", "warmstart")


@dataclass(frozen=True)
class WFactorization:
    v: int
    n: int
    P: tuple  # monic, length n + 1
    U: Series
    ring: Ring
    x_prec: int

    def verify(self, f):
        """Recompute pi^v * P * U against f on the common window."""
        ring = self.ring
        if f.ring != ring:
            raise RingMismatch("factorization ring differs from operand ring")
        m = min(self.x_prec, f.x_prec)
        pser = make_series(ring, list(self.P), m)
        prod = series_mul(pser, self.U.truncate(m))
        piv = ring.pow(ring.uniformizer(), self.v)
        for got, want in zip(prod.coeffs, f.coeffs[:m]):
            if ring.mul(piv, got) != want:
                return False
        return True


def reduction_index(f):
    """Least windowed index whose coefficient is a unit."""
    ring = f.ring
    for i, c in enumerate(f.coeffs):
        if ring.val(c) == 0:
            return i
    raise NoUnitCoefficient(
        "no unit coefficient in a window of %d" % f.x_prec, x_prec=f.x_prec)


def _require_finite(ring):
    if not isinstance(ring, (IntModRing, FpTRing)):
        raise ValueError("division needs a finite-precision local ring, "
                         "got kind %s" % ring.kind)


def _lift_solve(ring, c, alpha, binv, n, m):
    """The fixed point q = c + L(q), L(q) = -binv * shift_n(q * alpha),
    by divide-and-conquer on the pi-adic precision k. Mod pi, L
    vanishes and q = c. Otherwise q1 = q mod pi^k1, k1 = ceil(k/2),
    solves the same system at precision k1, and q2 = (q - q1) / pi^k1
    solves it at precision k - k1 with constant term
    (c + L(q1) - q1) / pi^k1."""
    levels = {}

    def level(k):
        if k not in levels:
            levels[k] = (ring.at_prec(k), ring.reduce(alpha, k),
                         ring.reduce(binv, k))
        return levels[k]

    def solve(c, k):
        if k == 1:
            return c
        R, a, b = level(k)
        k1 = (k + 1) // 2
        lo = solve(R.reduce(c, k1), k1)
        q1 = R.join(lo, None, k1)
        qa = R.convolve(q1, a, m)
        t = R.convolve(b, qa[n:] + [R.zero()] * n, m)
        e = [R.sub(R.sub(ci, ti), qi) for ci, ti, qi in zip(c, t, q1)]
        return R.join(lo, solve(R.split(e, k1)[1], k - k1), k1)

    return solve(c, ring.prec)


def weierstrass_divide(g, f, schedule="lifting"):
    """Divide g by f: returns (q, r) with g = q * f + r on the window,
    deg r < n, and the fixed-point normalization above. All schedules
    compute the same fixed point and must agree bit for bit."""
    if schedule not in SCHEDULES:
        raise ValueError("unknown schedule %r; expected one of %s"
                         % (schedule, ", ".join(SCHEDULES)))
    if f.ring != g.ring:
        raise RingMismatch("operand rings differ: %r vs %r" % (f.ring, g.ring))
    ring = f.ring
    _require_finite(ring)
    m = min(f.x_prec, g.x_prec)
    fc = list(f.coeffs[:m])
    gc = list(g.coeffs[:m])
    n = reduction_index(f.truncate(m))
    alpha = fc[:n]
    beta = fc[n:] + [ring.zero()] * n
    binv = list(series_invert(Series(ring, m, tuple(beta))).coeffs)

    def shift(xs):
        return xs[n:] + [ring.zero()] * n

    def step(q):
        qa = ring.convolve(q, alpha, m) if alpha else [ring.zero()] * m
        return ring.convolve(binv, shift([ring.sub(gc[i], qa[i])
                                          for i in range(m)]), m)

    if schedule == "direct":
        q = [ring.zero()] * m
        for _ in range(ring.prec + 2):
            q = step(q)
    else:
        q = ring.convolve(binv, shift(gc), m)
        if schedule == "warmstart":
            for _ in range(ring.prec + 1):
                q = step(q)
        elif alpha:
            q = _lift_solve(ring, q, alpha, binv, n, m)

    qf = ring.convolve(q, fc, m)
    r = tuple(ring.sub(gc[i], qf[i]) for i in range(n))
    for i in range(n, m):
        if qf[i] != gc[i]:
            raise InvariantViolation("division identity fails at %d" % i,
                                     index=i)
    qb = ring.convolve(q, beta, m)
    for k in range(m - n, m):
        if not ring.is_zero(qb[k]):
            raise InvariantViolation(
                "fixed-point normalization fails at %d" % k, index=k)
    return Series(ring, m, tuple(q)), r


def prepare(f, schedule="lifting"):
    """Weierstrass preparation f = P * U from dividing x^n by f."""
    wf = _prepare_unverified(f, schedule)
    if not wf.verify(f):
        raise InvariantViolation("preparation roundtrip fails")
    return wf


def _prepare_unverified(f, schedule):
    ring = f.ring
    _require_finite(ring)
    m = f.x_prec
    n = reduction_index(f)
    xn = [ring.zero()] * m
    xn[n] = ring.one()
    q, r = weierstrass_divide(Series(ring, m, tuple(xn)), f, schedule)
    P = tuple(ring.neg(c) for c in r) + (ring.one(),)
    for i, c in enumerate(P[:-1]):
        if ring.val(c) == 0:
            raise InvariantViolation(
                "distinguished coefficient %d is a unit" % i, index=i)
    return WFactorization(0, n, P, series_invert(q), ring, m)


def strong_factor(f, schedule="lifting"):
    """Strong factorization f = pi^v * P * U. The windowed minimum
    valuation v is divided out, preparation runs at precision K - v,
    and the factors are lifted back to the original ring."""
    ring = f.ring
    _require_finite(ring)
    m = f.x_prec
    vals = [ring.val(c) for c in f.coeffs]
    finite = [v for v in vals if v is not None]
    if not finite:
        raise ZeroAtPrecision(
            "every windowed coefficient is zero at precision %d" % ring.prec,
            prec=ring.prec)
    v = min(finite)
    if v == 0:
        return prepare(f, schedule)

    s = ring.prec - v
    hi = ring.split(f.coeffs, v)[1]
    # the roundtrip check at precision K below implies the one at K - v
    wf = _prepare_unverified(Series(ring.at_prec(s), m, tuple(hi)), schedule)
    P = tuple(ring.join(wf.P, None, s))
    U = Series(ring, m, tuple(ring.join(wf.U.coeffs, None, s)))
    out = WFactorization(v, wf.n, P, U, ring, m)
    if not out.verify(f):
        raise InvariantViolation("strong factorization roundtrip fails")
    return out
