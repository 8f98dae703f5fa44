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

The quotient is found by solving for y = beta * q instead. With
gamma = alpha * beta^-1 cut to the window, only coefficients below the
window enter shift_n(q * alpha), so it equals shift_n(gamma * y), and
the fixed point becomes y = shift_n(g) - shift_n(gamma * y); as gamma
= 0 mod pi this contraction also gains one uniformizer power per
application, and by uniqueness of the fixed point q = beta^-1 * y is
the same q. It is computed level by level in the pi-adic precision: y
mod pi^k comes from y mod pi^ceil(k/2) and one correction solved at
the remaining precision, one product gamma * y per level, so most of
the arithmetic runs at a fraction of the ring's precision (Dixon's
p-adic lifting, as Newton-Hensel lifting). Each node works on its
ring's bulk form (Ring.bulk), over Z/p^k an int64 array below p^k =
2^62: a vector becomes an array where the tree first drops below that
bound, stays one down to the leaves, and the root's result becomes ints
once. The reference route, which iterates the contraction in q itself,
lives in the tests; they put it in place of `_quotient`, so both
quotients pass the same checks and must agree bit for bit.

Strong factorization splits f = pi^v * P * U with P a monic
distinguished polynomial (non-leading coefficients of positive
valuation) and U a unit series: the valuation content is divided out,
preparation runs at reduced precision, and the factors lift back.
"""

from dataclasses import dataclass

from .errors import (InvariantViolation, NoUnitCoefficient, RingMismatch,
                     ZeroAtPrecision)
from .rings import Ring
from .series import Series, series_invert


@dataclass(frozen=True)
class WFactorization:
    v: int
    n: int
    P: tuple  # monic, length n + 1
    U: Series
    ring: Ring
    x_prec: int

    def verify(self, f):
        """Check pi^v * P * U against f on the common window: the low v
        digits of f vanish and its high digits are P * U mod pi^(K - v)."""
        ring = self.ring
        if f.ring != ring:
            raise RingMismatch("factorization ring differs from operand ring")
        m = min(self.x_prec, f.x_prec)
        v = self.v
        k = ring.prec - v
        lo, hi = ring.split(f.coeffs[:m], v)
        if v and not all(map(ring.at_prec(v).is_zero, lo)):
            return False
        prod = ring.at_prec(k).convolve(ring.reduce(self.P, k),
                                        ring.reduce(self.U.coeffs[:m], k), m)
        return prod == hi


def reduction_index(f):
    """Least windowed index whose coefficient is a unit."""
    ring = f.ring
    for i, c in enumerate(f.coeffs):
        if ring.val(c) == 0:
            return i
    raise NoUnitCoefficient(
        "no unit coefficient in a window of %d" % f.x_prec, x_prec=f.x_prec)


def _require_finite(ring):
    if ring.is_exact:
        raise ValueError("division needs a finite-precision local ring, "
                         "got kind %s" % ring.kind)


def _lift_solve(ring, c, gamma, n, m):
    """The fixed point y = c + L(y), L(y) = -shift_n(gamma * y) on a
    window of m, for y and c of m - n terms (the top n terms of
    beta * q vanish), by divide-and-conquer on the pi-adic precision k.
    Mod pi, L vanishes and y = c. Otherwise y1 = y mod pi^k1,
    k1 = ceil(k/2), solves the same system at precision k1, and
    y2 = (y - y1) / pi^k1 solves it at precision k - k1 with constant
    term (c + L(y1) - y1) / pi^k1. Each node above precision 1 makes
    one product, gamma * y1 at its precision k: K - 1 in all. Each node
    works on its ring's bulk form (Ring.bulk), and the root's result is
    turned back into elements once."""
    levels = {}

    def level(k):
        if k not in levels:
            R = ring.at_prec(k)
            levels[k] = (R, R.bulk(ring.reduce(gamma, k)))
        return levels[k]

    def solve(c, k):
        if k == 1:
            return c
        R, gk = level(k)
        c = R.bulk(c)
        k1 = (k + 1) // 2
        lo = solve(R.reduce(c, k1), k1)
        y1 = R.join(lo, None, k1)
        return R.join(lo, solve(R.lift_product(c, gk, y1, n, k1), k - k1),
                      k1)

    return ring.elements(solve(c, ring.prec))


def _quotient(ring, g, alpha, binv, n, m):
    """q = beta^-1 * y, with y = beta * q lifted by _lift_solve from the
    constant term shift_n(g); for n = 0, y = g."""
    y = g[n:]
    if alpha:
        y = _lift_solve(ring, y, ring.convolve(binv, alpha, m), n, m)
    return ring.convolve(binv, y, m)


def weierstrass_divide(g, f):
    """Divide g by f: returns (q, r) with g = q * f + r on the window,
    deg r < n, and the fixed-point normalization above."""
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
    q = _quotient(ring, gc, alpha, binv, n, m)

    # q * f = q * alpha + x^n * q * beta: one n-tap and one full product
    qa = ring.convolve(q, alpha, m)
    qb = ring.convolve(q, beta, m)
    r = tuple(ring.sub(gc[i], qa[i]) for i in range(n))
    for i, e in enumerate(ring.lift_residual(gc[n:], qa[n:], qb, 0), n):
        if not ring.is_zero(e):
            raise InvariantViolation("division identity fails at %d" % i,
                                     index=i)
    for k in range(m - n, m):
        if not ring.is_zero(qb[k]):
            raise InvariantViolation(
                "fixed-point normalization fails at %d" % k, index=k)
    return Series(ring, m, tuple(q)), r


def prepare(f):
    """Weierstrass preparation f = P * U from dividing x^n by f."""
    wf = _prepare_unverified(f)
    if not wf.verify(f):
        raise InvariantViolation("preparation roundtrip fails")
    return wf


def _prepare_unverified(f):
    ring = f.ring
    _require_finite(ring)
    m = f.x_prec
    n = reduction_index(f)
    xn = [ring.zero()] * m
    xn[n] = ring.one()
    q, r = weierstrass_divide(Series(ring, m, tuple(xn)), f)
    P = tuple(ring.neg(c) for c in r) + (ring.one(),)
    for i, c in enumerate(P[:-1]):
        if ring.val(c) == 0:
            raise InvariantViolation(
                "distinguished coefficient %d is a unit" % i, index=i)
    return WFactorization(0, n, P, series_invert(q), ring, m)


def strong_factor(f):
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
        return prepare(f)

    s = ring.prec - v
    hi = ring.split(f.coeffs, v)[1]
    # the roundtrip check at precision K below implies the one at K - v
    wf = _prepare_unverified(Series(ring.at_prec(s), m, tuple(hi)))
    P = tuple(ring.join(wf.P, None, s))
    U = Series(ring, m, tuple(ring.join(wf.U.coeffs, None, s)))
    out = WFactorization(v, wf.n, P, U, ring, m)
    if not out.verify(f):
        raise InvariantViolation("strong factorization roundtrip fails")
    return out
