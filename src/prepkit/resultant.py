"""Resultants over exact coefficient rings, with size bounds.

Orientation: with f of degree m and g of degree n, the Sylvester matrix
stacks n rows of f's descending coefficients over m rows of g's, so
that det = lc(f)^n * product of g over the roots of f. Zero and
constants occupy one cell: Res(f, 0) = 0, Res(f, c) = c^m, and two
constants raise BothConstant.

`resultant` computes that determinant by the subresultant polynomial
remainder sequence, which needs only the ring's mul, sub and exact_div
and so serves the integers and F_p[t] alike. The tests hold it equal to
fraction-free (Bareiss) elimination of the Sylvester matrix, which
their oracles keep as the reference route.
"""

from dataclasses import dataclass

from .errors import BothConstant, RingMismatch
from .rings import ExactFpTRing, ExactZRing, Ring


@dataclass(frozen=True)
class Poly:
    ring: Ring
    coeffs: tuple  # ascending, trimmed; empty tuple is the zero polynomial

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero()

    def eval(self, x, ring=None):
        """Horner evaluation; an explicit ring reinterprets the
        coefficients (canonical lift) in that ring."""
        R = ring or self.ring
        acc = R.zero()
        for c in reversed(self.coeffs):
            acc = R.add(R.mul(acc, x), R.canon(c))
        return acc

    def deriv(self):
        """The formal derivative."""
        R, cs = self.ring, self.coeffs
        return make_poly(R, [R.mul(R.from_int(k), cs[k])
                             for k in range(1, len(cs))])


def make_poly(ring, coeffs):
    if not ring.is_exact:
        raise ValueError("polynomials live over exact kinds, got %s"
                         % ring.kind)
    out = [ring.canon(c) for c in coeffs]
    while out and ring.is_zero(out[-1]):
        out.pop()
    return Poly(ring, tuple(out))


def _sdeg(p):
    # Sylvester rank: zero and constants both occupy a single cell
    return max(p.degree, 0)


def _sylvester_dims(f, g):
    if f.ring != g.ring:
        raise RingMismatch("polynomial rings differ: %r vs %r"
                           % (f.ring, g.ring))
    m, n = _sdeg(f), _sdeg(g)
    if m == 0 and n == 0:
        raise BothConstant("both polynomials are constant")
    return m, n


def _prem(ring, A, B):
    """The deg B ascending coefficients of lc(B)^(deg A - deg B + 1) * A
    mod B. Only a window of deg B coefficients below the current top is
    live; a coefficient of A is scaled by the power of lc(B) it needs
    when it enters that window, so the cost is (deg A - deg B + 1)
    * deg B products however long A is."""
    b, low = B[-1], B[:-1]
    delta = len(A) - len(B)
    top, win = A[-1], A[delta:-1]
    scale = ring.one()
    for j in range(delta, -1, -1):
        # eliminate degree j + deg B; win becomes degrees j .. j + deg B - 1
        win = [ring.sub(ring.mul(b, w), ring.mul(top, c))
               for w, c in zip(win, low)]
        if j == 0:
            return win
        scale = ring.mul(scale, b)
        top = win[-1]
        win = [ring.mul(scale, A[j - 1])] + win[:-1]


def resultant(f, g):
    """Res(f, g), equal to the Sylvester determinant above, by the
    subresultant polynomial remainder sequence (Collins 1967; Brown and
    Traub 1971): each pseudo-remainder is divided exactly by the factor
    its leading coefficients predict, so coefficients stay the size of
    subresultants."""
    m, n = _sylvester_dims(f, g)
    ring = f.ring
    if not f.coeffs or not g.coeffs:
        return ring.zero()
    A, B = list(f.coeffs), list(g.coeffs)
    neg = False
    if len(A) < len(B):
        A, B = B, A
        neg = m * n % 2 == 1
    lead = h = ring.one()
    while len(B) > 1:
        d = len(A) - len(B)
        if (len(A) - 1) * (len(B) - 1) % 2:
            neg = not neg
        R = _prem(ring, A, B)
        while R and ring.is_zero(R[-1]):
            R.pop()
        if not R:
            return ring.zero()
        den = ring.mul(lead, ring.pow(h, d))
        A, B = B, [ring.exact_div(c, den) for c in R]
        lead = A[-1]
        if d:
            h = ring.exact_div(ring.pow(lead, d), ring.pow(h, d - 1))
    e = len(A) - 1
    out = ring.exact_div(ring.pow(B[0], e), ring.pow(h, e - 1))
    return ring.neg(out) if neg else out


@dataclass(frozen=True)
class BoundReport:
    which: str
    B: object
    lhs: int
    rhs: int
    bound_ok: bool


def hadamard_check(f, g):
    """Hadamard size bound over the integers:
    B^2 <= (sum f_i^2)^(deg g) * (sum g_i^2)^(deg f)."""
    if not isinstance(f.ring, ExactZRing):
        raise ValueError("the Hadamard bound applies over the integers")
    B = resultant(f, g)
    sf = sum(c * c for c in f.coeffs)
    sg = sum(c * c for c in g.coeffs)
    lhs = B * B
    rhs = sf ** _sdeg(g) * sg ** _sdeg(f)
    return BoundReport("hadamard", B, lhs, rhs, lhs <= rhs)


def tdegree_check(f, g):
    """t-degree bound over F_p[t]:
    deg_t(Res) <= H * deg(g) + A * deg(f), with H and A the largest
    coefficient t-degrees of f and g."""
    ring = f.ring
    if not isinstance(ring, ExactFpTRing):
        raise ValueError("the t-degree bound applies over a polynomial ring")
    H = max((ring.deg(c) for c in f.coeffs if c), default=0)
    A = max((ring.deg(c) for c in g.coeffs if c), default=0)
    B = resultant(f, g)
    lhs = ring.deg(B)
    rhs = H * _sdeg(g) + A * _sdeg(f)
    return BoundReport("tdegree", B, lhs, rhs, lhs <= rhs)
