"""Independent reference computations backing the test suite.

Everything here is stdlib-only and written without importing the library
under test, so each value can serve as an oracle for it. Run directly
(python tests/oracles.py) to recompute and check the golden table.
"""

import itertools
import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# small number-theory helpers

def inv_mod(a, m):
    return pow(a, -1, m)


def v_p(n, p):
    """Exact p-adic valuation of a nonzero integer."""
    assert n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def v2_mask(m):
    """Lowest set bit index: t-adic valuation of a GF(2)[t] bitmask."""
    assert m != 0
    return (m & -m).bit_length() - 1


def thue_morse(n):
    return bin(n).count("1") & 1


# ---------------------------------------------------------------------------
# GF(2)[t] arithmetic on int bitmasks (bit i = coefficient of t^i)

def b2mul(a, b):
    if a == 0 or b == 0:
        return 0
    if bin(a).count("1") > bin(b).count("1"):
        a, b = b, a
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc


def b2divmod(a, b):
    assert b != 0
    db = b.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= db and a != 0:
        shift = a.bit_length() - 1 - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def b2pow_mod(base, e, mod):
    result = 1
    while e:
        if e & 1:
            result = b2divmod(b2mul(result, base), mod)[1]
        base = b2divmod(b2mul(base, base), mod)[1]
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# dense series with Fraction coefficients (for compositional-inverse oracles)

def fr_mul(a, b, M):
    out = [Fraction(0)] * M
    for i, ai in enumerate(a[:M]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: M - i]):
            out[i + j] += ai * bj
    return out


def fr_invert(a, M):
    assert a[0] != 0
    g = [Fraction(0)] * M
    g[0] = 1 / Fraction(a[0])
    for k in range(1, M):
        s = sum(a[j] * g[k - j] for j in range(1, min(k, len(a) - 1) + 1))
        g[k] = -g[0] * s
    return g


def fr_compose(f, g, M):
    assert g[0] == 0
    out = [Fraction(0)] * M
    for c in reversed(f[:M]):
        out = fr_mul(out, g, M)
        out[0] += c
    return out


def lagrange_inverse(f, M):
    """Coefficients of the compositional inverse of f = x + ..., window M.

    g_n = (1/n) [x^(n-1)] (x/f)^n, computed with exact rationals.
    """
    assert f[0] == 0 and f[1] == 1
    h = [Fraction(c) for c in f[1:]] + [Fraction(0)]  # f/x, unit series
    g = [Fraction(0)] * M
    if M > 1:
        g[1] = Fraction(1)
    hin = fr_invert(h, M)
    power = [Fraction(1)] + [Fraction(0)] * (M - 1)
    for n in range(1, M):
        power = fr_mul(power, hin, M)  # (x/f)^n
        if n >= 2:
            g[n] = power[n - 1] / n
    return g


# ---------------------------------------------------------------------------
# compositional inverse over Z, Z/p^K and F_p[[t]] by the triangular
# relation (the reference route for Newton reversion)

def ring_ops(kind, p=None, K=None):
    """(zero, one, add, mul, neg) for kind z (ints), zp and zmodpk (ints
    mod p^K) or fpt (tuples of K digits mod p, truncated at t^K)."""
    if kind == "z":
        return 0, 1, (lambda a, b: a + b), (lambda a, b: a * b), (lambda a: -a)
    if kind in ("zp", "zmodpk"):
        mod = p ** K
        return (0, 1 % mod, (lambda a, b: (a + b) % mod),
                (lambda a, b: a * b % mod), (lambda a: -a % mod))

    def mul(a, b):
        out = [0] * K
        for i, x in enumerate(a):
            for j in range(K - i):
                out[i + j] += x * b[j]
        return tuple(c % p for c in out)

    return ((0,) * K, (1,) + (0,) * (K - 1),
            (lambda a, b: tuple((x + y) % p for x, y in zip(a, b))), mul,
            (lambda a: tuple(-x % p for x in a)))


def triangular_inverse(f, ops):
    """Compositional inverse of f = x + ... on its window M: g(f) = x
    gives g_n = -sum_{k<n} g_k [x^n] f^k, with schoolbook powers of f
    (O(M^3) ring products)."""
    zero, one, add, mul, neg = ops
    M = len(f)
    assert f[0] == zero and f[1] == one
    powers = [None, list(f)]
    for _ in range(2, M):
        prev, nxt = powers[-1], [zero] * M
        for i, x in enumerate(prev):
            if x != zero:
                for j in range(1, M - i):
                    nxt[i + j] = add(nxt[i + j], mul(x, f[j]))
        powers.append(nxt)
    g = [zero, one]
    for n in range(2, M):
        s = zero
        for k in range(1, n):
            s = add(s, mul(g[k], powers[k][n]))
        g.append(neg(s))
    return g


# ---------------------------------------------------------------------------
# dense series mod p^K (Weierstrass division oracle)

def pmul(a, b, M, mod):
    out = [0] * M
    for i, ai in enumerate(a[:M]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: M - i]):
            out[i + j] = (out[i + j] + ai * bj) % mod
    return out


def pinv_series(f, M, mod):
    g = [0] * M
    g[0] = inv_mod(f[0], mod)
    for k in range(1, M):
        s = sum(f[j] * g[k - j] for j in range(1, min(k, len(f) - 1) + 1))
        g[k] = (-g[0] * s) % mod
    return g


def wdivide(g, f, p, K, M, mod=None):
    """Weierstrass division of g by f in (Z/p^K)[[x]] on an M-window.

    Returns (q, r, n). Fixed point of q -> binv * shift_n(g - q*alpha),
    iterated K+2 times from zero; the contraction gains one power of p
    per pass, so the result is stationary and exact mod (p^K, x^M).
    """
    if mod is None:
        mod = p ** K
    f = [c % mod for c in f] + [0] * (M - len(f))
    g = [c % mod for c in g] + [0] * (M - len(g))
    n = next(i for i in range(M) if f[i] % p != 0)
    alpha = f[:n]
    beta = f[n:] + [0] * n
    binv = pinv_series(beta, M, mod)
    q = [0] * M
    for _ in range(K + 2):
        qa = pmul(q, alpha, M, mod) if alpha else [0] * M
        diff = [(g[i] - qa[i]) % mod for i in range(M)]
        shifted = diff[n:] + [0] * n
        q = pmul(binv, shifted, M, mod)
    # identity and normalization checks
    qf = pmul(q, f, M, mod)
    r = [(g[i] - qf[i]) % mod for i in range(n)]
    for i in range(n, M):
        assert qf[i] == g[i] % mod, "division identity fails"
    qb = pmul(q, beta, M, mod)
    for k in range(M - n, M):
        assert qb[k] == 0, "fixed-point normalization fails"
    return q, r, n


def wprepare(f, p, K, M, mod=None):
    """Preparation from division of x^n by f: P = x^n - r, U = 1/q."""
    if mod is None:
        mod = p ** K
    fpad = [c % mod for c in f] + [0] * (M - len(f))
    n = next(i for i in range(M) if fpad[i] % p != 0)
    xn = [0] * M
    xn[n] = 1
    q, r, n2 = wdivide(xn, fpad, p, K, M, mod)
    assert n2 == n
    P = [(-c) % mod for c in r] + [1]
    for c in P[:-1]:
        assert c % p == 0
    assert q[0] % p != 0
    U = pinv_series(q, M, mod)
    PU = pmul(P + [0] * (M - len(P)), U, M, mod)
    for i in range(M):
        assert PU[i] == fpad[i], "P*U != f"
    return P, U, n


def contraction_quotient(ring, g, alpha, binv, n, m):
    """The reference route for the library's Weierstrass quotient, with
    its signature: K + 2 passes of the contraction
    q <- beta^-1 * shift_n(g - q * alpha) from zero, each at full
    precision, in the ring methods of the library ring it is given."""
    q = [ring.zero()] * m
    for _ in range(ring.prec + 2):
        qa = ring.convolve(q, alpha, m) if alpha else [ring.zero()] * m
        q = ring.convolve(binv, [ring.sub(g[i], qa[i]) for i in range(n, m)]
                          + [ring.zero()] * n, m)
    return q


# ---------------------------------------------------------------------------
# integer and GF(2)[t] determinants (Bareiss), Sylvester layout

def sylvester(fc, gc, zero=0):
    """Sylvester matrix from ascending coefficient lists, zero polys as
    degree-0 constants. deg g rows of f (descending, shifted) then deg f
    rows of g. zero is the coefficient ring's zero element."""
    def deg(c):
        d = len(c) - 1
        while d > 0 and c[d] == zero:
            d -= 1
        return d
    m, n = deg(fc), deg(gc)
    assert m >= 1 or n >= 1
    size = m + n
    fd = list(reversed(fc[: m + 1]))
    gd = list(reversed(gc[: n + 1]))
    rows = []
    for i in range(n):
        rows.append([zero] * i + fd + [zero] * (size - i - m - 1))
    for i in range(m):
        rows.append([zero] * i + gd + [zero] * (size - i - n - 1))
    return rows


def bareiss_int(mat):
    m = [row[:] for row in mat]
    size = len(m)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


def bareiss_b2(mat):
    """Bareiss over GF(2)[t] bitmasks (sign-free in characteristic 2)."""
    m = [row[:] for row in mat]
    size = len(m)
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = b2mul(m[i][j], m[k][k]) ^ b2mul(m[i][k], m[k][j])
                q, rem = b2divmod(num, prev)
                assert rem == 0
                m[i][j] = q
            m[i][k] = 0
        prev = m[k][k]
    return m[size - 1][size - 1]


def res_int(fc, gc):
    return bareiss_int(sylvester(fc, gc))


def res_b2(fc, gc):
    return bareiss_b2(sylvester(fc, gc))


# ---------------------------------------------------------------------------
# the generic reference resultant: Bareiss elimination of the Sylvester
# matrix of two library polynomials, in their ring's own arithmetic
# (zero, one, mul, sub, neg, is_zero, exact_div) and no other library code

def sylvester_matrix(f, g):
    """The Sylvester matrix of the polynomials f and g, as rows of ring
    elements."""
    z = f.ring.zero()
    return sylvester(list(f.coeffs) or [z], list(g.coeffs) or [z], z)


def bareiss_ring(ring, mat):
    m = [row[:] for row in mat]
    size = len(m)
    neg = False
    prev = ring.one()
    for k in range(size - 1):
        if ring.is_zero(m[k][k]):
            swap = next((i for i in range(k + 1, size)
                         if not ring.is_zero(m[i][k])), None)
            if swap is None:
                return ring.zero()
            m[k], m[swap] = m[swap], m[k]
            neg = not neg
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = ring.sub(ring.mul(m[i][j], m[k][k]),
                               ring.mul(m[i][k], m[k][j]))
                m[i][j] = ring.exact_div(num, prev)
            m[i][k] = ring.zero()
        prev = m[k][k]
    out = m[size - 1][size - 1]
    return ring.neg(out) if neg else out


def resultant_generic(f, g):
    """Res(f, g) by fraction-free elimination of the Sylvester matrix:
    the reference route for prepkit's resultant."""
    return bareiss_ring(f.ring, sylvester_matrix(f, g))


# ---------------------------------------------------------------------------
# finite fields F_{p^d} as lookup machines (d <= 3), root-product resultants

def _fp_poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def find_irreducible(p, d):
    """Lexicographically least monic irreducible of degree d over F_p.
    For d in {2, 3} irreducibility is equivalent to having no root."""
    if d == 1:
        return [0, 1]
    for code in range(p ** d):
        digits = []
        c = code
        for _ in range(d):
            digits.append(c % p)
            c //= p
        poly = digits + [1]
        if all(_fp_poly_eval(poly, x, p) != 0 for x in range(p)):
            return poly
    raise AssertionError("no irreducible found")


class GFTable:
    """F_{p^d} with elements encoded as ints in [0, p^d): base-p digit
    vectors against the power basis of a fixed irreducible."""

    def __init__(self, p, d):
        self.p, self.d, self.q = p, d, p ** d
        self.modpoly = find_irreducible(p, d)
        self.add_table = self.mul_table = None
        if self.q <= 130:
            self.add_table = [
                [self._add_slow(a, b) for b in range(self.q)]
                for a in range(self.q)
            ]
            self.mul_table = [
                [self._mul_slow(a, b) for b in range(self.q)]
                for a in range(self.q)
            ]

    def _digits(self, a):
        out = []
        for _ in range(self.d):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits):
        acc = 0
        for c in reversed(digits):
            acc = acc * self.p + c
        return acc

    def _add_slow(self, a, b):
        da, db = self._digits(a), self._digits(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def add(self, a, b):
        if self.add_table is not None:
            return self.add_table[a][b]
        return self._add_slow(a, b)

    def _mul_slow(self, a, b):
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.d - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by the monic modpoly
        for k in range(len(prod) - 1, self.d - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i, m in enumerate(self.modpoly[:-1]):
                    prod[k - self.d + i] = (prod[k - self.d + i] - c * m) % self.p
        return self._encode(prod[: self.d])

    def mul(self, a, b):
        if self.mul_table is not None:
            return self.mul_table[a][b]
        return self._mul_slow(a, b)

    def pow(self, a, e):
        acc = 1
        while e:
            if e & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            e >>= 1
        return acc

    def embed(self, c):
        return c % self.p

    def poly_eval(self, coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), self.embed(c))
        return acc

    def norm(self, z):
        """Norm to F_p: product of the d Frobenius conjugates."""
        acc = 1
        w = z
        for _ in range(self.d):
            acc = self.mul(acc, w)
            w = self.pow(w, self.p)
        assert acc < self.p
        return acc


def fp_deg(c):
    d = len(c) - 1
    while d > 0 and c[d] == 0:
        d -= 1
    return d


def fp_factor_cubic_window(coeffs, p):
    """Factor a nonzero poly of degree <= 3 over F_p into
    (lc, [(monic irreducible, multiplicity)...]). Trial roots plus the
    no-root criterion for quadratics and cubics."""
    d = fp_deg(coeffs)
    c = [x % p for x in coeffs[: d + 1]]
    lc = c[-1]
    inv = inv_mod(lc, p)
    c = [(x * inv) % p for x in c]  # monic
    factors = {}
    while fp_deg(c) >= 1:
        dd = fp_deg(c)
        root = next((r for r in range(p) if _fp_poly_eval(c, r, p) == 0), None)
        if root is None:
            key = tuple(c[: dd + 1])
            factors[key] = factors.get(key, 0) + 1
            break
        # deflate by (x - root)
        key = ((-root) % p, 1)
        factors[key] = factors.get(key, 0) + 1
        out = [0] * dd
        acc = 0
        for k in range(dd, 0, -1):
            acc = (c[k] + acc * root) % p
            out[k - 1] = acc
        c = out
    return lc, [(list(k), m) for k, m in factors.items()]


_gf_cache = {}


def gf_table(p, d):
    if (p, d) not in _gf_cache:
        _gf_cache[(p, d)] = GFTable(p, d)
    return _gf_cache[(p, d)]


_roots_cache = {}


def _factor_roots(fc, p):
    """lc(f) and, per irreducible factor of f, its splitting field, one
    root there and its multiplicity; memoized per f, since the pairs
    that res_roots_fp serves repeat each f many times."""
    key = (tuple(fc), p)
    if key not in _roots_cache:
        lc, factors = fp_factor_cubic_window(fc, p)
        roots = []
        for monic, mult in factors:
            fld = gf_table(p, fp_deg(monic))
            root = next(a for a in range(fld.q)
                        if fld.poly_eval(monic, a) == 0)
            roots.append((fld, root, mult))
        _roots_cache[key] = lc, roots
    return _roots_cache[key]


def res_roots_fp(fc, gc, p):
    """Res(f, g) over F_p by root products: lc(f)^deg(g) times the norm of
    g at one root of each irreducible factor of f, per multiplicity."""
    df, dg = fp_deg(fc), fp_deg(gc)
    if df == 0:
        return pow(fc[0] % p, dg, p)
    lc, roots = _factor_roots(fc, p)
    res = pow(lc, dg, p)
    for fld, root, mult in roots:
        val = fld.poly_eval(gc, root)
        res = (res * pow(fld.norm(val), mult, p)) % p
    return res


def fp_gcd_nonconstant(fc, gc, p):
    """Euclid over F_p: True iff gcd(f, g) has positive degree."""
    a = [x % p for x in fc[: fp_deg(fc) + 1]]
    b = [x % p for x in gc[: fp_deg(gc) + 1]]
    while fp_deg(b) > 0 or b[0] != 0:
        if fp_deg(b) == 0:
            return False  # gcd is a unit
        # a mod b
        da, db = fp_deg(a), fp_deg(b)
        a = a[: da + 1]
        binv = inv_mod(b[db], p)
        while da >= db and any(a):
            c = (a[da] * binv) % p
            if c:
                for i in range(db + 1):
                    a[da - db + i] = (a[da - db + i] - c * b[i]) % p
            da -= 1
            while da >= 0 and a[da] == 0:
                da -= 1
            if da < 0:
                a = [0]
                break
            a = a[: da + 1]
        a, b = b, a
    return fp_deg(a) > 0


# ---------------------------------------------------------------------------
# closed-form resultants for certificate candidates of degree 1 and 2

def res_deg1_char0(c0, c1, phi_terms, phi_deg):
    """Res(c1 x + c0, Phi) = sum phi_k (-c0)^k c1^(deg Phi - k)."""
    acc = 0
    for k, a in phi_terms:
        acc += a * ((-c0) ** k) * (c1 ** (phi_deg - k))
    return acc


class QuadRep0:
    """x^e classes mod P = al x^2 + be x + ga over Z, tracked as
    (U x + V) / al^eden."""

    def __init__(self, al, be, ga):
        self.al, self.be, self.ga = al, be, ga

    def one(self):
        return (0, 1, 0)

    def x(self):
        return (1, 0, 0)

    def mul(self, a, b):
        U, V, e = a
        U2, V2, e2 = b
        nU = (U * V2 + U2 * V) * self.al - U * U2 * self.be
        nV = V * V2 * self.al - U * U2 * self.ga
        return (nU, nV, e + e2 + 1)

    def pow_x(self, E):
        acc = self.one()
        base = self.x()
        while E:
            if E & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            E >>= 1
        return acc


def res_deg2_char0(c0, c1, c2, phi_terms, phi_deg):
    """Res(c2 x^2 + c1 x + c0, Phi) via x^E reduction mod the candidate."""
    al, be, ga = c2, c1, c0
    rep = QuadRep0(al, be, ga)
    reps = [(a, rep.pow_x(k)) for k, a in phi_terms]
    emax = max(e for _, (_, _, e) in reps)
    A = sum(a * U * al ** (emax - e) for a, (U, V, e) in reps)
    B = sum(a * V * al ** (emax - e) for a, (U, V, e) in reps)
    num = A * A * ga - A * B * be + al * B * B
    diff = phi_deg - (2 * emax + 1)
    if diff >= 0:
        return num * al ** diff
    den = al ** (-diff)
    assert num % den == 0
    return num // den


class QuadRep2:
    """Characteristic-2 variant over GF(2)[t] bitmasks."""

    def __init__(self, al, be, ga):
        self.al, self.be, self.ga = al, be, ga

    def one(self):
        return (0, 1, 0)

    def x(self):
        return (1, 0, 0)

    def mul(self, a, b):
        U, V, e = a
        U2, V2, e2 = b
        cross = b2mul(U, V2) ^ b2mul(U2, V)
        nU = b2mul(cross, self.al) ^ b2mul(b2mul(U, U2), self.be)
        nV = b2mul(b2mul(V, V2), self.al) ^ b2mul(b2mul(U, U2), self.ga)
        return (nU, nV, e + e2 + 1)

    def pow_x(self, E):
        acc = self.one()
        base = self.x()
        while E:
            if E & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            E >>= 1
        return acc


def b2pow(a, e):
    acc = 1
    while e:
        if e & 1:
            acc = b2mul(acc, a)
        a = b2mul(a, a)
        e >>= 1
    return acc


def res_deg2_char2(c0, c1, c2, phi_terms, phi_deg):
    al, be, ga = c2, c1, c0
    rep = QuadRep2(al, be, ga)
    reps = [(a, rep.pow_x(k)) for k, a in phi_terms]
    emax = max(e for _, (_, _, e) in reps)
    A = 0
    B = 0
    for a, (U, V, e) in reps:
        scale = b2pow(al, emax - e)
        A ^= b2mul(a, b2mul(U, scale))
        B ^= b2mul(a, b2mul(V, scale))
    num = b2mul(b2mul(A, A), ga) ^ b2mul(b2mul(A, B), be) ^ b2mul(al, b2mul(B, B))
    diff = phi_deg - (2 * emax + 1)
    if diff >= 0:
        return b2mul(num, b2pow(al, diff))
    q, rem = b2divmod(num, b2pow(al, -diff))
    assert rem == 0
    return q


def res_deg1_char2(c0, c1, phi_terms, phi_deg):
    acc = 0
    for k, a in phi_terms:
        acc ^= b2mul(a, b2mul(b2pow(c0, k), b2pow(c1, phi_deg - k)))
    return acc


# ---------------------------------------------------------------------------
# gap-series roots by Newton iteration

GAP_EXPS = [0, 1, 2, 16, 512]  # exponents of the reference series below x^600


def gap_eval_2adic(lam, K):
    mod = 1 << K
    acc = 2 % mod
    for e in GAP_EXPS[1:]:
        if e < K:  # v(lam) >= 1 so higher terms vanish mod 2^K
            acc = (acc + pow(lam, e, mod)) % mod
    return acc


def gap_deriv_2adic(lam, K):
    mod = 1 << K
    acc = 0
    for e in GAP_EXPS[1:]:
        acc = (acc + e * pow(lam, e - 1, mod)) % mod
    return acc


def gap_root_2adic(K):
    mod = 1 << K
    lam = 0
    for _ in range(K.bit_length() + 4):
        fv = gap_eval_2adic(lam, K)
        if fv == 0:
            break
        dv = gap_deriv_2adic(lam, K)
        assert dv % 2 == 1
        lam = (lam - fv * inv_mod(dv, mod)) % mod
    assert gap_eval_2adic(lam, K) == 0
    return lam


def gap_eval_t(lam, K):
    """Reference char-2 twin t + x + x^2 + x^16 + x^512 at lam, mod t^K."""
    mask = (1 << K) - 1
    acc = 2  # the element t
    for e in GAP_EXPS[1:]:
        if e < K:
            acc ^= b2pow_mod(lam, e, 1 << K)
    return acc & mask


def gap_root_t(K):
    # derivative is identically 1 in characteristic 2 (all other exponents even)
    lam = 0
    for _ in range(K.bit_length() + 4):
        fv = gap_eval_t(lam, K)
        if fv == 0:
            break
        lam ^= fv
    assert gap_eval_t(lam, K) == 0
    return lam


def phi_val_2adic(lam, N, K):
    """v2 of Phi_N(lam) where Phi_N keeps exponents <= b(N)."""
    b = [1, 2, 16, 512]
    keep = [e for e in GAP_EXPS if e <= b[N]]
    mod = 1 << K
    acc = 0
    for e in keep:
        acc = (acc + (2 if e == 0 else pow(lam, e, mod))) % mod
    assert acc != 0
    return v_p(acc, 2)


def phi_val_t(lam, N, K):
    b = [1, 2, 16, 512]
    keep = [e for e in GAP_EXPS if e <= b[N]]
    acc = 0
    for e in keep:
        acc ^= 2 if e == 0 else b2pow_mod(lam, e, 1 << K)
    acc &= (1 << K) - 1
    assert acc != 0
    return v2_mask(acc)


# ---------------------------------------------------------------------------
# margins (cleared integer comparisons, no logs)

def margin_char0(p, lam_val, bN, bN1, kn, kd, cn, cd, L):
    lhs = p ** (2 * lam_val * bN1) * kd ** 2 * (cn ** 2 - cd ** 2) * cd ** (2 * bN)
    rhs = kn ** 2 * cn ** 2 * L ** bN * cn ** (2 * bN)
    return lhs, rhs, lhs > rhs


def margin_charp(lam_val, bN, bN1, hp, aphi, degp):
    lhs = bN1 * lam_val
    rhs = hp * bN + aphi * degp
    return lhs, rhs, lhs > rhs


# ---------------------------------------------------------------------------
# rationality scanners

def periodic_scan(seq, budget):
    """Least (d, s) lexicographic with s + 2d <= budget and
    seq[n + d] == seq[n] for all n in [s, budget - d). None if no fit."""
    for d in range(1, budget // 2 + 1):
        for s in range(0, budget - 2 * d + 1):
            if all(seq[n + d] == seq[n] for n in range(s, budget - d)):
                return d, s
    return None


def recurrence_scan_fp(seq, max_order, p):
    """Least order d <= max_order with a monic-constant recurrence
    sum q_i a_(n-i) = 0 (q_0 = 1) holding for every n in [d, M)."""
    return _recurrence_scan([x % p for x in seq], max_order,
                            lambda x: x % p, lambda x: inv_mod(x, p))


def recurrence_scan_q(seq, max_order):
    """recurrence_scan_fp over the rationals, in exact Fractions."""
    return _recurrence_scan([Fraction(x) for x in seq], max_order,
                            lambda x: x, lambda x: 1 / x)


def _recurrence_scan(seq, max_order, red, inv):
    M = len(seq)
    for d in range(1, max_order + 1):
        rows = [[seq[n - i] for i in range(1, d + 1)] + [red(-seq[n])]
                for n in range(d, M)]
        sol = _solve(rows, d, red, inv)
        if sol is None:
            continue
        q = [red(1)] + sol
        if all(red(sum(q[i] * seq[n - i] for i in range(d + 1))) == 0
               for n in range(d, M)):
            return d, q
    return None


def _solve(rows, nvars, red, inv):
    """Gauss-Jordan over a field given by its reduction and inverse;
    free variables are set to zero."""
    mat = [r[:] for r in rows]
    where = [-1] * nvars
    row = 0
    for col in range(nvars):
        piv = next((r for r in range(row, len(mat)) if red(mat[r][col])), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        iv = inv(red(mat[row][col]))
        mat[row] = [red(x * iv) for x in mat[row]]
        for r in range(len(mat)):
            if r != row and red(mat[r][col]):
                c = red(mat[r][col])
                mat[r] = [red(x - c * y) for x, y in zip(mat[r], mat[row])]
        where[col] = row
        row += 1
    for r in range(row, len(mat)):
        if red(mat[r][nvars]) != 0:
            return None  # inconsistent
    sol = [red(0)] * nvars
    for col in range(nvars):
        if where[col] >= 0:
            sol[col] = red(mat[where[col]][nvars])
    return sol


# ---------------------------------------------------------------------------
# H10 encoder pieces

def zigzag(n):
    return (n + 1) // 2 if n % 2 else -(n // 2)


def _spiral_walk():
    """Counterclockwise square spiral from the origin: right 1, up 1,
    left 2, down 2, right 3, up 3, ..."""
    x = y = 0
    yield (0, 0)
    dirs = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    run = 1
    di = 0
    while True:
        for _ in range(2):
            dx, dy = dirs[di % 4]
            for _ in range(run):
                x, y = x + dx, y + dy
                yield (x, y)
            di += 1
        run += 1


_spiral_src = _spiral_walk()
_spiral_cache = []


def spiral_point(n):
    while len(_spiral_cache) <= n:
        _spiral_cache.append(next(_spiral_src))
    return _spiral_cache[n]


def spiral(count):
    return [spiral_point(i) for i in range(count)]


def cantor_unpair(z):
    w = (math.isqrt(8 * z + 1) - 1) // 2
    t = w * (w + 1) // 2
    b = z - t
    return w - b, b


def theta(n, d):
    if d == 1:
        return (zigzag(n),)
    if d == 2:
        return spiral_point(n)
    parts = []
    z = n
    for _ in range(d - 1):
        a, z = cantor_unpair(z)
        parts.append(a)
    parts.append(z)
    return tuple(zigzag(v) for v in parts)


def exponent_E(P, pts):
    """P: callable on integer tuples; pts: list of points scanned so far."""
    acc = 1
    for q in pts:
        v = P(q)
        acc *= v * v * (1 + v * v)
    return acc


def bp_sequence(P, d, upto, bit_budget):
    """Exact b values until the budget bites; returns (values, over_index,
    prediction) with over_index None if all exact."""
    values = [1]
    pts = [theta(i, d) for i in range(upto + 1)]
    for n in range(1, upto + 1):
        E = exponent_E(P, pts[: n + 1])
        b = values[-1]
        if E == 0:
            values.append(b + 1)
            continue
        if b == 1:
            values.append(2)
            continue
        predicted = E * (b.bit_length() - 1)
        if predicted >= bit_budget:
            return values, n, predicted
        t = b ** E
        nxt = b + t
        if nxt.bit_length() > bit_budget:
            return values, n, nxt.bit_length()
        values.append(nxt)
    return values, None, None


# ---------------------------------------------------------------------------

def check(name, got, want=None):
    if want is not None:
        assert got == want, f"{name}: got {got!r}, want {want!r}"
    print(f"{name} = {got}")


def main():
    print("# ring element goldens")
    check("zp5k3_inv2", inv_mod(2, 125), 63)
    check("zp5k8_decompose50", (v_p(50, 5), 50 // 25), (2, 2))
    check("exactz_p2_val48", v_p(48, 2), 4)
    check("exactz_p5_val7", v_p(7, 5), 0)

    print("\n# series goldens")
    sq = pmul([2, 2], [2, 2], 3, 4)
    check("zmod4_2plus2x_squared", sq, [0, 0, 0])
    check("f5_invert_2plusx", pinv_series([2, 1], 4, 5), [3, 1, 2, 4])
    comp = fr_compose([0, 0, 1], [0, 1, 0, 1], 7)
    check("compose_xsq_at_xplusx3", [int(c) for c in comp], [0, 0, 1, 0, 2, 0, 1])
    cat = lagrange_inverse([0, 1, 1], 7)
    check("inverse_x_plus_x2", [int(c) for c in cat], [0, 1, -1, 2, -5, 14, -42])
    cat2 = lagrange_inverse([0, 1, 0, 1], 6)
    check("inverse_x_plus_x3", [int(c) for c in cat2], [0, 1, 0, -1, 0, 3])
    tri = triangular_inverse([0, 1, 1, 0, 0, 0, 0], ring_ops("z"))
    check("triangular_inverse_x_plus_x2", tri, [0, 1, -1, 2, -5, 14, -42])
    geo = sum(1 << i for i in range(8))
    check("evaluate_geom_at2_target8", geo, 255)

    print("\n# weierstrass goldens")
    q, r, n = wdivide([0, 0, 1], [5, 1], 5, 4, 4)
    check("divide_x2_by_5px_q", q, [620, 1, 0, 0])
    check("divide_x2_by_5px_r", r, [25])
    q, r, n = wdivide([1], [5, 1], 5, 3, 3)
    check("divide_1_by_5px", (q, r), ([0, 0, 0], [1]))
    P, U, n = wprepare([5, 1, 1], 5, 3, 3)
    check("prepare_5_x_x2_P", P, [30, 1])
    check("prepare_5_x_x2_U", U)
    check("prepare_5_x_x2_n", n, 1)
    # strong factorization: divide out pi^v, prepare at K - v, lift
    P, U, n = wprepare([2, 1], 2, 2, 2, mod=4)  # 4+2x over Z/8, v=1, work mod 4
    check("strong_z8_P", P, [2, 1])
    check("strong_z8_U", U, [1, 0])
    P9, U9, n9 = wprepare([1, 1, 1, 1], 3, 3, 4, mod=27)  # 9/(1-x) over Z_3 K=5
    check("strong_z3_P", P9, [1])
    check("strong_z3_U", U9, [1, 1, 1, 1])
    check("strong_z3_n", n9, 0)

    print("\n# resultant goldens")
    check("sylvester_x2p1_xm1", sylvester([1, 0, 1], [-1, 1]),
          [[1, 0, 1], [1, -1, 0], [0, 1, -1]])
    check("res_xm1_xm2", res_int([-1, 1], [-2, 1]), -1)
    check("res_x2p1_xm1", res_int([1, 0, 1], [-1, 1]), 2)
    check("res_self", res_int([1, 0, 1], [1, 0, 1]), 0)
    check("hadamard_xm1_xm2", (1, (1 + 1) ** 1 * (1 + 4) ** 1), (1, 10))
    check("hadamard_x2p1_xm1", (4, (1 + 1) ** 1 * (1 + 1) ** 2), (4, 8))
    # t-degree cases over GF(2)[t]: x + t vs x + t^2, then tx+1 vs x+t
    rt = res_b2([0b10, 1], [0b100, 1])
    check("res_xpt_xpt2", rt, 0b110)  # t + t^2
    check("tdeg_xpt_xpt2", (rt.bit_length() - 1, 1 * 1 + 2 * 1), (2, 3))
    rt2 = res_b2([1, 0b10], [0b10, 1])
    check("res_txp1_xpt", rt2, 0b101)  # 1 + t^2
    check("tdeg_txp1_xpt", (rt2.bit_length() - 1, 1 * 1 + 1 * 1), (2, 2))

    print("\n# exhaustive resultant counts and self-consistency (F_2, F_3)")
    for p, want_pairs in ((2, 224), (3, 6396)):
        polys = []
        for code in range(1, p ** 4):
            c = []
            v = code
            for _ in range(4):
                c.append(v % p)
                v //= p
            polys.append(c)
        pairs = 0
        for f in polys:
            for g in polys:
                if fp_deg(f) == 0 and fp_deg(g) == 0:
                    continue
                pairs += 1
                det = res_int(f, g) % p if (fp_deg(f) or fp_deg(g)) else None
                rr = res_roots_fp(f, g, p)
                assert det == rr, (f, g, det, rr)
                assert (rr == 0) == fp_gcd_nonconstant(f, g, p), (f, g)
        check(f"f{p}_exhaustive_pairs", pairs, want_pairs)
    check("f5_expected_pairs", (5 ** 4 - 1) ** 2 - (5 - 1) ** 2, 389360)

    print("\n# gap series: 2-adic root and Phi valuations")
    lam = gap_root_2adic(600)
    check("lam_mod4", lam % 4, 2)
    check("lam_mod_2e20", lam % (1 << 20))
    check("phi0_val", phi_val_2adic(lam, 0, 600), 2)
    check("phi1_val", phi_val_2adic(lam, 1, 600), 16)
    check("phi2_val", phi_val_2adic(lam, 2, 600), 512)
    # linear factor via suffix sums: f = (x - lam) * W mod (2^600, x^600)
    K = 600
    mod = 1 << K
    fcoef = {0: 2, 1: 1, 2: 1, 16: 1, 512: 1}
    W = [0] * K
    for k in range(K - 1, -1, -1):
        W[k] = (W[k + 1] * lam + fcoef.get(k + 1, 0)) % mod if k + 1 < K else fcoef.get(k + 1, 0)
    assert W[0] % 2 == 1, "unit cofactor"
    for m in range(K):
        lhs = ((W[m - 1] if m >= 1 else 0) - lam * W[m]) % mod
        assert lhs == fcoef.get(m, 0) % mod, m
    check("suffix_cofactor_identity", "ok")
    mu = (lam + (1 << 300)) % mod
    check("perturbed_f_val", v_p(gap_eval_2adic(mu, 600), 2), 300)
    check("perturbed_P_val", v_p((mu - lam) % mod, 2), 300)

    print("\n# gap series: t-adic twin")
    lt = gap_root_t(600)
    check("lam_t_mod_t2", lt & 3, 2)
    check("phi0_val_t", phi_val_t(lt, 0, 600), 2)
    check("phi1_val_t", phi_val_t(lt, 1, 600), 16)
    check("phi2_val_t", phi_val_t(lt, 2, 600), 512)

    print("\n# hensel goldens")
    x = 1
    trace = [x]
    for _ in range(4):
        fv = (x * x - 6) % 125
        dv = (2 * x) % 125
        x = (x - fv * inv_mod(dv, 125)) % 125
        trace.append(x)
    check("sqrt6_mod125", x, 16)
    check("sqrt6_trace_prefix", trace[:3], [1, 66, 16])
    assert pow(16, 2, 125) == 6

    print("\n# certificate goldens over the reference gap series")
    b = [1, 2, 16, 512]
    # Phi terms as (exponent, coefficient): a0 at 0, a1 at 1, a_m at b(m)
    def phi_terms_char0(N):
        return [(0, 2), (1, 1)] + [(b[m], 1) for m in range(1, N + 1)]
    t1 = phi_terms_char0(1)
    check("B_for_x_at_N1", res_deg1_char0(0, 1, t1, b[1]), 2)
    check("B_for_xminus2_at_N1", res_deg1_char0(-2, 1, t1, b[1]), 8)
    # closed form vs Sylvester determinant, degree 2 candidates
    def phi_dense(N):
        out = [0] * (b[N] + 1)
        for k, a in phi_terms_char0(N):
            out[k] += a
        return out
    phi1, phi2 = phi_dense(1), phi_dense(2)
    for (c0, c1, c2) in [(1, 1, 1), (5, -3, 2), (5, 5, 5), (-4, 0, 3), (2, 1, 1)]:
        direct1 = res_int([c0, c1, c2], phi1)
        closed1 = res_deg2_char0(c0, c1, c2, phi_terms_char0(1), b[1])
        assert direct1 == closed1, (c0, c1, c2, direct1, closed1)
        direct2 = res_int([c0, c1, c2], phi2)
        closed2 = res_deg2_char0(c0, c1, c2, phi_terms_char0(2), b[2])
        assert direct2 == closed2, (c0, c1, c2, direct2, closed2)
    check("deg2_closed_form_matches_bareiss", "ok")
    for (c0, c1) in [(1, 1), (-2, 1), (3, 5), (0, 1), (-5, 4)]:
        direct = res_int([c0, c1], phi2)
        closed = res_deg1_char0(c0, c1, phi_terms_char0(2), b[2])
        assert direct == closed, (c0, c1)
    check("deg1_closed_form_matches_bareiss", "ok")

    print("\n# full char-0 family at D=2, H=5, N=2")
    # degree 1: lead 1..H, constant -H..H; degree 2: lead 1..H, others -H..H
    H = 5
    fam = []
    for c1 in range(1, H + 1):
        for c0 in range(-H, H + 1):
            fam.append((c0, c1))
    for c2 in range(1, H + 1):
        for c1 in range(-H, H + 1):
            for c0 in range(-H, H + 1):
                fam.append((c0, c1, c2))
    check("family_size_char0", len(fam), 660)
    small = sum(1 for c1 in range(1, 4) for c0 in range(-3, 4))
    check("family_size_D1_H3", small, 21)
    certified = shared = inconclusive = 0
    phiv = 512  # v2(Phi_2(lam)) = b(3)
    maxv = -1
    for cand in fam:
        if len(cand) == 2:
            B = res_deg1_char0(cand[0], cand[1], phi_terms_char0(2), b[2])
        else:
            B = res_deg2_char0(*cand, phi_terms_char0(2), b[2])
        if B == 0:
            shared += 1
            continue
        v = v_p(B, 2)
        maxv = max(maxv, v)
        if v < phiv:
            certified += 1
        else:
            inconclusive += 1
        # candidate never vanishes at lam: v2(P(lam)) finite below 600
        pl = sum(c * pow(lam, i, mod) for i, c in enumerate(cand)) % mod
        assert pl != 0 and v_p(pl, 2) < 600
        assert v_p(pl, 2) <= v, (cand, v_p(pl, 2), v)
    check("family_char0_counts", (certified, shared, inconclusive), (660, 0, 0))
    check("family_char0_max_vB", maxv)

    print("\n# char-2 family checks (sampled) and small-case closed forms")
    # small explicit gap data for cross-validation
    small_terms2 = [(0, 0b10), (1, 1), (2, 1), (4, 0b101)]  # t, 1, 1, 1+t^2
    small_dense2 = [0] * 5
    for k, a in small_terms2:
        small_dense2[k] ^= a
    for (c0, c1, c2) in [(1, 0b10, 1), (0b11, 1, 0b10), (0b101, 0b10, 0b11),
                         (1, 0, 1), (0b10, 0b11, 1)]:
        direct = res_b2([c0, c1, c2], small_dense2)
        closed = res_deg2_char2(c0, c1, c2, small_terms2, 4)
        assert direct == closed, (c0, c1, c2, direct, closed)
        if c1 != 0:
            d1 = res_b2([c0, c1], small_dense2)
            cl = res_deg1_char2(c0, c1, small_terms2, 4)
            assert d1 == cl
    check("char2_closed_forms_match_bareiss", "ok")
    # reference char-2 Phi_2 terms
    tphi2 = [(0, 0b10), (1, 1), (2, 1), (16, 1)]
    count = 0
    maxdeg = -1
    for c2 in range(1, 64):
        for c1 in (0, 1, 0b10, 0b111, 0b100000, 0b101010):
            for c0 in (0, 1, 0b10, 0b11, 0b100000):
                B = res_deg2_char2(c0, c1, c2, tphi2, 16)
                assert B != 0
                dB = B.bit_length() - 1
                maxdeg = max(maxdeg, dB)
                assert dB <= 5 * 16 + 1 * 2
                vB = v2_mask(B)
                assert vB < 512
                # direct evaluation at the t-adic root
                pl = b2mul(c2, b2mul(lt, lt)) ^ b2mul(c1, lt) ^ c0
                pl &= (1 << 600) - 1
                assert pl != 0
                assert v2_mask(pl) <= vB, (c0, c1, c2, v2_mask(pl), vB)
                count += 1
    check("char2_family_sampled", count)
    check("char2_sample_max_tdeg_B", maxdeg)
    check("charp_family_size", 63 * 64 + 63 * 64 * 64, 262080)

    print("\n# margins")
    bb = [1, 2, 16, 512, 65536]
    for N in range(4):
        lhs, rhs, flip = margin_char0(2, 1, bb[N], bb[N + 1], 2, 1, 2, 1, 75)
        tag = (lhs, rhs, flip) if N == 0 else (flip,)
        check(f"margin_char0_family_N{N}", tag,
              ((48, 4800, False) if N == 0 else (True,)))
    for N in range(2):
        _, _, flip = margin_char0(2, 1, bb[N], bb[N + 1], 2, 1, 2, 1, 8)
        check(f"margin_char0_xm2_N{N}", flip, N >= 1)
    for N in range(4):
        lhs, rhs, flip = margin_charp(1, bb[N], bb[N + 1], 5, 1, 2)
        check(f"margin_charp_N{N}", (lhs, rhs, flip),
              [(2, 7, False), (16, 12, True), (512, 82, True),
               (65536, 2562, True)][N])
    check("bound_check_required_K_N1", bb[2] * 1 + 0 + 1, 17)

    print("\n# rationality scanners")
    tm512 = [thue_morse(i) for i in range(512)]
    check("thue_morse_periodic_512", periodic_scan(tm512, 512), None)
    tm64 = tm512[:64]
    check("thue_morse_recurrence_f2", recurrence_scan_fp(tm64, 8, 2), None)
    fib = [0, 1]
    for _ in range(30):
        fib.append(fib[-1] + fib[-2])
    got = recurrence_scan_fp([x % 5 for x in fib], 3, 5)
    check("fibonacci_mod5", got, (2, [1, 4, 4]))
    geom = [pow(3, i, 7) for i in range(20)]
    check("geometric_mod7", recurrence_scan_fp(geom, 2, 7), (1, [1, 4]))
    check("periodic_0101", periodic_scan([0, 1] * 8, 16), (2, 0))
    check("periodic_ones", periodic_scan([1] * 16, 16), (1, 0))
    tail = [0, 1] + [0] * 30
    check("periodic_xm3_tail", periodic_scan(tail, 32), (1, 2))

    print("\n# H10 goldens")
    fig1 = [(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1),
            (0, -1), (1, -1), (2, -1), (2, 0), (2, 1), (2, 2), (1, 2),
            (0, 2), (-1, 2), (-2, 2), (-2, 1), (-2, 0), (-2, -1), (-2, -2),
            (-1, -2), (0, -2), (1, -2), (2, -2)]
    check("spiral_25", spiral(25), fig1)
    check("zigzag_vals", [zigzag(i) for i in range(6)], [0, 1, -1, 2, -2, 3])
    for d in (1, 2, 3):
        seen = set()
        for nn in range(10 ** 4 + 1):
            pt = theta(nn, d)
            assert pt not in seen, (d, nn)
            seen.add(pt)
        r = 0
        while all(c in seen for c in _shell(r + 1, d)):
            r += 1
        check(f"theta_d{d}_injective_and_box", r)
    P1 = lambda v: v[0] ** 2 + 1
    pts = [theta(i, 1) for i in range(9)]
    E1 = exponent_E(P1, pts[:2])
    E2 = exponent_E(P1, pts[:3])
    E3 = exponent_E(P1, pts[:4])
    check("E_x2p1", (E1, E2, E3), (40, 800, 520000))
    P2 = lambda v: v[0] - 3
    check("E_xm3", (exponent_E(P2, pts[:2]), exponent_E(P2, pts[:3])),
          (1800, 489600))
    vals, over, pred = bp_sequence(P1, 1, 4, 10 ** 6)
    check("bp_x2p1_values", vals, [1, 2, 2 + 2 ** 800])
    check("bp_x2p1_over", (over, pred), (3, 520000 * 800))
    check("bp_x2p1_b2_bits", (2 + 2 ** 800).bit_length(), 801)
    vals, over, pred = bp_sequence(P2, 1, 4, 10 ** 6)
    check("bp_xm3_exact_len", len(vals), 3)
    check("bp_xm3_b2_bits", vals[2].bit_length(), 489601)
    check("bp_xm3_over", (over, pred), (3, 979200 * 489600))
    vals, over, pred = bp_sequence(lambda v: v[0], 1, 8, 10 ** 6)
    check("bp_x_values", vals, list(range(1, 10)))
    # probe verdicts
    zz = [theta(i, 1) for i in range(11)]
    hit = next((i for i, q in enumerate(zz) if P2(q) == 0), None)
    check("probe_xm3", (hit, zz[hit][0]), (5, 3))
    far = lambda v: v[0] ** 2 + v[1] ** 2 - 10 ** 12
    spts = [theta(i, 2) for i in range(101)]
    check("probe_far_zero_none_scanned",
          all(far(q) != 0 for q in spts), True)
    check("probe_x2p1_no_zero", all(P1(q) != 0 for q in zz), True)
    # dichotomy: P = x gives tail of ones from index 2; times (1 - x)
    fp_window = [2] + [0] + [1] * 14
    prod = [fp_window[0]] + [
        fp_window[k] - fp_window[k - 1] for k in range(1, 16)]
    check("fp_times_1mx", prod, [2, -2, 1] + [0] * 13)
    check("fp_tail_periodic", periodic_scan(fp_window[2:], 14), (1, 0))

    print("\n# optional cross-check with sympy, if present")
    try:
        import sympy
        xs = sympy.symbols("x")
        for coeffs, phi in [([1, 1, 1], phi1), ([5, -3, 2], phi2),
                            ([-4, 0, 3], phi2)]:
            pf = sum(c * xs ** i for i, c in enumerate(coeffs))
            pg = sum(c * xs ** i for i, c in enumerate(phi))
            want = sympy.resultant(pf, pg)
            got = res_int(coeffs, phi)
            assert got == want, (coeffs, got, want)
        print("sympy_resultant_crosscheck = ok")
    except ImportError:
        print("sympy_resultant_crosscheck = skipped")

    print("\nALL ORACLE CHECKS PASSED")


def _shell(r, d):
    """Cells of sup-norm exactly r."""
    if d == 1:
        return [(r,), (-r,)]
    return [c for c in itertools.product(range(-r, r + 1), repeat=d)
            if max(abs(v) for v in c) == r]


if __name__ == "__main__":
    main()
