"""Checks of prepkit reports made apart from prepkit.

Nothing here imports prepkit. Each check recomputes what a report
claims with this module's own arithmetic, or tests a property that the
method guarantees:

- preparation: pi^v * P * U == f mod (pi^K, x^m), P monic of degree n
  with non-unit lower coefficients, U[0] a unit. Preparation is unique,
  so this pins the report down completely.
- series mul/invert/compose/comp-inverse: this module's own products
  and composition.
- rationality: verdict, order and connection polynomial from this
  module's own Berlekamp-Massey.
- gap root/bound/certify/sweep: this module's own evaluation of the gap
  series, its own Newton root, and its own Sylvester determinant.

A failed check raises CheckFailed.
"""

import array
import itertools
import sys
from fractions import Fraction


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ------------------------------------------------------------ Kronecker

_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _pack(xs, w):
    code = _SLOT_CODES.get(w)
    if code is None:
        return b"".join(x.to_bytes(w, "little") for x in xs)
    arr = array.array(code, xs)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr.tobytes()


def _unpack(buf, w):
    code = _SLOT_CODES.get(w)
    if code is None:
        return [int.from_bytes(buf[i:i + w], "little")
                for i in range(0, len(buf), w)]
    arr = array.array(code, buf)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr.tolist()


def _kron(a, b):
    """Product of two lists of nonnegative ints as polynomials, through
    one big-int multiplication with byte-aligned slots."""
    if not a or not b:
        return []
    bound = max(a) * max(b) * min(len(a), len(b))
    w = bound.bit_length() // 8 + 1
    w = next((s for s in _SLOT_CODES if s >= w), w)
    A = int.from_bytes(_pack(a, w), "little")
    B = int.from_bytes(_pack(b, w), "little")
    n = len(a) + len(b) - 1
    return _unpack((A * B).to_bytes(n * w, "little"), w)


def _kron_signed(a, b):
    ap = [max(x, 0) for x in a]
    an = [max(-x, 0) for x in a]
    bp = [max(x, 0) for x in b]
    bn = [max(-x, 0) for x in b]
    n = len(a) + len(b) - 1
    out = [0] * n
    for sign, u, v in ((1, ap, bp), (-1, ap, bn), (-1, an, bp), (1, an, bn)):
        if any(u) and any(v):
            for i, c in enumerate(_kron(u, v)):
                out[i] += sign * c
    return out


# ------------------------------------------------------ coefficient rings

class IntMod:
    """Z/p^K (kinds zp and zmodpk); elements are ints in [0, p^K)."""

    def __init__(self, p, K):
        self.p, self.K, self.mod = p, K, p ** K

    def parse(self, v):
        require(isinstance(v, str), "element %r is not a decimal string" % (v,))
        x = int(v)
        require(0 <= x < self.mod, "element %s is not canonical" % v)
        return x

    def dump(self, x):
        return str(x)

    def zero(self):
        return 0

    def one(self):
        return 1 % self.mod

    def val(self, x):
        if x == 0:
            return None
        v = 0
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v

    def times_pi_pow(self, x, v):
        return x * self.p ** v % self.mod

    def mul(self, a, b):
        return a * b % self.mod

    def add(self, a, b):
        return (a + b) % self.mod

    def sub(self, a, b):
        return (a - b) % self.mod

    def inv(self, a):
        return pow(a, -1, self.mod)

    def mul_trunc(self, a, b, m):
        a, b = list(a[:m]), list(b[:m])
        return [c % self.mod for c in _kron(a, b)[:m]] + [0] * max(
            m - len(a) - len(b) + 1, 0)


class Integers:
    """Z; elements are ints."""

    def parse(self, v):
        require(isinstance(v, str), "element %r is not a decimal string" % (v,))
        return int(v)

    def dump(self, x):
        return str(x)

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def mul_trunc(self, a, b, m):
        a, b = list(a[:m]), list(b[:m])
        out = _kron_signed(a, b)[:m]
        return out + [0] * (m - len(out))


class TruncFpT:
    """F_p[[t]] mod t^K; elements are tuples of K digits in [0, p)."""

    def __init__(self, p, K):
        self.p, self.K = p, K

    def parse(self, v):
        require(isinstance(v, list) and len(v) == self.K,
                "element %r is not a %d-digit array" % (v, self.K))
        require(all(isinstance(d, int) and 0 <= d < self.p for d in v),
                "element %r has a digit outside [0, %d)" % (v, self.p))
        return tuple(v)

    def dump(self, x):
        return list(x)

    def zero(self):
        return (0,) * self.K

    def one(self):
        return (1,) + (0,) * (self.K - 1)

    def val(self, x):
        return next((i for i, d in enumerate(x) if d), None)

    def times_pi_pow(self, x, v):
        return ((0,) * v + tuple(x))[:self.K]

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        c = _kron(list(a), list(b))[:self.K]
        return tuple(d % self.p for d in c) + (0,) * (self.K - len(c))

    def inv(self, a):
        require(a[0] % self.p, "not a unit")
        g = (pow(a[0], -1, self.p),) + (0,) * (self.K - 1)
        two = (2 % self.p,) + (0,) * (self.K - 1)
        prec = 1
        while prec < self.K:
            prec *= 2
            g = self.mul(g, self.sub(two, self.mul(a, g)))
        return g

    def mul_trunc(self, a, b, m):
        """Series product mod x^m: each coefficient occupies 2K slots,
        so t-degrees below 2K - 1 never reach the next coefficient."""
        K, p = self.K, self.p
        pad = (0,) * K
        fa = [d for c in a[:m] for d in tuple(c) + pad]
        fb = [d for c in b[:m] for d in tuple(c) + pad]
        if not any(fa) or not any(fb):
            return [self.zero()] * m
        flat = _kron(fa, fb)
        out = []
        for i in range(m):
            row = flat[2 * K * i:2 * K * i + K]
            row = [d % p for d in row] + [0] * (K - len(row))
            out.append(tuple(row))
        return out


def ring_from_desc(d):
    kind = d.get("kind")
    if kind in ("zp", "zmodpk"):
        return IntMod(int(d["p"]), int(d["prec"]))
    if kind == "fpt":
        return TruncFpT(int(d["p"]), int(d["prec"]))
    if kind == "z":
        return Integers()
    raise CheckFailed("no series arithmetic for ring kind %r" % (kind,))


def compose(R, f, g, m):
    """f(g(x)) mod x^m by Horner's rule."""
    acc = [R.zero()] * m
    for k in range(m - 1, -1, -1):
        acc = R.mul_trunc(acc, g, m)
        acc[0] = R.add(acc[0], f[k])
    return acc


# ------------------------------------------------------- series reports

def _series_payload(R, payload):
    coeffs = [R.parse(c) for c in payload["coeffs"]]
    m = int(payload.get("x_prec", len(coeffs)))
    return coeffs + [R.zero()] * (m - len(coeffs))


def _report_series(report, ring_desc, m):
    require(report.get("ring") == ring_desc,
            "report ring %r differs from the input's" % (report.get("ring"),))
    require(report.get("x_prec") == m, "x_prec %r is not %d"
            % (report.get("x_prec"), m))
    R = ring_from_desc(ring_desc)
    coeffs = report.get("coeffs")
    require(isinstance(coeffs, list) and len(coeffs) == m,
            "coeffs is not a list of %d elements" % m)
    return [R.parse(c) for c in coeffs]


def check_series(op, report, inputs):
    """inputs: the JSON payloads given to the CLI, f (and g)."""
    desc = inputs["f"]["ring"]
    R = ring_from_desc(desc)
    f = _series_payload(R, inputs["f"])
    if op in ("mul", "compose"):
        g = _series_payload(R, inputs["g"])
        m = min(len(f), len(g))
        h = _report_series(report, desc, m)
        want = R.mul_trunc(f, g, m) if op == "mul" else compose(R, f, g, m)
        require(h == want, "series %s disagrees with the checker's" % op)
        return
    m = len(f)
    h = _report_series(report, desc, m)
    if op == "invert":
        one = [R.one()] + [R.zero()] * (m - 1)
        require(R.mul_trunc(f, h, m) == one, "f * invert(f) != 1")
    elif op == "comp-inverse":
        x = [R.zero(), R.one()] + [R.zero()] * (m - 2)
        require(compose(R, f, h, m) == x, "f(comp-inverse(f)) != x")
    else:
        raise CheckFailed("unknown series op %r" % op)


def check_wfact(report, f_payload):
    """Preparation or strong factorization of f_payload."""
    desc = f_payload["ring"]
    R = ring_from_desc(desc)
    f = _series_payload(R, f_payload)
    m = len(f)
    require(report.get("check") == "ok", "report does not say check ok")
    v, n = int(report["v"]), int(report["n"])
    vals = [R.val(c) for c in f]
    v_want = min(x for x in vals if x is not None)
    n_want = vals.index(v_want)
    require(v == v_want, "v=%d, the window's least valuation is %d"
            % (v, v_want))
    require(n == n_want, "n=%d, the reduction index is %d" % (n, n_want))
    P = [R.parse(c) for c in report["P"]]
    require(len(P) == n + 1 and P[n] == R.one(), "P is not monic of degree n")
    require(all(R.val(c) != 0 for c in P[:n]),
            "P has a unit below its leading coefficient")
    U = _report_series(report["U"], desc, m)
    require(R.val(U[0]) == 0, "U[0] is not a unit")
    prod = R.mul_trunc(P + [R.zero()] * (m - n - 1), U, m)
    require([R.times_pi_pow(c, v) for c in prod] == f,
            "pi^v * P * U differs from f")


# ------------------------------------------------------ fields and BM

class PrimeField:
    def __init__(self, p):
        self.p = p

    def parse(self, v):
        return int(v) % self.p

    def dump(self, x):
        return str(x)

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p


class Rationals:
    def parse(self, v):
        return Fraction(int(v))

    def dump(self, x):
        return str(x)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b


class FpPoly:
    """F_p[t]; elements are trimmed digit tuples, () is zero."""

    def __init__(self, p):
        self.p = p

    def zero(self):
        return ()

    def trim(self, a):
        a = [d % self.p for d in a]
        while a and a[-1] == 0:
            a.pop()
        return tuple(a)

    def add(self, a, b):
        n = max(len(a), len(b))
        return self.trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                          for i in range(n)])

    def neg(self, a):
        return tuple(-d % self.p for d in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not a or not b:
            return ()
        return self.trim(_kron(list(a), list(b)))

    def scale(self, a, c):
        return self.trim([d * c for d in a])

    def divmod(self, a, b):
        require(bool(b), "division by the zero polynomial")
        a = list(a)
        inv = pow(b[-1], -1, self.p)
        q = [0] * max(len(a) - len(b) + 1, 0)
        for sh in range(len(a) - len(b), -1, -1):
            c = a[sh + len(b) - 1] * inv % self.p
            if c:
                q[sh] = c
                for j, y in enumerate(b):
                    a[sh + j] = (a[sh + j] - c * y) % self.p
        return self.trim(q), self.trim(a)

    def monic(self, a):
        return self.scale(a, pow(a[-1], -1, self.p)) if a else a

    def gcd(self, a, b):
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.monic(a)

    def val(self, a):
        return next((i for i, d in enumerate(a) if d), None)


class RationalFunctions:
    """F_p(t); elements are (num, den), reduced, den monic."""

    def __init__(self, p):
        self.P = FpPoly(p)

    def norm(self, num, den):
        P = self.P
        if not num:
            return ((), (1,))
        g = P.gcd(num, den)
        num, den = P.divmod(num, g)[0], P.divmod(den, g)[0]
        c = pow(den[-1], -1, P.p)
        return (P.scale(num, c), P.scale(den, c))

    def parse(self, v):
        return (self.P.trim(v), (1,))

    def dump(self, x):
        return [list(x[0]), list(x[1])]

    def zero(self):
        return ((), (1,))

    def one(self):
        return ((1,), (1,))

    def add(self, a, b):
        P = self.P
        return self.norm(P.add(P.mul(a[0], b[1]), P.mul(b[0], a[1])),
                         P.mul(a[1], b[1]))

    def sub(self, a, b):
        return self.add(a, (self.P.neg(b[0]), b[1]))

    def mul(self, a, b):
        P = self.P
        return self.norm(P.mul(a[0], b[0]), P.mul(a[1], b[1]))

    def div(self, a, b):
        require(bool(b[0]), "division by zero")
        return self.mul(a, (b[1], b[0]))


def berlekamp_massey(F, s):
    """Shortest linear recurrence of s over the field F: returns (L, C)
    with C[0] = 1, len(C) = L + 1 and
    s[n] + sum_(j=1..L) C[j] s[n-j] = 0 for L <= n < len(s)."""
    zero = F.zero()
    C, B = [F.one()], [F.one()]
    L, shift, b = 0, 1, F.one()
    for n in range(len(s)):
        d = s[n]
        for j in range(1, L + 1):
            d = F.add(d, F.mul(C[j], s[n - j]))
        if d == zero:
            shift += 1
            continue
        coef = F.div(d, b)
        T = list(C)
        need = len(B) + shift
        C = C + [zero] * max(need - len(C), 0)
        for j, x in enumerate(B):
            C[j + shift] = F.sub(C[j + shift], F.mul(coef, x))
        if 2 * L <= n:
            L, B, b, shift = n + 1 - L, T, d, 1
        else:
            shift += 1
    C = (C + [zero] * (L + 1))[:L + 1]
    return L, C


def field_for(desc):
    kind = desc.get("kind")
    if kind in ("zp", "zmodpk") and int(desc.get("prec", 0)) == 1:
        return PrimeField(int(desc["p"]))
    if kind == "z":
        return Rationals()
    if kind == "fpt_exact":
        return RationalFunctions(int(desc["p"]))
    raise CheckFailed("no field for ring %r" % (desc,))


def rationality_expectation(payload, max_order):
    """(is_rational, d, q as JSON) from this module's own
    Berlekamp-Massey on the window in payload."""
    F = field_for(payload["ring"])
    s = [F.parse(c) for c in payload["coeffs"]]
    L, C = berlekamp_massey(F, s)
    if L > max_order:
        return False, None, None
    d = max(L, 1)
    C = (C + [F.zero()] * (d + 1))[:d + 1]
    return True, d, [F.dump(c) for c in C]


def check_rationality(report, payload, max_order):
    m = len(payload["coeffs"])
    rational, d, q = rationality_expectation(payload, max_order)
    require(report.get("route") == "recurrence" and report.get("offset") == "0",
            "not the recurrence route")
    require(report.get("budget") == str(m), "budget %r is not the window %d"
            % (report.get("budget"), m))
    if not rational:
        require(report.get("kind") == "irrational_at_budget",
                "verdict %r, Berlekamp-Massey finds no recurrence of order "
                "<= %d" % (report.get("kind"), max_order))
        return
    require(report.get("kind") == "rational",
            "verdict %r, Berlekamp-Massey finds order %d"
            % (report.get("kind"), d))
    require(report.get("d") == str(d), "d=%r, Berlekamp-Massey gives %d"
            % (report.get("d"), d))
    require(report.get("s") == "0", "s is not 0")
    require(report.get("q") == q, "q differs from Berlekamp-Massey's")


# ------------------------------------------------------------ gap series

class GapSeries:
    """f = a_0 + a_1 x^(b(0)) + sum_(n>=1) a_n x^(b(n)) with b(0) = 1,
    b(n) = 2^(n^2), a_n = rest for n >= 1. Coefficients are ints
    (characteristic zero) or digit tuples over F_p (characteristic p)."""

    def __init__(self, char, p, a0, rest):
        self.char, self.p, self.a0, self.rest = char, p, a0, rest

    @staticmethod
    def b(n):
        return 2 ** (n * n)

    def terms_upto(self, emax):
        out = [(0, self.a0), (1, self.rest)]
        n = 1
        while self.b(n) <= emax:
            out.append((self.b(n), self.rest))
            n += 1
        return out

    def a(self, n):
        return self.a0 if n == 0 else self.rest

    def work_ring(self, K):
        return IntMod(self.p, K) if self.char == "zero" else TruncFpT(self.p, K)

    def exact(self):
        return Integers() if self.char == "zero" else FpPoly(self.p)

    def coeff_in(self, R, c):
        if self.char == "zero":
            return c % R.mod
        return (tuple(d % self.p for d in c) + (0,) * R.K)[:R.K]

    def coeff_val(self, c):
        """Valuation of a nonzero exact coefficient."""
        if self.char == "p":
            return FpPoly(self.p).val(tuple(c))
        v = 0
        while c % self.p == 0:
            c //= self.p
            v += 1
        return v


def _rpow(R, x, e):
    acc = R.one()
    while e:
        if e & 1:
            acc = R.mul(acc, x)
        x = R.mul(x, x)
        e >>= 1
    return acc


def eval_terms(R, G, terms, lam):
    acc = R.zero()
    for e, c in terms:
        acc = R.add(acc, R.mul(G.coeff_in(R, c), _rpow(R, lam, e)))
    return acc


def eval_poly(R, G, coeffs, lam):
    acc = R.zero()
    for c in reversed(coeffs):
        acc = R.add(R.mul(acc, lam), G.coeff_in(R, c))
    return acc


def gap_root(G, K):
    """The root of valuation >= 1 mod pi^K, by Newton's method on the
    terms of exponent below K."""
    R = G.work_ring(K)
    terms = G.terms_upto(K - 1)
    dterms = [(e - 1, e * c if G.char == "zero" else
               tuple(d * e for d in c)) for e, c in terms if e]
    lam = R.zero()
    for _ in range(K.bit_length() + 2):
        fv = eval_terms(R, G, terms, lam)
        if fv == R.zero():
            break
        lam = R.sub(lam, R.mul(fv, R.inv(eval_terms(R, G, dterms, lam))))
    require(eval_terms(R, G, terms, lam) == R.zero(), "Newton did not converge")
    return R, lam


def sylvester(E, f, g):
    """Sylvester matrix of f, g (ascending coefficient lists over E):
    deg g rows of f's descending coefficients, then deg f rows of g's."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    zero = E.zero()
    rows = []
    for i in range(n):
        rows.append([zero] * i + list(reversed(f)) + [zero] * (size - i - m - 1))
    for i in range(m):
        rows.append([zero] * i + list(reversed(g)) + [zero] * (size - i - n - 1))
    return rows


def det_rational(rows):
    """Determinant over Q by Gaussian elimination with Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                r = a[i][k] / a[k][k]
                a[i] = [x - r * y for x, y in zip(a[i], a[k])]
    require(det.denominator == 1, "integer determinant is not integral")
    return det.numerator


def det_fpt(P, rows):
    """Determinant over F_p[t] by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, (1,)
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return ()
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = P.sub(P.mul(a[i][j], a[k][k]), P.mul(a[i][k], a[k][j]))
                q, r = P.divmod(num, prev)
                require(not r, "Bareiss division is not exact")
                a[i][j] = q
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign == 1 else P.neg(d)


class GapChecker:
    """Checks of gap reports against one series; roots are cached per
    precision."""

    def __init__(self, G):
        self.G = G
        self._roots = {}

    def root(self, K):
        if K not in self._roots:
            self._roots[K] = gap_root(self.G, K)
        return self._roots[K]

    def phi(self, N):
        """Dense coefficients of Phi_N over the exact ring."""
        G = self.G
        bN = G.b(N)
        E = G.exact()
        dense = [E.zero()] * (bN + 1)
        for e, c in G.terms_upto(bN):
            dense[e] = E.add(dense[e], c if G.char == "zero" else tuple(c))
        return dense

    def res(self, cand, N):
        """Res(P, Phi_N) from the Sylvester matrix."""
        G = self.G
        phi = self.phi(N)
        if G.char == "zero":
            return det_rational(sylvester(Integers(), cand, phi))
        P = FpPoly(G.p)
        rows = sylvester(P, [P.trim(c) for c in cand], phi)
        return det_fpt(P, rows)

    def check_root(self, report, K):
        G = self.G
        R = G.work_ring(K)
        lam = R.parse(report["lam"])
        require(R.val(lam) is not None and R.val(lam) >= 1,
                "lam has no positive valuation")
        require(eval_terms(R, G, G.terms_upto(K - 1), lam) == R.zero(),
                "f(lam) is not 0 mod pi^%d" % K)

    def check_bound(self, report, N, K):
        G = self.G
        R, lam = self.root(K)
        require(report.get("lam") == R.dump(lam), "lam is not the root")
        vlam = R.val(lam)
        phi_val = R.val(eval_terms(R, G, G.terms_upto(G.b(N)), lam))
        lower = G.b(N + 1) * vlam + G.coeff_val(G.a(N + 1))
        require(report.get("phi_val") == str(phi_val),
                "phi_val %r, own evaluation gives %s"
                % (report.get("phi_val"), phi_val))
        require(phi_val >= lower, "v(Phi_N(lam)) is below the tail bound")
        require(report.get("lower") == str(lower), "lower bound differs")
        require(report.get("required") == str(lower + 1), "required differs")
        require(report.get("lam_val") == str(vlam), "lam_val differs")
        require(report.get("equality") == (phi_val == lower),
                "equality flag differs")

    def check_cert(self, rep, cand, N, K):
        """rep: one certificate report for candidate cand (exact
        coefficients, ascending)."""
        G = self.G
        E = G.exact()
        R, lam = self.root(K)
        want_cand = [str(c) if G.char == "zero" else list(E.trim(c))
                     for c in cand]
        require(rep.get("candidate") == want_cand, "candidate differs")
        require(rep.get("N") == str(N), "N differs")
        require(rep.get("b_next") == str(G.b(N + 1)), "b_next differs")
        phi_val = R.val(eval_terms(R, G, G.terms_upto(G.b(N)), lam))
        require(rep.get("phi_val") == str(phi_val),
                "phi_val %r, own evaluation gives %s"
                % (rep.get("phi_val"), phi_val))
        B = self.res(cand, N)
        want_B = str(B) if G.char == "zero" else list(B)
        require(rep.get("B") == want_B, "B %r, own Sylvester determinant "
                "gives %r" % (rep.get("B"), want_B))
        if (B == 0) if G.char == "zero" else not B:
            require(rep.get("verdict") == "shared_factor",
                    "B = 0 but the verdict is %r" % rep.get("verdict"))
            return
        bval = G.coeff_val(B)
        require(rep.get("B_val") == str(bval), "B_val differs")
        pl = R.val(eval_poly(R, G, cand, lam))
        require(rep.get("p_at_lam_val") == (None if pl is None else str(pl)),
                "p_at_lam_val differs")
        want = "certified_not_root" if bval < phi_val else "inconclusive"
        require(rep.get("verdict") == want, "verdict %r, v(B)=%d against "
                "v(Phi_N(lam))=%d gives %s"
                % (rep.get("verdict"), bval, phi_val, want))

    def family(self, D, H):
        """The family in the program's documented order: degree
        ascending, then lexicographic on ascending coefficients, with a
        positive leading coefficient (characteristic zero) or a nonzero
        F_2-digit coefficient of t-degree <= H (characteristic p)."""
        if self.G.char == "zero":
            for deg in range(1, D + 1):
                for tup in itertools.product(*[range(-H, H + 1)] * deg,
                                             range(1, H + 1)):
                    yield list(tup)
            return
        W = 1 << (H + 1)
        for deg in range(1, D + 1):
            for tup in itertools.product(*[range(W)] * deg, range(1, W)):
                yield [tuple((mk >> i) & 1 for i in range(mk.bit_length()))
                       for mk in tup]

    def family_size(self, D, H):
        if self.G.char == "zero":
            return sum((2 * H + 1) ** d * H for d in range(1, D + 1))
        W = 1 << (H + 1)
        return sum(W ** d * (W - 1) for d in range(1, D + 1))

    def check_sweep(self, report, N, K, D, H, route):
        total = self.family_size(D, H)
        require(report.get("total") == str(total),
                "total %r, the family has %d" % (report.get("total"), total))
        counts = [int(report[k]) for k in ("certified", "shared_factor",
                                           "inconclusive")]
        require(sum(counts) == total, "verdict counts do not sum to total")
        require(report.get("route") == route, "route %r is not %s"
                % (report.get("route"), route))
        if route == "structural":
            require(counts[0] == total, "structural route left candidates "
                    "uncertified")
        stride = max(total // 16, 1)
        idx = list(range(0, total, stride))
        samples = report.get("samples")
        require(isinstance(samples, list) and len(samples) == len(idx),
                "expected %d samples" % len(idx))
        fam = self.family(D, H)
        pos = 0
        for want_i, rep in zip(idx, samples):
            cand = next(itertools.islice(fam, want_i - pos, None))
            pos = want_i + 1
            self.check_cert(rep, cand, N, K)
