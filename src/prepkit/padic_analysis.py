"""Gap power series: admissibility, small roots, truncation
certificates, and candidate-family sweeps.

A gap series is f = a_0 + a_1 x^(b(0)) + sum_(n>=1) a_n x^(b(n)) with
b(0) = 1 and rapidly increasing exponents. Admissibility asks for
(1) a_0 nonzero of positive valuation, (2) a unit coefficient at the
witness index, and (3) a growth cap on coefficient size relative to the
exponent gaps; every violation is reported with its condition number
and offending index.

GapSpec is the series itself: b(n), a(n), validate_core() and
sparse_terms_upto(emax) read its rules and check admissibility, and
what passed is memoized on the spec. Every function here takes the
spec, so a passing check runs once per spec however many take it.

Certificates that a candidate polynomial P does not vanish at the small
root lambda compare exact resultant valuations against the valuation of
the truncation Phi_N at lambda: v(Res(P, Phi_N)) < v(Phi_N(lambda))
forces P(lambda) != 0. Margins are cleared integer comparisons, never
floating point.

hensel_lift is Newton lifting on anything with deriv() and eval(x,
ring): an exact polynomial (Poly) or a windowed series (Series,
OracleSeries).
"""

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cached_property
from math import prod

from .errors import (
    BudgetExceeded,
    CompositeModulus,
    DegreeAboveOne,
    HenselConditionFails,
    InvariantViolation,
    PointNotSmall,
    PrecisionTooLow,
    SpecViolation,
    ZeroAtPrecision,
)
from .rings import check_prec, dec_str, is_prime, make_ring
from .resultant import Poly, make_poly, resultant
from .series import OracleSeries, Series
from .weierstrass import WFactorization

# A message prints a number below 10^4300, which Python's int/str limit
# allows by default, in decimal, and a larger one by its bit length;
# 10^4300 < 2^14285, so a b(n) of more bits is never built to print it.
_SHOWN = 10 ** 4300
_SHOWN_BITS = _SHOWN.bit_length()

# The most candidates a sweep may certify; a larger family fails fast
# with BudgetExceeded. 2^24 is 64 times the largest family of the tests
# and the benchmark (262,080: degree 2, height 5 over F_2[t]).
FAMILY_CAP = 1 << 24

VERDICT_CERTIFIED = "certified_not_root"
VERDICT_SHARED = "shared_factor"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GapSpec:
    """A gap series, by its coefficient rule a_rule and exponent rule
    b_rule. The memo (the values of b, the coefficients that passed
    their checks, the exact ring) takes no part in comparisons, and
    dataclasses.replace starts a fresh one. A failing check is never
    memoized."""

    characteristic: str  # "zero" | "p"
    p: int
    a_rule: dict
    b_rule: dict
    C: Fraction
    kappa: Fraction
    budget: int = 65536
    witness: int = 1
    _bs: list = field(default_factory=list, init=False, compare=False,
                      repr=False)
    _as: dict = field(default_factory=dict, init=False, compare=False,
                      repr=False)

    def __post_init__(self):
        if self.characteristic not in ("zero", "p"):
            raise ValueError("characteristic must be 'zero' or 'p'")
        if not is_prime(self.p):
            raise CompositeModulus("base %r is not prime" % (self.p,),
                                   p=self.p)
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.witness < 1:
            raise ValueError("witness index must be at least 1")
        if self.characteristic == "zero" and not (self.C > 1 and self.kappa > 1):
            raise ValueError("growth constants must exceed 1")
        if self.characteristic == "p" and not self.C > 0:
            raise ValueError("growth constant must be positive")

    @cached_property
    def _exact(self):
        return self.work_ring(1).exact()

    def exact_ring(self):
        """Where the coefficients live: Z in characteristic zero, F_p[t]
        in characteristic p."""
        return self._exact

    def work_ring(self, K):
        """The completion at precision K: Z_p or F_p[[t]]."""
        kind = "zp" if self.characteristic == "zero" else "fpt"
        return make_ring(kind, self.p, K)

    def b(self, n):
        """The exponent b(n); b(0) = 1 and b increases strictly."""
        rule = self.b_rule
        bs = self._bs
        while len(bs) <= n:
            m = len(bs)
            if rule["kind"] == "pow2_nsq":
                v = 2 ** (m * m)
            elif rule["kind"] == "explicit":
                vals = rule["values"]
                if m >= len(vals):
                    raise ValueError("explicit exponent rule exhausted at %d" % m)
                v = int(vals[m])
            else:
                raise ValueError("unknown exponent rule %r" % rule["kind"])
            if m == 0 and v != 1:
                raise SpecViolation("b(0) must be 1, got %d" % v,
                                    condition="b", index=0)
            if m > 0 and v <= bs[-1]:
                raise SpecViolation("exponents must increase: b(%d)=%d" % (m, v),
                                    condition="b", index=m)
            bs.append(v)
        return bs[n]

    def b_shown(self, n, v=1, c=0):
        """(text, x) for x = v * b(n) + c, with v >= 1 and 0 <= c < b(n):
        x in decimal below 10^4300 and by its bit length past that, as
        messages print it. The power rule's b(n) = 2^(n^2) is not built
        past that size, and x is None then: it has n^2 + bit_length(v)
        bits. An explicit rule's b(n) is its input, and b(n) raises
        what it raises."""
        if self.b_rule["kind"] == "pow2_nsq" and n * n >= _SHOWN_BITS:
            return "of %d bits" % (n * n + v.bit_length()), None
        x = v * self.b(n) + c
        return (dec_str(x) if x < _SHOWN
                else "of %d bits" % x.bit_length()), x

    def b_past(self, n, cap):
        """Whether b(n) > cap. b increases, so the first m <= n with
        b(m) > cap settles it, and no power b past that m is built; an
        explicit rule's b(n), its input, raises what it raises."""
        if self.b_rule["kind"] != "pow2_nsq":
            return self.b(n) > cap
        m = 0
        while m < n and self.b(m) <= cap:
            m += 1
        return self.b(m) > cap

    def a(self, n):
        """The coefficient a_n in the exact ring, checked against
        admissibility conditions 1-3 (SpecViolation) on first read."""
        if n in self._as:
            return self._as[n]
        rule = self.a_rule
        if rule["kind"] == "const_after":
            v = rule["a0"] if n == 0 else rule["rest"]
        elif rule["kind"] == "explicit":
            vals = rule["values"]
            if n < len(vals):
                v = vals[n]
            elif "rest" in rule:
                v = rule["rest"]
            else:
                raise ValueError("explicit coefficient rule exhausted at %d" % n)
        else:
            raise ValueError("unknown coefficient rule %r" % rule["kind"])
        exact = self._exact
        # library callers may give decimal strings
        v = exact.canon(exact.decode([v], "spec a")[0])
        val = exact.val(v)
        if n == 0:
            if val is None or val < 1:
                raise SpecViolation(
                    "a_0 must be nonzero with positive valuation",
                    condition=1, index=0)
        elif n == self.witness:
            if val != 0:
                raise SpecViolation(
                    "the witness coefficient a_%d must be a unit" % n,
                    condition=2, index=n)
        if n >= 1 and val is not None:
            # the cap holds once b(n) passes a bound that a_n fixes (in
            # characteristic zero, C^cd >= 2 for C > 1), so only a b(n)
            # at or below it is built and compared
            cn, cd = self.C.numerator, self.C.denominator
            if self.characteristic == "zero":
                x = abs(v) * self.kappa.denominator
                over = not self.b_past(n, cd * x.bit_length()) and _exceeds(
                    ((x, 1), (cd, self.b(n))),
                    ((self.kappa.numerator, 1), (cn, self.b(n))))
            else:
                d = exact.deg(v)
                over = (not self.b_past(n, d * cd // cn)
                        and d * cd > cn * self.b(n))
            if over:
                raise SpecViolation(
                    "coefficient a_%d breaks the growth cap" % n,
                    condition=3, index=n)
        self._as[n] = v
        return v

    def validate_core(self):
        self.a(0)
        self.a(self.witness)
        self.b(0)

    def sparse_terms_upto(self, emax):
        """Nonzero (exponent, coefficient) pairs with exponent <= emax,
        ascending. The witness-indexed coefficient sits at x^(b(0)) = x
        as well as at its own exponent."""
        self.validate_core()
        terms = [(0, self.a(0))]
        if emax >= 1:
            terms.append((1, self.a(1)))
        m = 1
        while self.b(m) <= emax:
            terms.append((self.b(m), self.a(m)))
            m += 1
        return [(e, c) for e, c in terms if not self._exact.is_zero(c)]


def _exceeds(lhs, rhs):
    """Whether the product of x^e over the (x, e) pairs of lhs exceeds
    that over rhs, for ints x >= 1 and e >= 0. Bit lengths bound both
    products, and the powers are built only when those bounds overlap."""
    (llo, lhi), (rlo, rhi) = _log2_bounds(lhs), _log2_bounds(rhs)
    if llo > rhi:
        return True
    if lhi <= rlo:
        return False
    return prod(x ** e for x, e in lhs) > prod(x ** e for x, e in rhs)


def _log2_bounds(factors):
    """(lo, hi) with 2^lo <= the product of x^e <= 2^hi over factors:
    an x of b bits lies in [2^(b-1), 2^b), and is 2^(b-1) when it is a
    power of two."""
    lo = hi = 0
    for x, e in factors:
        b = x.bit_length() - 1
        lo += b * e
        hi += (b if x & (x - 1) == 0 else b + 1) * e
    return lo, hi


def reference_spec(characteristic="zero"):
    """The running example: p = 2, a_0 the uniformizer, unit higher
    coefficients, b(n) = 2^(n^2), C = kappa = 2."""
    spec = GapSpec(characteristic, 2, {}, {"kind": "pow2_nsq"},
                   Fraction(2), Fraction(2))
    exact = spec.exact_ring()
    return replace(spec, a_rule={"kind": "const_after",
                                 "a0": exact.uniformizer(),
                                 "rest": exact.one()})


def build_gap_series(spec):
    """The gap series as an exact-coefficient oracle, queryable up to
    the configured budget."""
    spec.validate_core()
    ring = spec.exact_ring()

    def coeff(e):
        if e <= 1:
            return spec.a(e)
        n = 1
        while spec.b(n) < e:
            n += 1
        return spec.a(n) if spec.b(n) == e else ring.zero()

    return OracleSeries(ring, coeff, spec.budget)


def phi_truncation(spec, N, budget=None):
    """The polynomial Phi_N: all terms with exponent <= b(N), as a
    dense exact polynomial. Materialization is refused past the
    budget (BudgetExceeded carries the needed size)."""
    bN = _phi_degree(spec, N, budget)
    ring = spec.exact_ring()
    return make_poly(ring, _dense(ring, spec.sparse_terms_upto(bN), bN + 1))


def _phi_degree(spec, N, budget=None):
    """b(N), the degree of Phi_N, or BudgetExceeded past the budget,
    which is decided before any b past the first one over it is built
    (needed is None when b(N) is too long to print)."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    cap = spec.budget if budget is None else budget
    if spec.b_past(N, cap):
        text, bN = spec.b_shown(N)
        raise BudgetExceeded("Phi_%d needs degree %s, budget is %d"
                             % (N, text, cap), needed=bN, budget=cap)
    return spec.b(N)


def _dense(ring, terms, n):
    """The n coefficients in ring of terms, with distinct exponents < n."""
    dense = [ring.zero()] * n
    for e, c in terms:
        dense[e] = ring.canon(c)
    return dense


def _sparse_eval(ring, terms, lam):
    """The sum of c * lam^e over terms ascending in e. Each power comes
    from the previous one, lam^e = (lam^e0)^(e // e0) * lam^(e % e0), so
    exponents that divide each other share one squaring chain."""
    acc = ring.zero()
    e0 = 0
    for e, c in terms:
        term = ring.canon(c)
        if e:
            if e0 == 0:
                power = ring.pow(lam, e)
            else:
                q, r = divmod(e, e0)
                power = ring.pow(power, q)
                if r:
                    power = ring.mul(power, ring.pow(lam, r))
            e0 = e
            term = ring.mul(term, power)
        acc = ring.add(acc, term)
    return acc


def small_root_of_gap(spec, K):
    """The unique root of valuation >= 1 at precision K, by sparse
    Newton lifting with doubling precision. Requires reduction index 1:
    the coefficient at x must be a unit (DegreeAboveOne otherwise)."""
    if K < 1:
        raise ValueError("precision must be positive")
    spec.validate_core()
    exact = spec.exact_ring()
    if exact.val(spec.a(1)) != 0:
        terms = spec.sparse_terms_upto(spec.b(max(spec.witness, 1)))
        n = next((e for e, c in terms if exact.val(c) == 0), None)
        raise DegreeAboveOne(
            "the coefficient at x is not a unit; reduction index is %s" % n,
            reduction_index=n)
    ring = spec.work_ring(K)
    terms = spec.sparse_terms_upto(max(K - 1, 1))
    dterms = []
    for e, c in terms:
        if e == 0:
            continue
        dc = exact.mul(exact.from_int(e), c)
        if not exact.is_zero(dc):
            dterms.append((e - 1, dc))

    def lift(k):
        # lam mod pi^k by one Newton step from lo = lam mod pi^k1,
        # k1 = ceil(k/2) (lo = 0 mod pi^0 when k = 1): f(lam) = pi^k1 * h,
        # so lam = lo - pi^k1 * h / f'(lam), with h and f'(lam) needed
        # mod pi^(k - k1) only. Terms of exponent >= k vanish mod pi^k.
        if k == 0:
            return ring.at_prec(0).zero()
        k1 = (k + 1) // 2 if k > 1 else 0
        lo = lift(k1)
        R, D = ring.at_prec(k), ring.at_prec(k - k1)
        lam = R.join([lo], None, k1)[0]
        fv = _sparse_eval(R, [t for t in terms if t[0] < k], lam)
        h = R.split([fv], k1)[1][0]
        dv = _sparse_eval(D, [t for t in dterms if t[0] < k - k1],
                          R.reduce([lam], k - k1)[0])
        if D.val(dv) != 0:
            raise InvariantViolation("the derivative at the root is not a "
                                     "unit at precision %d" % k)
        step = D.mul(h, D.invert_unit(dv))
        return R.join([lo], [D.neg(step)], k1)[0]

    lam = lift(K)
    if not ring.is_zero(_sparse_eval(ring, terms, lam)):
        raise InvariantViolation("the root lift did not converge at "
                                 "precision %d" % K)
    if ring.val(lam) == 0:
        raise InvariantViolation("the root lift reached a unit root")
    return lam


def hensel_lift(f, x0, K, ring=None, with_trace=False):
    """Newton lifting to a root mod pi^K from a start satisfying
    val(f(x0)) > 2 * val(f'(x0)). f may be an exact polynomial or a
    windowed series: it gives its derivative by f.deriv() and its value
    in the working ring by f.eval(x, ring). The working ring is
    required for a polynomial and defaults to a series' own ring; it is
    reduced to precision K."""
    df = f.deriv()
    if ring is None:
        if isinstance(f, Poly):
            raise ValueError("polynomial lifting needs an explicit ring")
        ring = f.ring
    if ring.prec is None or ring.prec < K:
        raise ValueError("need a finite ring of precision at least %d" % K)
    ring = ring.at_prec(check_prec(ring.kind, K))
    lam = ring.canon(x0)
    trace = [lam]
    fv = f.eval(lam, ring)
    if not ring.is_zero(fv):
        dv = df.eval(lam, ring)
        vf, vd = ring.val(fv), ring.val(dv)
        if vd is None or vf <= 2 * vd:
            raise HenselConditionFails(
                "val(f(x0))=%s is not above 2*val(f'(x0))=%s"
                % (vf, "inf" if vd is None else 2 * vd), vf=vf, vd=vd)
        prev_vf = vf
        for _ in range(2 * K + 8):
            v = ring.val(dv)
            if v is None:
                raise ZeroAtPrecision("zero residue has no unit part at "
                                      "precision %d" % K, prec=K)
            # f(x) / f'(x) = (f(x) / pi^v) / (f'(x) / pi^v), which needs
            # v(f(x)) >= v; the quotient is exact mod pi^(K - v)
            if vf < v:
                raise InvariantViolation(
                    "the Newton step has valuation %d, below v(f'(x)) = %d"
                    % (vf, v))
            fh, dh = ring.split([fv, dv], v)[1]
            low = ring.at_prec(K - v)
            step = low.mul(fh, low.invert_unit(dh))
            lam = ring.sub(lam, ring.join([step], None, K - v)[0])
            trace.append(lam)
            fv = f.eval(lam, ring)
            if ring.is_zero(fv):
                break
            vf = ring.val(fv)
            if vf <= prev_vf:
                raise InvariantViolation("no valuation progress: v(f(x)) "
                                         "went from %d to %d" % (prev_vf, vf))
            prev_vf = vf
            dv = df.eval(lam, ring)
        if not ring.is_zero(fv):
            raise InvariantViolation("lifting did not converge at precision "
                                     "%d" % K)
    return (lam, trace) if with_trace else lam


@dataclass(frozen=True)
class BoundCheck:
    N: int
    phi_val: int
    lower: int
    required: int
    lam_val: int
    equality: bool


def _phi_val_at(spec, lam, N, ring):
    """Valuation of Phi_N(lam), with the precision soundness gate:
    K must exceed b(N+1) * val(lam) + val(a_(N+1))."""
    vlam = _small_val(lam, ring)
    spec.b_shown(N + 1)  # b(N+1)'s errors come before a(N+1)'s, as ever
    va = spec.exact_ring().val(spec.a(N + 1))
    if va is None:
        raise SpecViolation("the tail head a_%d vanishes; the bound needs "
                            "it nonzero" % (N + 1), condition="tail",
                            index=N + 1)
    # K < b(N+1) * vlam + va + 1 exactly when b(N+1) passes this cap
    if spec.b_past(N + 1, (ring.prec - va - 1) // vlam):
        text, required = spec.b_shown(N + 1, vlam, va + 1)
        raise PrecisionTooLow(
            "need precision %s for a sound comparison, have %d"
            % (text, ring.prec), required=required, have=ring.prec)
    lower = spec.b(N + 1) * vlam + va
    required = lower + 1
    phi = _sparse_eval(ring, spec.sparse_terms_upto(spec.b(N)), lam)
    pv = ring.val(phi)
    if pv is None:
        raise PrecisionTooLow(
            "Phi_%d(lam) vanishes at precision %d; no finite valuation"
            % (N, ring.prec), required=ring.prec + 1, have=ring.prec)
    if pv < lower:
        raise InvariantViolation("tail valuation bound fails: %d < %d"
                                 % (pv, lower), index=N + 1)
    if va == 0 and vlam == 1 and pv != lower:
        raise InvariantViolation("a unit tail head forces equality: %d != %d"
                                 % (pv, lower), index=N + 1)
    return pv, lower, required, vlam


def _small_val(lam, ring):
    """v(lam), or PointNotSmall unless it is at least 1."""
    v = ring.val(lam)
    if v is None or v < 1:
        raise PointNotSmall("the root must have positive valuation")
    return v


def bound_check_prime(spec, lam, N, ring):
    """Check v(Phi_N(lam)) >= b(N+1) * val(lam) + val(a_(N+1)), with
    equality when the tail head is a unit and val(lam) = 1."""
    spec.validate_core()
    pv, lower, required, vlam = _phi_val_at(spec, lam, N, ring)
    return BoundCheck(N, pv, lower, required, vlam, pv == lower)


@dataclass(frozen=True)
class MarginReport:
    kind: str  # "char0" | "charp"
    lhs_factors: tuple  # of (base string, exponent string)
    rhs_factors: tuple
    flipped: bool  # True once the certificate side dominates


def _margin(spec, N, lam_val):
    """The margin of a family or candidate, with its family-constant
    half computed once: returns (L, deg) -> MarginReport for the size L
    of _candidate_L and the degree deg."""
    bN, bN1 = spec.b(N), spec.b(N + 1)
    if spec.characteristic == "p":
        aPhi = _phi_tdegree(spec, N)
        lhs = bN1 * lam_val
        lf = ((str(lhs), "1"),)

        def margin(L, deg):
            rhs = L * bN + aPhi * deg
            return MarginReport("charp", lf, ((str(rhs), "1"),), lhs > rhs)
        return margin
    kn, kd = spec.kappa.numerator, spec.kappa.denominator
    cn, cd = spec.C.numerator, spec.C.denominator
    # p^(2 v(lambda) b(N+1)) has b(N+1) digits and more: _exceeds
    # builds it only when bit lengths cannot settle the comparison
    lhs = ((spec.p, 2 * lam_val * bN1),
           (kd * kd * (cn * cn - cd * cd), 1),
           (cd, 2 * bN))
    rest = ((kn * kn * cn * cn, 1), (cn, 2 * bN))
    lf = tuple((str(x), str(e)) for x, e in lhs)
    rf0, rf2 = ((str(x), str(e)) for x, e in rest)

    @cache  # a family's candidates share few sizes L
    def margin(L, deg):
        # L = 0 (height 0) makes the right side 0
        return MarginReport("char0", lf, (rf0, (str(L), str(bN)), rf2),
                            L == 0 or _exceeds(lhs, rest + ((L, bN),)))
    return margin


@dataclass(frozen=True)
class CertificateReport:
    candidate: tuple
    N: int
    b_next: int
    phi_val: int
    B: object
    B_val: object  # None when B = 0
    p_at_lam_val: object
    verdict: str
    margin: MarginReport


def _candidate_L(spec, P):
    if spec.characteristic == "zero":
        return (P.degree + 1) * max(abs(c) for c in P.coeffs) ** 2
    return max(map(P.ring.deg, P.coeffs))


def _phi_tdegree(spec, N):
    """aPhi: the largest t-degree among Phi_N's coefficients."""
    deg = spec.exact_ring().deg
    return max((deg(c) for _, c in spec.sparse_terms_upto(spec.b(N))),
               default=0)


def _p_at_lam_val(P, lam, ring):
    return ring.val(P.eval(lam, ring))


def _truncation_data(spec, lam, N, ring, budget=None):
    """What every candidate's certificate shares: Phi_N (BudgetExceeded
    past the budget, the spec's unless given), the valuation of
    Phi_N(lambda), and the margin with its family-constant half. The
    budget and then the precision gate are checked before Phi_N is
    built, as its b(N) + 1 dense terms may not fit in memory."""
    _phi_degree(spec, N, budget)
    phi_val, _, _, vlam = _phi_val_at(spec, lam, N, ring)
    return phi_truncation(spec, N, budget), phi_val, _margin(spec, N, vlam)


def certify_not_root(spec, lam, P, N, ring, budget=None):
    """Certificate that P(lambda) != 0 from the truncation Phi_N:
    compares the exact valuation of B = Res(P, Phi_N) with the
    valuation of Phi_N(lambda). B = 0 reports a shared factor. budget
    caps Phi_N's degree as in phi_truncation."""
    if P.degree < 1:
        raise ValueError("candidates must be nonconstant")
    spec.validate_core()
    exact = spec.exact_ring()
    if P.ring != exact:
        if P.ring.kind != exact.kind or P.ring.p not in (None, exact.p):
            raise ValueError("candidate ring %r does not match the series"
                             % (P.ring.desc(),))
        P = make_poly(exact, list(P.coeffs))
    return _certify(spec, lam, P, N, ring,
                    _truncation_data(spec, lam, N, ring, budget))


def _certify(spec, lam, P, N, ring, truncation):
    phi, phi_val, margin_of = truncation
    B = resultant(P, phi)
    margin = margin_of(_candidate_L(spec, P), P.degree)
    B_val = spec.exact_ring().val(B)
    if B_val is None:
        return CertificateReport(P.coeffs, N, spec.b(N + 1), phi_val, B,
                                 None, None, VERDICT_SHARED, margin)
    pl_val = _p_at_lam_val(P, lam, ring)
    if B_val < phi_val:
        verdict = VERDICT_CERTIFIED
        if pl_val is None:
            raise InvariantViolation("a certified candidate vanishes at "
                                     "precision %d" % ring.prec)
        if pl_val > B_val:
            raise InvariantViolation("v(P(lam)) = %d exceeds v(B) = %d"
                                     % (pl_val, B_val))
    else:
        verdict = VERDICT_INCONCLUSIVE
    return CertificateReport(P.coeffs, N, spec.b(N + 1), phi_val, B, B_val,
                             pl_val, verdict, margin)


def _family_L(spec, D, H):
    """The worst-case candidate size L of _candidate_L in the family."""
    return (D + 1) * H * H if spec.characteristic == "zero" else H


def family_margin(spec, D, H, N, lam_val=1):
    """Family-level margin with the worst-case candidate size cap:
    L = (D + 1) * H^2 in characteristic zero, coefficient t-degree H
    in characteristic p. Needs only the exponent rule."""
    return _margin(spec, N, lam_val)(_family_L(spec, D, H), D)


def family_size(spec, D, H):
    """The number of candidates, in closed form: the sum over d <= D of
    |lows|^d * |leads|, with |lows| = p^(H+1) and |leads| = |lows| - 1
    in characteristic p, 2H + 1 and H in characteristic zero. The sum
    stops past FAMILY_CAP, where it is a lower bound, so sizing a huge
    family costs a few products."""
    charp = spec.characteristic == "p"
    # p^(H+1) is past the cap once H + 1 reaches the cap's bit length
    lows = (spec.p ** min(H + 1, FAMILY_CAP.bit_length()) if charp
            else 2 * H + 1)
    size, term = 0, lows - 1 if charp else H
    for _ in range(D):
        term *= lows
        size += term
        if size > FAMILY_CAP:
            break
    return size


def _family_coeffs(spec, H):
    """The coefficient values of the height-H family: all of them for
    the lower coefficients, and the leading ones, sign-normalized
    positive in characteristic zero and nonzero in characteristic p."""
    if spec.characteristic == "zero":
        return range(-H, H + 1), range(1, H + 1)
    lows = spec.exact_ring().below_degree(H + 1)
    return lows, lows[1:]


def enumerate_family(spec, D, H):
    """The candidates as coefficient tuples, generated in a
    deterministic order: degree ascending, then lexicographic on the
    ascending coefficient tuple, so the leading coefficient varies
    fastest."""
    lows, leads = _family_coeffs(spec, H)
    for deg in range(1, D + 1):
        yield from itertools.product(*[lows] * deg, leads)


def _structural_charp_certificate(spec, N):
    """Once-per-family irreducibility certificate for Phi_N over
    F_2[t]: Phi = A0(x) + t * A1(x) with every coefficient t-linear
    and gcd(A0, A1) = 1 makes Phi irreducible, so no candidate of
    smaller degree can share a factor."""
    if spec.p != 2:
        return False
    R = spec.exact_ring()
    terms = spec.sparse_terms_upto(spec.b(N))
    if any(R.deg(c) > 1 for _, c in terms):
        return False
    # each coefficient is c1 * t + c0, and A0, A1 in F_2[x] are held
    # as F_2[t] elements, which is evaluation at x = t
    t = R.uniformizer()
    split = [(e, R.divmod(c, t)) for e, c in terms]
    A0 = _sparse_eval(R, [(e, c0) for e, (_, c0) in split], t)
    A1 = _sparse_eval(R, [(e, c1) for e, (c1, _) in split], t)
    return R.gcd(A0, A1) == R.one()


@dataclass(frozen=True)
class FamilySummary:
    total: int
    n_certified: int
    n_shared: int
    n_inconclusive: int
    route: str
    pl_checked: int
    max_pl_val: object
    max_B_val: object
    samples: tuple
    margin: MarginReport


def certify_family(spec, lam, D, H, N, ring, budget=None):
    """Sweep every candidate of degree <= D and height <= H, streamed
    in enumerate_family's order. Counts, sample reports (a
    deterministic stride), and crossvalidation stats follow that order.

    The structural route serves characteristic p when the family
    margin has flipped, D < b(N), and Phi_N is irreducible
    (_structural_charp_certificate): then every B is nonzero with
    v(B) <= deg_t(B) <= bound < v(Phi_N(lambda)), so each candidate
    needs only v(P(lambda)), summed from tables of c * lambda^i, and
    exact resultants run on the sample alone. Every other family is
    certified candidate by candidate. budget caps Phi_N's degree as in
    phi_truncation. A family of more than FAMILY_CAP candidates is
    refused with BudgetExceeded before any candidate is built. An empty
    one checks Phi_N's budget and then v(lambda) >= 1, whose value its
    margin takes, as every family's does."""
    spec.validate_core()
    total = family_size(spec, D, H)
    if total > FAMILY_CAP:
        raise BudgetExceeded(
            "a sweep of degree <= %d and height <= %d has at least %d "
            "candidates, budget is %d" % (D, H, total, FAMILY_CAP),
            needed=total, budget=FAMILY_CAP)
    if total == 0:
        _phi_degree(spec, N, budget)
        return FamilySummary(0, 0, 0, 0, "empty", 0, None, None, (),
                             family_margin(spec, D, H, N,
                                           _small_val(lam, ring)))
    # Phi_N's budget and the precision gate run before the margin
    truncation = _truncation_data(spec, lam, N, ring, budget)
    fam_margin = truncation[2](_family_L(spec, D, H), D)
    stride = max(total // 16, 1)
    bN = spec.b(N)
    structural = (spec.characteristic == "p" and fam_margin.flipped
                  and D < bN and _structural_charp_certificate(spec, N))
    if structural:
        lows, _ = _family_coeffs(spec, H)
        # bound is the family margin's right side; the soundness gate
        # on K keeps bound + 2 <= K
        bound = H * bN + _phi_tdegree(spec, N) * D
        wring = ring.at_prec(bound + 2)
        wlam, power, tables = wring.canon(lam), wring.one(), []
        for _ in range(D + 1):
            tables.append({c: wring.mul(wring.canon(c), power)
                           for c in lows})
            power = wring.mul(power, wlam)
    counts = {VERDICT_CERTIFIED: 0, VERDICT_SHARED: 0,
              VERDICT_INCONCLUSIVE: 0}
    n_pl, max_pl, max_B, samples = 0, -1, -1, []
    low = None
    for idx, cand in enumerate(enumerate_family(spec, D, H)):
        sampled = idx % stride == 0
        verdict = VERDICT_CERTIFIED
        if structural:
            if cand[:-1] != low:
                # the lower terms change only when the leading
                # coefficient wraps around
                low, acc = cand[:-1], wring.zero()
                for table, c in zip(tables, low):
                    acc = wring.add(acc, table[c])
            pl_val = wring.val(wring.add(acc, tables[len(low)][cand[-1]]))
            if pl_val is None or pl_val > bound:
                raise InvariantViolation(
                    "P(lam) has valuation above the certified bound %d"
                    % bound, index=idx)
        if sampled or not structural:
            rep = _certify(spec, lam, make_poly(spec.exact_ring(), list(cand)),
                           N, ring, truncation)
            if structural and (rep.verdict != VERDICT_CERTIFIED
                               or rep.B_val > bound):
                raise InvariantViolation(
                    "sampled candidate %d escapes the structural "
                    "certificate" % idx, index=idx)
            verdict, pl_val = rep.verdict, rep.p_at_lam_val
            if rep.B_val is not None:
                max_B = max(max_B, rep.B_val)
            if sampled:
                samples.append(rep)
        counts[verdict] += 1
        if pl_val is not None:
            n_pl += 1
            max_pl = max(max_pl, pl_val)
    return FamilySummary(total, counts[VERDICT_CERTIFIED],
                         counts[VERDICT_SHARED], counts[VERDICT_INCONCLUSIVE],
                         "structural" if structural else "per_candidate",
                         n_pl, max_pl if n_pl else None,
                         max_B if max_B >= 0 else None,
                         tuple(samples), fam_margin)


def gap_linear_factor(spec, K):
    """Weierstrass data for the reduction-index-1 gap series at
    precision K on the window x^K: P = x - lambda and the unit
    cofactor with coefficients U_k = sum_(j>k) f_j lambda^(j-k-1),
    built by one suffix sweep instead of the generic iteration."""
    lam = small_root_of_gap(spec, K)
    ring = spec.work_ring(K)
    dense = _dense(ring, spec.sparse_terms_upto(K - 1), K)
    U = [ring.zero()] * K
    cur = ring.zero()
    for k in range(K - 1, -1, -1):
        nxt = dense[k + 1] if k + 1 < K else ring.zero()
        cur = ring.add(ring.mul(lam, cur), nxt)
        U[k] = cur
    if ring.val(U[0]) != 0:
        raise InvariantViolation("the cofactor is not a unit series")
    # (x - lam) * U == f on the window
    for k in range(K):
        got = ring.sub(U[k - 1] if k else ring.zero(), ring.mul(lam, U[k]))
        if got != dense[k]:
            raise InvariantViolation("the cofactor identity fails at %d" % k,
                                     index=k)
    P = (ring.neg(lam), ring.one())
    return WFactorization(0, 1, P, Series(ring, K, tuple(U)), ring, K)
