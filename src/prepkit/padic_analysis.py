"""Gap power series: admissibility, small roots, truncation
certificates, and candidate-family sweeps.

A gap series is f = a_0 + a_1 x^(b(0)) + sum_(n>=1) a_n x^(b(n)) with
b(0) = 1 and rapidly increasing exponents. Admissibility asks for
(1) a_0 nonzero of positive valuation, (2) a unit coefficient at the
witness index, and (3) a growth cap on coefficient size relative to the
exponent gaps; every violation is reported with its condition number
and offending index.

Certificates that a candidate polynomial P does not vanish at the small
root lambda compare exact resultant valuations against the valuation of
the truncation Phi_N at lambda: v(Res(P, Phi_N)) < v(Phi_N(lambda))
forces P(lambda) != 0. Margins are cleared integer comparisons, never
floating point.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    CompositeModulus,
    DegreeAboveOne,
    HenselConditionFails,
    InvariantViolation,
    PointNotSmall,
    PrecisionTooLow,
    SpecViolation,
)
from .rings import IntModRing, is_prime, make_ring, val_unit_decompose
from .resultant import Poly, make_poly, resultant
from .series import OracleSeries, Series, evaluate
from .weierstrass import WFactorization

VERDICT_CERTIFIED = "certified_not_root"
VERDICT_SHARED = "shared_factor"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GapSpec:
    characteristic: str  # "zero" | "p"
    p: int
    a_rule: dict
    b_rule: dict
    C: Fraction
    kappa: Fraction
    budget: int = 65536
    witness: int = 1

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


def reference_spec(characteristic="zero"):
    """The running example: p = 2, a_0 the uniformizer, unit higher
    coefficients, b(n) = 2^(n^2), C = kappa = 2."""
    if characteristic == "zero":
        a0 = 2
        rest = 1
    else:
        a0 = (0, 1)
        rest = (1,)
    return GapSpec(characteristic, 2,
                   {"kind": "const_after", "a0": a0, "rest": rest},
                   {"kind": "pow2_nsq"},
                   Fraction(2), Fraction(2))


class _GapView:
    """Rule evaluation plus admissibility checks for one GapSpec."""

    def __init__(self, spec):
        self.spec = spec
        self._bs = []
        self._checked_a = set()

    # exponent rule
    def b(self, n):
        rule = self.spec.b_rule
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

    def _raw_a(self, n):
        rule = self.spec.a_rule
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
        if self.spec.characteristic == "zero":
            return int(v)
        return tuple(int(d) % self.spec.p for d in v)

    def _is_zero(self, a):
        return a == 0 if self.spec.characteristic == "zero" else not any(a)

    def _val(self, a):
        return self.exact_ring().val(a)

    def a(self, n):
        v = self._raw_a(n)
        if n in self._checked_a:
            return v
        spec = self.spec
        if n == 0:
            if self._is_zero(v) or self._val(v) < 1:
                raise SpecViolation(
                    "a_0 must be nonzero with positive valuation",
                    condition=1, index=0)
        elif n == spec.witness:
            if self._is_zero(v) or self._val(v) != 0:
                raise SpecViolation(
                    "the witness coefficient a_%d must be a unit" % n,
                    condition=2, index=n)
        if n >= 1 and not self._is_zero(v):
            bn = self.b(n)
            if spec.characteristic == "zero":
                lhs = abs(v) * spec.kappa.denominator * spec.C.denominator ** bn
                rhs = spec.kappa.numerator * spec.C.numerator ** bn
            else:
                lhs = (len(v) - 1) * spec.C.denominator
                rhs = spec.C.numerator * bn
            if lhs > rhs:
                raise SpecViolation(
                    "coefficient a_%d breaks the growth cap" % n,
                    condition=3, index=n)
        self._checked_a.add(n)
        return v

    def validate_core(self):
        self.a(0)
        self.a(self.spec.witness)
        self.b(0)

    def sparse_terms_upto(self, emax):
        """Nonzero (exponent, coefficient) pairs with exponent <= emax,
        ascending. The witness-indexed coefficient sits at x^(b(0)) = x
        as well as at its own exponent."""
        self.validate_core()
        out = []
        a0 = self.a(0)
        if not self._is_zero(a0):
            out.append((0, a0))
        if emax >= 1:
            a1 = self.a(1)
            if not self._is_zero(a1):
                out.append((1, a1))
        m = 1
        while True:
            bm = self.b(m)
            if bm > emax:
                break
            am = self.a(m)
            if not self._is_zero(am):
                out.append((bm, am))
            m += 1
        return out

    def exact_ring(self):
        kind = "z" if self.spec.characteristic == "zero" else "fpt_exact"
        return make_ring(kind, self.spec.p)

    def work_ring(self, K):
        kind = "zp" if self.spec.characteristic == "zero" else "fpt"
        return make_ring(kind, self.spec.p, K)


def build_gap_series(spec):
    """The gap series as an exact-coefficient oracle, queryable up to
    the configured budget."""
    view = _GapView(spec)
    view.validate_core()
    ring = view.exact_ring()

    def coeff(e):
        if e == 0:
            return view.a(0)
        if e == 1:
            return view.a(1)
        lo = 1
        while view.b(lo) < e:
            lo += 1
        if view.b(lo) == e:
            return view.a(lo)
        return ring.zero()

    return OracleSeries(ring, coeff, spec.budget)


def sparse_terms_upto(spec, emax):
    return _GapView(spec).sparse_terms_upto(emax)


def phi_truncation(spec, N, budget=None):
    """The polynomial Phi_N: all terms with exponent <= b(N), as a
    dense exact polynomial. Materialization is refused past the
    budget (BudgetExceeded carries the needed size)."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    view = _GapView(spec)
    bN = view.b(N)
    cap = spec.budget if budget is None else budget
    if bN > cap:
        raise BudgetExceeded("Phi_%d needs degree %d, budget is %d"
                             % (N, bN, cap), needed=bN, budget=cap)
    ring = view.exact_ring()
    dense = [ring.zero()] * (bN + 1)
    for e, c in view.sparse_terms_upto(bN):
        dense[e] = ring.add(dense[e], ring.canon(c))
    return make_poly(ring, dense)


def _to_work(view, ring, c):
    if view.spec.characteristic == "zero":
        return ring.from_int(c)
    return ring.from_digits(c)


def _sparse_eval(view, ring, terms, lam):
    """The sum of c * lam^e over terms ascending in e. Each power comes
    from the previous one, lam^e = (lam^e0)^(e // e0) * lam^(e % e0), so
    exponents that divide each other share one squaring chain."""
    acc = ring.zero()
    e0 = 0
    for e, c in terms:
        term = _to_work(view, ring, c)
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
    view = _GapView(spec)
    view.validate_core()
    a1 = view.a(1)
    if view._is_zero(a1) or view._val(a1) != 0:
        terms = view.sparse_terms_upto(view.b(max(spec.witness, 1)))
        n = next((e for e, c in terms if view._val(c) == 0), None)
        raise DegreeAboveOne(
            "the coefficient at x is not a unit; reduction index is %s" % n,
            reduction_index=n)
    ring = view.work_ring(K)
    terms = view.sparse_terms_upto(max(K - 1, 1))
    dterms = []
    for e, c in terms:
        if e == 0:
            continue
        if spec.characteristic == "zero":
            dc = e * c
        else:
            dc = tuple(d * (e % spec.p) % spec.p for d in c)
        if not view._is_zero(dc):
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
        fv = _sparse_eval(view, R, [t for t in terms if t[0] < k], lam)
        h = R.split([fv], k1)[1][0]
        dv = _sparse_eval(view, D, [t for t in dterms if t[0] < k - k1],
                          R.reduce([lam], k - k1)[0])
        if D.val(dv) != 0:
            raise InvariantViolation("the derivative at the root is not a "
                                     "unit at precision %d" % k)
        step = D.mul(h, D.invert_unit(dv))
        return R.join([lo], [D.neg(step)], k1)[0]

    lam = lift(K)
    if not ring.is_zero(_sparse_eval(view, ring, terms, lam)):
        raise InvariantViolation("the root lift did not converge at "
                                 "precision %d" % K)
    if ring.val(lam) == 0:
        raise InvariantViolation("the root lift reached a unit root")
    return lam


class _PolyFunc:
    """Hensel adapter: exact polynomial, evaluable anywhere."""

    def __init__(self, poly):
        self.poly = poly

    def eval(self, ring, x):
        return self.poly.eval(x, ring)

    def deriv_eval(self, ring, x):
        cs = self.poly.coeffs
        acc = ring.zero()
        for k in range(len(cs) - 1, 0, -1):
            ck = ring.mul(ring.from_int(k), ring.canon(cs[k]))
            acc = ring.add(ring.mul(acc, x), ck)
        return acc


class _SeriesFunc:
    """Hensel adapter: windowed series, evaluable at small points."""

    def __init__(self, series):
        self.series = series
        ring = series.ring
        m = series.x_prec
        dc = [ring.mul(ring.from_int(k), series.coeffs[k])
              for k in range(1, m)]
        self.deriv = Series(ring, max(m - 1, 1),
                            tuple(dc) if dc else (ring.zero(),))

    def _lift(self, ring, x):
        sring = self.series.ring
        if isinstance(sring, IntModRing):
            return x % sring.mod
        return tuple(x) + (0,) * (sring.prec - len(x))

    def eval(self, ring, x):
        v = evaluate(self.series, self._lift(ring, x), ring.prec)
        return ring.canon(v)

    def deriv_eval(self, ring, x):
        v = evaluate(self.deriv, self._lift(ring, x), ring.prec)
        return ring.canon(v)


def hensel_lift(f, x0, K, ring=None, with_trace=False):
    """Newton lifting to a root mod pi^K from a start satisfying
    val(f(x0)) > 2 * val(f'(x0)). f may be an exact polynomial or a
    windowed series; the working ring defaults to x0's ring reduced
    to precision K."""
    if isinstance(f, Poly):
        fn = _PolyFunc(f)
        if ring is None:
            raise ValueError("polynomial lifting needs an explicit ring")
    else:
        fn = _SeriesFunc(f)
        if ring is None:
            ring = f.ring
    if ring.prec is None or ring.prec < K:
        raise ValueError("need a finite ring of precision at least %d" % K)
    if ring.prec != K:
        ring = make_ring(ring.kind, ring.p, K)
    lam = ring.canon(x0)
    trace = [lam]
    fv = fn.eval(ring, lam)
    if not ring.is_zero(fv):
        dv = fn.deriv_eval(ring, lam)
        vf, vd = ring.val(fv), ring.val(dv)
        if vd is None or vf <= 2 * vd:
            raise HenselConditionFails(
                "val(f(x0))=%s is not above 2*val(f'(x0))=%s"
                % (vf, "inf" if vd is None else 2 * vd), vf=vf, vd=vd)
        prev_vf = vf
        for _ in range(2 * K + 8):
            dv = fn.deriv_eval(ring, lam)
            vd2, unit = val_unit_decompose(ring, dv)
            step = ring.mul(fv, ring.invert_unit(unit))
            if isinstance(ring, IntModRing):
                pv = ring.p ** vd2
                assert step % pv == 0
                step //= pv
            else:
                assert not any(step[:vd2])
                step = tuple(step[vd2:]) + (0,) * vd2
            lam = ring.sub(lam, step)
            trace.append(lam)
            fv = fn.eval(ring, lam)
            if ring.is_zero(fv):
                break
            vf = ring.val(fv)
            assert vf > prev_vf, "no valuation progress"
            prev_vf = vf
        assert ring.is_zero(fv), "lifting did not converge"
    return (lam, trace) if with_trace else lam


@dataclass(frozen=True)
class BoundCheck:
    N: int
    phi_val: int
    lower: int
    required: int
    lam_val: int
    equality: bool


def _phi_val_at(view, lam, N, ring):
    """Valuation of Phi_N(lam), with the precision soundness gate:
    K must exceed b(N+1) * val(lam) + val(a_(N+1))."""
    vlam = ring.val(lam)
    if vlam is None or vlam < 1:
        raise PointNotSmall("the root must have positive valuation")
    bN1 = view.b(N + 1)
    va = view._val(view.a(N + 1))
    if va is None:
        raise SpecViolation("the tail head a_%d vanishes; the bound needs "
                            "it nonzero" % (N + 1), condition="tail",
                            index=N + 1)
    lower = bN1 * vlam + va
    required = lower + 1
    if ring.prec < required:
        raise PrecisionTooLow(
            "need precision %d for a sound comparison, have %d"
            % (required, ring.prec), required=required, have=ring.prec)
    phi = _sparse_eval(view, ring, view.sparse_terms_upto(view.b(N)), lam)
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


def bound_check_prime(spec, lam, N, ring):
    """Check v(Phi_N(lam)) >= b(N+1) * val(lam) + val(a_(N+1)), with
    equality when the tail head is a unit and val(lam) = 1."""
    view = _GapView(spec)
    view.validate_core()
    pv, lower, required, vlam = _phi_val_at(view, lam, N, ring)
    return BoundCheck(N, pv, lower, required, vlam, pv == lower)


@dataclass(frozen=True)
class MarginReport:
    kind: str  # "char0" | "charp"
    lhs_factors: tuple  # of (base string, exponent string)
    rhs_factors: tuple
    flipped: bool  # True once the certificate side dominates


def _margin_char0(spec, lam_val, bN, bN1, L):
    kn, kd = spec.kappa.numerator, spec.kappa.denominator
    cn, cd = spec.C.numerator, spec.C.denominator
    head = kd * kd * (cn * cn - cd * cd)
    lhs = spec.p ** (2 * lam_val * bN1) * head * cd ** (2 * bN)
    rhs = kn * kn * cn * cn * L ** bN * cn ** (2 * bN)
    lf = ((str(spec.p), str(2 * lam_val * bN1)),
          (str(head), "1"),
          (str(cd), str(2 * bN)))
    rf = ((str(kn * kn * cn * cn), "1"),
          (str(L), str(bN)),
          (str(cn), str(2 * bN)))
    return MarginReport("char0", lf, rf, lhs > rhs)


def _margin_charp(lam_val, bN, bN1, hP, aPhi, degP):
    lhs = bN1 * lam_val
    rhs = hP * bN + aPhi * degP
    lf = ((str(lhs), "1"),)
    rf = ((str(rhs), "1"),)
    return MarginReport("charp", lf, rf, lhs > rhs)


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
    return max(len(c) - 1 for c in P.coeffs if c)


def _candidate_margin(view, P, N, lam_val):
    spec = view.spec
    bN, bN1 = view.b(N), view.b(N + 1)
    if spec.characteristic == "zero":
        return _margin_char0(spec, lam_val, bN, bN1, _candidate_L(spec, P))
    aPhi = max((len(c) - 1 for _, c in view.sparse_terms_upto(bN)), default=0)
    return _margin_charp(lam_val, bN, bN1, _candidate_L(spec, P), aPhi,
                         P.degree)


def _p_at_lam_val(P, lam, ring):
    return ring.val(P.eval(lam, ring))


def _truncation_data(view, lam, N, ring):
    """What every candidate's certificate shares: Phi_N (BudgetExceeded
    past the budget), the valuation of Phi_N(lambda) and val(lambda)."""
    phi = phi_truncation(view.spec, N)
    phi_val, _, _, vlam = _phi_val_at(view, lam, N, ring)
    return phi, phi_val, vlam


def certify_not_root(spec, lam, P, N, ring):
    """Certificate that P(lambda) != 0 from the truncation Phi_N:
    compares the exact valuation of B = Res(P, Phi_N) with the
    valuation of Phi_N(lambda). B = 0 reports a shared factor."""
    if P.degree < 1:
        raise ValueError("candidates must be nonconstant")
    view = _GapView(spec)
    view.validate_core()
    exact = view.exact_ring()
    if P.ring != exact:
        if P.ring.kind != exact.kind or P.ring.p not in (None, exact.p):
            raise ValueError("candidate ring %r does not match the series"
                             % (P.ring.desc(),))
        P = make_poly(exact, list(P.coeffs))
    return _certify(view, lam, P, N, ring, _truncation_data(view, lam, N, ring))


def _certify(view, lam, P, N, ring, truncation):
    phi, phi_val, vlam = truncation
    B = resultant(P, phi)
    margin = _candidate_margin(view, P, N, vlam)
    if view._is_zero(B):
        return CertificateReport(P.coeffs, N, view.b(N + 1), phi_val, B,
                                 None, None, VERDICT_SHARED, margin)
    B_val = view._val(B)
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
    return CertificateReport(P.coeffs, N, view.b(N + 1), phi_val, B, B_val,
                             pl_val, verdict, margin)


def family_margin(spec, D, H, N, lam_val=1):
    """Family-level margin with the worst-case candidate size cap:
    L = (D + 1) * H^2 in characteristic zero, coefficient t-degree H
    in characteristic p. Needs only the exponent rule."""
    view = _GapView(spec)
    bN, bN1 = view.b(N), view.b(N + 1)
    if spec.characteristic == "zero":
        return _margin_char0(spec, lam_val, bN, bN1, (D + 1) * H * H)
    aPhi = max((len(c) - 1 for _, c in view.sparse_terms_upto(bN)), default=0)
    return _margin_charp(lam_val, bN, bN1, H, aPhi, D)


def enumerate_family(spec, D, H):
    """Deterministic candidate order: degree ascending, then
    lexicographic on the ascending coefficient tuple. Leading
    coefficients are sign-normalized positive in characteristic zero
    and nonzero in characteristic p."""
    if spec.characteristic == "zero":
        lows, leads = range(-H, H + 1), range(1, H + 1)
    else:
        # the coefficient with index m has the base-p digits of m
        lows = [_base_digits(m, spec.p) for m in range(spec.p ** (H + 1))]
        leads = lows[1:]
    out = []
    for deg in range(1, D + 1):
        out.extend(itertools.product(*[lows] * deg, leads))
    return out


def _base_digits(m, p):
    out = []
    while m:
        m, d = divmod(m, p)
        out.append(d)
    return tuple(out)


def _structural_charp_certificate(view, N):
    """Once-per-family irreducibility certificate for Phi_N over
    F_2[t]: Phi = A0(x) + t * A1(x) with every coefficient t-linear
    and gcd(A0, A1) = 1 makes Phi irreducible, so no candidate of
    smaller degree can share a factor."""
    if view.spec.p != 2:
        return False
    terms = view.sparse_terms_upto(view.b(N))
    if any(len(c) > 2 for _, c in terms):
        return False
    R = view.exact_ring()
    A0 = [0] * (view.b(N) + 1)
    A1 = [0] * (view.b(N) + 1)
    for e, c in terms:
        for A, d in zip((A0, A1), c):
            A[e] = d
    return R.gcd(R.canon(A0), R.canon(A1)) == R.one()


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


def certify_family(spec, lam, D, H, N, ring):
    """Sweep every candidate of degree <= D and height <= H. Counts,
    sample reports (a deterministic stride), and crossvalidation stats
    follow the candidate order."""
    view = _GapView(spec)
    view.validate_core()
    cands = enumerate_family(spec, D, H)
    total = len(cands)
    fam_margin = family_margin(spec, D, H, N,
                               ring.val(lam) if total else 1)
    if total == 0:
        return FamilySummary(0, 0, 0, 0, "empty", 0, None, None, (),
                             fam_margin)
    exact = view.exact_ring()
    polys = [make_poly(exact, list(c)) for c in cands]
    stride = max(total // 16, 1)
    sample_idx = set(range(0, total, stride))
    truncation = _truncation_data(view, lam, N, ring)
    if (spec.characteristic == "p"
            and _structural_charp_certificate(view, N)):
        return _family_structural(view, lam, polys, N, ring, truncation,
                                  sample_idx, fam_margin)
    return _family_percandidate(view, lam, polys, N, ring, truncation,
                                sample_idx, fam_margin)


def _family_percandidate(view, lam, polys, N, ring, truncation, sample_idx,
                         fam_margin):
    counts = {VERDICT_CERTIFIED: 0, VERDICT_SHARED: 0,
              VERDICT_INCONCLUSIVE: 0}
    pls = []
    bvs = []
    samples = []
    for idx, P in enumerate(polys):
        rep = _certify(view, lam, P, N, ring, truncation)
        counts[rep.verdict] += 1
        if rep.p_at_lam_val is not None:
            pls.append(rep.p_at_lam_val)
        if rep.B_val is not None:
            bvs.append(rep.B_val)
        if idx in sample_idx:
            samples.append(rep)
    return FamilySummary(len(polys), counts[VERDICT_CERTIFIED],
                         counts[VERDICT_SHARED], counts[VERDICT_INCONCLUSIVE],
                         "per_candidate", len(pls),
                         max(pls) if pls else None,
                         max(bvs) if bvs else None,
                         tuple(samples), fam_margin)


def _family_structural(view, lam, polys, N, ring, truncation, sample_idx,
                       fam_margin):
    """Characteristic-p fast route: one irreducibility certificate
    covers nonvanishing of every B; per-candidate work reduces to the
    valuation of P(lambda), plus exact resultants on the sample."""
    bN, bN1 = view.b(N), view.b(N + 1)
    vlam = ring.val(lam)
    aPhi = max((len(c) - 1 for _, c in view.sparse_terms_upto(bN)),
               default=0)
    deg_cap = max(p.degree for p in polys)
    h_cap = max(max(len(c) - 1 for c in p.coeffs if c) for p in polys)
    tdeg_bound = h_cap * bN + aPhi * deg_cap
    if not (bN1 * vlam > tdeg_bound and deg_cap < bN):
        return _family_percandidate(view, lam, polys, N, ring, truncation,
                                    sample_idx, fam_margin)
    # v(B) <= deg_t(B) <= tdeg_bound < v(Phi_N(lam)): certified across
    # the family once each B is nonzero, which irreducibility grants.
    # The soundness gate on K keeps tdeg_bound + 2 <= K.
    wring = ring.at_prec(tdeg_bound + 2)
    wlam = wring.canon(lam)
    pls = []
    samples = []
    for idx, P in enumerate(polys):
        v = _p_at_lam_val(P, wlam, wring)
        if v is None or v > tdeg_bound:
            raise InvariantViolation(
                "P(lam) has valuation above the certified bound %d"
                % tdeg_bound, index=idx)
        pls.append(v)
        if idx in sample_idx:
            rep = _certify(view, lam, P, N, ring, truncation)
            if rep.verdict != VERDICT_CERTIFIED or rep.B_val > tdeg_bound:
                raise InvariantViolation(
                    "sampled candidate %d escapes the structural "
                    "certificate" % idx, index=idx)
            samples.append(rep)
    bvs = [rep.B_val for rep in samples]
    return FamilySummary(len(polys), len(polys), 0, 0, "structural",
                         len(pls), max(pls) if pls else None,
                         max(bvs) if bvs else None,
                         tuple(samples), fam_margin)


def gap_linear_factor(spec, K):
    """Weierstrass data for the reduction-index-1 gap series at
    precision K on the window x^K: P = x - lambda and the unit
    cofactor with coefficients U_k = sum_(j>k) f_j lambda^(j-k-1),
    built by one suffix sweep instead of the generic iteration."""
    view = _GapView(spec)
    lam = small_root_of_gap(spec, K)
    ring = view.work_ring(K)
    dense = [ring.zero()] * K
    for e, c in view.sparse_terms_upto(K - 1):
        dense[e] = ring.add(dense[e], _to_work(view, ring, c))
    U = [ring.zero()] * K
    cur = ring.zero()
    for k in range(K - 1, -1, -1):
        nxt = dense[k + 1] if k + 1 < K else ring.zero()
        cur = ring.add(ring.mul(lam, cur), nxt)
        U[k] = cur
    assert ring.val(U[0]) == 0, "cofactor must be a unit series"
    # (x - lam) * U == f on the window
    assert ring.mul(ring.neg(lam), U[0]) == dense[0]
    for k in range(1, K):
        got = ring.sub(U[k - 1], ring.mul(lam, U[k]))
        assert got == dense[k], "cofactor identity fails at %d" % k
    P = (ring.neg(lam), ring.one())
    return WFactorization(0, 1, P, Series(ring, K, tuple(U)), ring, K)
