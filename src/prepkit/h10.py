"""Diophantine-to-series reduction.

A multivariate integer polynomial P is turned into the power series
f_P = a0 + sum a_P(n) x^n, where a_P(n) marks membership of n in the
value set of the doubly-exponential recursion b_P. P has an integer
zero exactly when the exponent products collapse to 0, making f_P
rational; otherwise the marked indices gap apart super-exponentially.
The probe is budgeted and three-way: it never claims to decide
integer solvability.
"""

import math
import re
from dataclasses import dataclass

from .errors import InvariantViolation, NonPrimeBase
from .rings import is_prime, make_ring
from .series import OracleSeries

DEFAULT_BIT_BUDGET = 10 ** 6


@dataclass(frozen=True)
class DioPoly:
    d: int
    terms: tuple  # sorted ((e_1, ..., e_d), coeff) pairs, coeff != 0

    def eval(self, point):
        if len(point) != self.d:
            raise ValueError("point has %d coordinates, polynomial has %d "
                             "variables" % (len(point), self.d))
        acc = 0
        for exps, c in self.terms:
            m = c
            for x, e in zip(point, exps):
                m *= x ** e
            acc += m
        return acc

    @property
    def constant(self):
        zero = (0,) * self.d
        for exps, c in self.terms:
            if exps == zero:
                return c
        return 0


def make_dio(d, terms):
    """Canonical sparse polynomial: zero coefficients dropped,
    exponent vectors of length d with nonnegative entries."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    canon = {}
    for exps, c in (terms.items() if isinstance(terms, dict) else terms):
        exps = tuple(int(e) for e in exps)
        if len(exps) != d or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector %r" % (exps,))
        c = canon.get(exps, 0) + int(c)
        if c:
            canon[exps] = c
        elif exps in canon:
            del canon[exps]
    return DioPoly(d, tuple(sorted(canon.items())))


def parse_dio_text(text, d=None):
    """Sparse line format: "coeff:e1,...,ed" per line, with # comments
    and blank lines ignored."""
    terms = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, tail = line.partition(":")
        exps = tuple(int(e) for e in tail.split(",")) if tail.strip() else ()
        if d is None:
            d = len(exps)
        if len(exps) != d:
            raise ValueError("inconsistent dimension in %r" % line)
        terms.append((exps, int(head)))
    if d is None or d < 1:
        raise ValueError("no terms found")
    return make_dio(d, terms)


_TERM_RE = re.compile(r"([+-]?)(\d*)((?:\*?x\d*(?:\^\d+)?)*)$")
_FACTOR_RE = re.compile(r"\*?x(\d*)(?:\^(\d+))?")


def parse_dio_inline(s):
    """Inline grammar for up to three variables: integer coefficients,
    x or x1..x3, ^ for powers, optional *. Example: "x1^2+x2^2-10"."""
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    parts = re.findall(r"[+-]?[^+-]+", s)
    if "".join(parts) != s:
        raise ValueError("cannot parse %r" % s)
    seen_bare = False
    seen_idx = 0
    parsed = []
    for part in parts:
        m = _TERM_RE.match(part)
        if not m or (not m.group(2) and not m.group(3)):
            raise ValueError("cannot parse term %r" % part)
        coeff = int(m.group(2)) if m.group(2) else 1
        if m.group(1) == "-":
            coeff = -coeff
        factors = []
        pos = 0
        for fm in _FACTOR_RE.finditer(m.group(3)):
            if fm.start() != pos:
                raise ValueError("cannot parse term %r" % part)
            pos = fm.end()
            if fm.group(1):
                idx = int(fm.group(1))
                if not 1 <= idx <= 3:
                    raise ValueError("inline parser covers x1..x3 only")
                seen_idx = max(seen_idx, idx)
            else:
                idx = 1
                seen_bare = True
            factors.append((idx, int(fm.group(2)) if fm.group(2) else 1))
        if pos != len(m.group(3)):
            raise ValueError("cannot parse term %r" % part)
        parsed.append((coeff, factors))
    if seen_bare and seen_idx:
        raise ValueError("mix of x and indexed variables")
    d = max(seen_idx, 1)
    terms = []
    for coeff, factors in parsed:
        exps = [0] * d
        for idx, e in factors:
            exps[idx - 1] += e
        terms.append((tuple(exps), coeff))
    return make_dio(d, terms)


# --------------------------------------------------------------------------
# the bijection theta: N -> Z^d

def zigzag(n):
    return (n + 1) // 2 if n % 2 else -(n // 2)


def _spiral_point(n):
    # the counterclockwise square spiral from the origin: right 1, up 1,
    # left 2, down 2, right 3, up 3, ... Pair j of runs (two runs of j
    # steps, right then up for odd j, left then down for even j) starts
    # after (j - 1) * j steps, at the corner (c, c), c = zigzag(j - 1).
    if n == 0:
        return (0, 0)
    j = (math.isqrt(4 * n - 3) + 1) // 2
    s = n - (j - 1) * j
    c = zigzag(j - 1)
    sign = 1 if j % 2 else -1
    if s <= j:
        return (c + sign * s, c)
    return (c + sign * j, c + sign * (s - j))


def cantor_unpair(z):
    w = (math.isqrt(8 * z + 1) - 1) // 2
    t = w * (w + 1) // 2
    b = z - t
    return w - b, b


def theta(n, d):
    """Computable bijection N -> Z^d: zigzag for d = 1, the square
    spiral for d = 2, iterated pair splitting plus coordinatewise
    zigzag for d >= 3."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if n < 0:
        raise ValueError("index must be nonnegative")
    if d == 1:
        return (zigzag(n),)
    if d == 2:
        return _spiral_point(n)
    parts = []
    z = n
    for _ in range(d - 1):
        a, z = cantor_unpair(z)
        parts.append(a)
    parts.append(z)
    return tuple(zigzag(v) for v in parts)


def _growth_factor(v):
    return v * v * (1 + v * v)


@dataclass(frozen=True)
class OverBudget:
    """Returned (never raised) when the next value cannot be computed
    within the budget: its bit size is at least predicted_bits."""
    n: int
    predicted_bits: int


class LazyBP:
    """Append-only memo of the recursion b(0) = 1,
    b(n) = b(n-1) + b(n-1)^E(n). Values stay exact until the bit
    budget bites; from there on every query at or past the cutoff
    returns the same OverBudget marker."""

    def __init__(self, P, bit_budget=DEFAULT_BIT_BUDGET):
        self.P = P
        self.bit_budget = bit_budget
        self._values = [1]
        self._evals = []  # E(0), E(1), ... exact, unbudgeted
        self._over = None

    def exponent(self, n):
        if n < 0:
            raise ValueError("index must be nonnegative")
        while len(self._evals) <= n:
            m = len(self._evals)
            prev = self._evals[-1] if m else 1
            g = _growth_factor(self.P.eval(theta(m, self.P.d)))
            self._evals.append(prev * g)
        return self._evals[n]

    def value(self, n):
        if n < 0:
            raise ValueError("index must be nonnegative")
        while len(self._values) <= n and self._over is None:
            self._extend()
        if self._over is not None and n >= self._over.n:
            return self._over
        return self._values[n]

    def _extend(self):
        m = len(self._values)
        E = self.exponent(m)
        b = self._values[-1]
        if E == 0:
            self._values.append(b + 1)
            return
        if b == 1:
            self._values.append(2)
            return
        predicted = E * (b.bit_length() - 1)
        if predicted >= self.bit_budget:
            self._over = OverBudget(m, predicted)
            return
        nxt = b + b ** E
        if nxt.bit_length() > self.bit_budget:
            self._over = OverBudget(m, nxt.bit_length())
            return
        self._values.append(nxt)

    def exact_prefix(self):
        """(values, marker): every exactly known value, then the
        OverBudget marker or None if nothing has hit the budget yet
        among computed indices."""
        return list(self._values), self._over


def exponent_E(P, n):
    """Exact product over scanned points l <= n of
    P(theta(l))^2 * (1 + P(theta(l))^2). Zero iff a zero was hit."""
    return LazyBP(P).exponent(n)


@dataclass(frozen=True)
class UnderdeterminedBeyond:
    """Coefficient queries beyond the last exact recursion value are
    sound zeros only below 2^floor_bits, the proven lower bound on the
    next (uncomputed) value."""
    n: int
    floor_bits: int


class FPOracle:
    """Coefficient oracle for f_P: index 0 carries the prime a0,
    index n >= 1 carries 1 exactly when n is a recursion value b(j),
    j >= 1. Strict monotonicity of b makes membership decidable from
    the exact prefix; past the budget cutoff, zeros are still sound
    below the predicted size floor and the oracle raises its sticky
    underdetermined_beyond flag."""

    def __init__(self, P, a0=2, bit_budget=DEFAULT_BIT_BUDGET):
        if not is_prime(a0):
            raise NonPrimeBase("a0 must be prime, got %r" % (a0,), a0=a0)
        self.P = P
        self.a0 = a0
        self.bp = LazyBP(P, bit_budget)
        self.underdetermined_beyond = None

    def _floor_bits(self, over):
        # branch 1 of the cutoff: b^E >= 2^predicted; branch 2: the
        # exact value had predicted_bits bits, so it is >= 2^(bits-1)
        return max(over.predicted_bits - 1, 1)

    def coeff(self, n):
        if n < 0:
            raise ValueError("index must be nonnegative")
        if n == 0:
            return self.a0
        j = 1
        while True:
            v = self.bp.value(j)
            if isinstance(v, OverBudget):
                floor = self._floor_bits(v)
                if self.underdetermined_beyond is None:
                    self.underdetermined_beyond = UnderdeterminedBeyond(
                        v.n, floor)
                if n.bit_length() > floor:
                    raise InvariantViolation(
                        "index of %d bits is beyond the sound-zero floor of "
                        "%d bits" % (n.bit_length(), floor))
                return 0
            if v == n:
                return 1
            if v > n:
                return 0
            j += 1

    def series(self, x_prec):
        return OracleSeries(make_ring("z"), self.coeff, x_prec)


# --------------------------------------------------------------------------
# budgeted decision probe

@dataclass(frozen=True)
class RationalCertified:
    zero_index: int
    point: tuple


@dataclass(frozen=True)
class GapGrowthEvidence:
    first_n: int
    samples: tuple  # ((n, E(n)), ...) with E(n) >= 2^(n+1)
    zero_free_reason: str


@dataclass(frozen=True)
class Inconclusive:
    points: int


def _integer_root_window(P):
    """For d = 1: every integer root x has
    |x| <= 1 + ceil(max |low coeff| / |leading coeff|); returns that
    radius, or None when P is constant."""
    deg = max(e[0] for e, _ in P.terms) if P.terms else 0
    if deg == 0:
        return None
    lead = next(c for e, c in P.terms if e[0] == deg)
    low = max((abs(c) for e, c in P.terms if e[0] < deg), default=0)
    return 1 + -(-low // abs(lead))


def _sign_definite(P):
    """No integer zero anywhere: all coefficients share a sign, every
    exponent entry is even, and the constant term is nonzero."""
    if P.constant == 0 or not P.terms:
        return False
    signs = {c > 0 for _, c in P.terms}
    if len(signs) != 1:
        return False
    return all(e % 2 == 0 for exps, _ in P.terms for e in exps)


def decision_probe(P, points=100, bits=DEFAULT_BIT_BUDGET):
    """Scan l = 0..points for a zero of P along theta; a zero certifies
    rationality of f_P. With no zero found, growth evidence is emitted
    only under a zero-freeness certificate (full cover of the
    one-variable integer-root window, or sign definiteness); otherwise
    the verdict is Inconclusive."""
    for ell in range(points + 1):
        pt = theta(ell, P.d)
        if P.eval(pt) == 0:
            return RationalCertified(ell, pt)
    reason = None
    if P.d == 1:
        R = _integer_root_window(P)
        if R is not None and 2 * R <= points:
            reason = "window covers the integer-root radius %d" % R
    if reason is None and _sign_definite(P):
        reason = "sign-definite: even exponents, nonzero constant"
    if reason is None:
        return Inconclusive(points)
    bp = LazyBP(P, bits)
    samples = []
    for n in range(min(8, points) + 1):
        En = bp.exponent(n)
        if En < 2 ** (n + 1):
            raise InvariantViolation("growth floor fails at %d" % n, index=n)
        samples.append((n, En))
    return GapGrowthEvidence(0, tuple(samples), reason)
