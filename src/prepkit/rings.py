"""Coefficient rings: exact and finite-precision local arithmetic.

Five kinds share one element protocol. Elements are plain canonical
Python values (ints for p-adic and integer kinds, digit tuples for
t-adic kinds), so the series, polynomial, gap and Hensel layers never
inspect representations; rings own arithmetic, valuation, unit
inversion, and bulk convolution.

kind        ring                      element encoding
zp          p-adic ints mod p^K       int in [0, p^K)
zmodpk      Z/p^k, Artinian local     int in [0, p^k)
fpt         F_p[[t]] mod t^K          tuple of K digits in [0, p)
z           rational integers         int
fpt_exact   polynomial ring F_p[t]    trimmed digit tuple, () is zero

Convolution of coefficient lists is the single multiplication engine
shared by all series operations, with a quadratic reference
implementation for cross-checks. Large products take a float FFT
while its proved rounding bound admits the sizes (_fft_convolve). Below
its work threshold, or past the bound or the transform cap, zp, zmodpk
and z take numpy's direct convolution while sums fit in int64 and
Kronecker substitution through big-int multiplication otherwise; fpt
packs its digit rows with Kronecker substitution, into 2-, 4- or 8-byte
slots or, past 2^64, wide limbs. Both t-adic kinds multiply their
elements through one F_p[t] product, which picks its own lane:
schoolbook for small operands, bitmasks for p = 2, Kronecker packing
with stdlib arrays while every output digit fits 4 bytes, numpy up to
int64, and Kronecker with wide limbs past that. numpy, and numpy.fft
with it, is imported inside the lanes that use it, so it loads on
first use: the gap and rationality paths never load it.
"""

import sys
from array import array
from itertools import chain, zip_longest

from .errors import (
    BadPrecision,
    CompositeModulus,
    InvariantViolation,
    NotAUnit,
    ZeroAtPrecision,
    ZeroInput,
)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin; this witness set is complete for
    every n below 3.3 * 10**24, far past any modulus used here."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# F_2[t] polynomials as bitmasks, bit i = coefficient of t^i: the p = 2
# lane of the F_p[t] product and of ExactFpTRing.divmod, where a shifted
# big-integer xor replaces a Python loop over digits.

def b2_deg(a):
    return a.bit_length() - 1


def b2_mul(a, b):
    if a == 0 or b == 0:
        return 0
    # one shifted xor per set bit of the sparser operand
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    for sh, bit in enumerate(format(a, "b")[::-1]):
        if bit == "1":
            out ^= b << sh
    return out


def b2_divmod(a, b):
    db = b2_deg(b)
    q = 0
    while a.bit_length() - 1 >= db and a:
        sh = a.bit_length() - 1 - db
        q |= 1 << sh
        a ^= b << sh
    return q, a


_DIGIT_BITS = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)
_BIT_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def mask_from_digits(digits):
    """Bit i set where digit i is nonzero; digits are below 256."""
    return int(bytes(digits[::-1]).translate(_DIGIT_BITS) or b"0", 2)


def digits_from_mask(m, width=None):
    """The low width bits of m as 0/1 digits, ascending; width defaults
    to m's bit length."""
    bits = format(m, "b").encode()[::-1].translate(_BIT_DIGITS) if m else b""
    if width is None:
        width = len(bits)
    return tuple(bits[:width]) + (0,) * (width - len(bits))


# Kronecker substitution kernels. Coefficients are packed into fixed
# width limbs of one big integer so CPython's integer multiplication
# (Karatsuba) does the convolution; limb width is chosen so that no
# output coefficient can overflow into its neighbor. Limbs of up to 8
# bytes are packed and unpacked as native-order stdlib arrays, which
# is 3-4.6x faster than joining per-limb bytes on F_3 products of 9 to
# 2,000 digits (timeit); wider limbs take the bytes-join route.

_LIMB_TYPES = tuple((array(code).itemsize, code) for code in "BHIQ")


def _kron_unsigned(a, b, mod):
    bound = (mod - 1) ** 2 * min(len(a), len(b))
    w = (bound.bit_length() + 7) // 8
    n = len(a) + len(b) - 1
    for size, code in _LIMB_TYPES:
        if size >= w:
            cint = (int.from_bytes(array(code, a), sys.byteorder)
                    * int.from_bytes(array(code, b), sys.byteorder))
            return [x % mod for x in
                    array(code, cint.to_bytes(n * size, sys.byteorder))]
    aint = int.from_bytes(b"".join(x.to_bytes(w, "little") for x in a), "little")
    bint = int.from_bytes(b"".join(x.to_bytes(w, "little") for x in b), "little")
    cint = aint * bint
    buf = cint.to_bytes(n * w, "little")
    return [int.from_bytes(buf[i * w:(i + 1) * w], "little") % mod for i in range(n)]


def _kron_signed(a, b):
    ma = max(abs(x) for x in a)
    mb = max(abs(x) for x in b)
    n = len(a) + len(b) - 1
    if ma == 0 or mb == 0:
        return [0] * n
    bound = ma * mb * min(len(a), len(b))
    w = bound.bit_length() + 2
    full = 1 << w
    half = full >> 1
    mask = full - 1

    def pack(v):
        pos = 0
        neg = 0
        for i, x in enumerate(v):
            if x > 0:
                pos |= x << (w * i)
            elif x < 0:
                neg |= (-x) << (w * i)
        return pos - neg

    cur = pack(a) * pack(b)
    out = []
    for _ in range(n):
        limb = cur & mask
        if limb >= half:
            limb -= full
        out.append(limb)
        cur = (cur - limb) >> w
    if cur:
        raise InvariantViolation("signed Kronecker product overflows its "
                                 "%d limbs of %d bits" % (n, w))
    return out


# Float-FFT convolution of integer sequences, rounded to the nearest
# integer. Percival's bound (Math. Comp. 72 (2003), Thm. 5.1; Brent and
# Zimmermann, Modern Computer Arithmetic, Thm. 3.3.2): a convolution
# through complex FFTs of length N = 2^n in floats of unit roundoff
# eps, with twiddle factors good to mu, errs by less than
#     ||x|| * ||y|| * ((1+eps)^(3n) (1+eps*sqrt5)^(3n+1) (1+mu)^(3n) - 1)
# in every coordinate (Euclidean norms on the right). With eps = 2^-53,
# mu <= eps and |x_i| <= xmax over X entries, the first-order term is
# below sqrt(X*Y) * xmax * ymax * eps * (13n + 3), and the higher
# orders add a relative 10^-12 at most. The lane is taken only while
# that stays below 1/4, so rounding is exact with a factor 2 to spare
# for numpy's real-input transform, and the exact sum check catches a
# single output rounded the wrong way. Transforms are powers of two up
# to _FFT_MAX_SIZE, which bounds the temporaries: about four float
# arrays of the transform length, 512 KiB at 2^14, and nothing is kept
# between calls. On the series-wide benchmark (seed 5, 2 cores,
# numpy 2.4) a cap of 2^15 raised peak RSS 0.9 MiB above a cap of
# 2^14, for 1.5% more jobs per second.

_FFT_MAX_SIZE = 1 << 14

# Where the FFT lane starts to pay (timeit, 2 cores, numpy 2.4): for
# integer kinds once len(a) * len(b) reaches 2^17, where np.convolve's
# direct loop and the transforms cost about the same (0.1 ms at 256^2);
# for F_p[[t]] once the product of the two Kronecker packs' byte sizes
# reaches 2^21, near where the lanes tie (fpt:2:8 at 32^2, fpt:3:4 at
# 64^2, fpt:65537:1 at 64^2).
_FFT_INT_WORK = 1 << 17
_FFT_KRON_WORK = 1 << 21


def _fft_convolve(a, b, amax, bmax, k=None):
    """The full convolution of integer sequences a and b (|a_i| <= amax,
    |b_j| <= bmax) as a flat int64 array, or None when the rounding
    bound or the size cap refuses it. With k, a and b hold rows of k
    digits, laid out with stride 2k - 1 so that no row product spills
    into the next: row r of the result is out[r*(2k-1):(r+1)*(2k-1)].
    Raises InvariantViolation when the output sum is not sum(a)*sum(b)."""
    d = k or 1
    s = 2 * d - 1
    la, lb = len(a), len(b)
    n = (la + lb - 1) * s
    size = 1 << (n - 1).bit_length()
    lg = size.bit_length() - 1
    if (size > _FFT_MAX_SIZE or la * lb * d * d * (amax * bmax) ** 2
            * (13 * lg + 3) ** 2 >= 1 << 102):
        return None
    import numpy as np

    x = np.zeros(size)

    def transform(v, m):
        # an exact int64 copy of v gives the float input and its sum
        if k:
            v = np.fromiter(chain.from_iterable(v), np.int64, m * k)
        else:
            v = np.array(v, dtype=np.int64)
        x[:] = 0
        if k:
            x[:m * s].reshape(m, s)[:, :k] = v.reshape(m, k)
        else:
            x[:m] = v
        return np.fft.rfft(x), int(v.sum())

    fa, sa = transform(a, la)
    fb, sb = transform(b, lb)
    fa *= fb
    del x, fb
    c = np.fft.irfft(fa, size)[:n]
    del fa
    out = np.rint(c, out=c).astype(np.int64)
    # exact modulo 2^64, as int64 sums wrap
    if (sa * sb - int(out.sum())) % (1 << 64):
        raise InvariantViolation("FFT convolution of %d by %d terms fails "
                                 "its sum check" % (la, lb))
    return out


def _int64_convolve(a, b, amax, bmax):
    """The full convolution of nonempty integer sequences with
    |a_i| <= amax and |b_j| <= bmax as an int64 array: the FFT lane
    past _FFT_INT_WORK products, numpy's direct loop while every sum
    fits int64; None when neither admits the sizes."""
    if len(a) * len(b) >= _FFT_INT_WORK:
        out = _fft_convolve(a, b, amax, bmax)
        if out is not None:
            return out
    if amax * bmax * min(len(a), len(b)) < 2 ** 62:
        import numpy as np
        return np.convolve(np.array(a, dtype=np.int64),
                           np.array(b, dtype=np.int64))
    return None


def _pad(coeffs, out_len):
    if len(coeffs) < out_len:
        coeffs = coeffs + [0] * (out_len - len(coeffs))
    return coeffs[:out_len]


def _trim(digits):
    n = len(digits)
    while n and digits[n - 1] == 0:
        n -= 1
    return tuple(digits[:n])


# F_2[t] division takes the mask lane past this many dividend digits.
_SCHOOLBOOK_DIGITS = 8

# Up to this many digit products, len(a) * len(b), the schoolbook loop
# costs less than packing both operands (timeit, p in {2, 3, 65537}:
# the lanes cross between 16 and 64 for dense operands).
_SCHOOLBOOK_WORK = 32


def _fp_poly_mul(a, b, p):
    """All len(a) + len(b) - 1 digits of a * b in F_p[t], for nonempty
    digit sequences in [0, p). The lane follows both lengths and p:
    schoolbook for few digit products, bitmasks for p = 2, Kronecker
    packing with array limbs while every digit sum (p - 1)^2 * min(len)
    fits 4 bytes, numpy while it fits int64, wide Kronecker limbs past
    that. numpy is imported by its lane only."""
    n = len(a) + len(b) - 1
    if len(a) * len(b) <= _SCHOOLBOOK_WORK:
        if len(a) > len(b):
            a, b = b, a
        out = [0] * n
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return [c % p for c in out]
    if p == 2:
        m = b2_mul(mask_from_digits(a), mask_from_digits(b))
        return list(digits_from_mask(m, n))
    bound = (p - 1) ** 2 * min(len(a), len(b))
    if 2 ** 32 <= bound < 2 ** 63:
        import numpy as np
        arr = np.convolve(np.array(a, dtype=np.int64),
                          np.array(b, dtype=np.int64))
        return (arr % p).tolist()
    return _kron_unsigned(a, b, p)


def _int_val(r, p):
    """v_p(r) for a nonzero integer r: the lowest set bit for p = 2,
    one division per unit of valuation otherwise."""
    if p == 2:
        return (r & -r).bit_length() - 1
    v = 0
    while r % p == 0:
        r //= p
        v += 1
    return v


class Ring:
    """Shared protocol; concrete kinds override everything that
    touches the element encoding."""

    kind = None
    is_exact = False

    def desc(self):
        return (self.kind, self.p, self.prec)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.desc() == other.desc()

    def __hash__(self):
        return hash(self.desc())

    def __repr__(self):
        return "Ring(%s, p=%s, prec=%s)" % self.desc()

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def from_digits(self, digits):
        raise NotImplementedError(self.kind)

    def uniformizer(self):
        """The element generating the maximal ideal: p for p-adic and
        integer kinds, t for the t-adic kinds."""
        if self.kind in ("fpt", "fpt_exact"):
            return self.from_digits((0, 1))
        if self.p is None:
            raise ValueError("this ring has no designated prime")
        return self.from_int(self.p)

    def pow(self, a, e):
        """a^e by squaring, with no product by one and no squaring after
        the top bit of e."""
        if e < 0:
            raise ValueError("negative exponent %d" % e)
        r = None
        while True:
            if e & 1:
                r = a if r is None else self.mul(r, a)
            e >>= 1
            if not e:
                return self.one() if r is None else r
            a = self.mul(a, a)

    def sum(self, items):
        acc = self.zero()
        for x in items:
            acc = self.add(acc, x)
        return acc

    def convolve_ref(self, a, b, out_len):
        """Quadratic reference convolution; ground truth for the fast
        kernels in property tests."""
        out = [self.zero()] * out_len
        for i, x in enumerate(a):
            if i >= out_len:
                break
            if self.is_zero(x):
                continue
            for j, y in enumerate(b):
                if i + j >= out_len:
                    break
                out[i + j] = self.add(out[i + j], self.mul(x, y))
        return out

    def convolve(self, a, b, out_len):
        return self.convolve_ref(a, b, out_len)


class IntModRing(Ring):
    """Z/p^K with canonical representatives; covers both the p-adic
    finite-precision kind and the Artinian quotient kind (identical
    arithmetic, distinct semantics for precision handling upstream)."""

    def __init__(self, kind, p, prec):
        self.kind = kind
        self.p = p
        self.prec = prec
        self.mod = p ** prec

    def zero(self):
        return 0

    def one(self):
        return 1 % self.mod

    def from_int(self, n):
        return n % self.mod

    def canon(self, r):
        return r % self.mod

    def add(self, a, b):
        return (a + b) % self.mod

    def sub(self, a, b):
        return (a - b) % self.mod

    def mul(self, a, b):
        return a * b % self.mod

    def neg(self, a):
        return -a % self.mod

    def is_zero(self, a):
        return a == 0

    def val(self, r):
        return None if r == 0 else _int_val(r, self.p)

    def invert_unit(self, r):
        if r % self.p == 0:
            raise NotAUnit("element %d is divisible by %d" % (r, self.p),
                           element=r, p=self.p)
        return pow(r, -1, self.mod)

    def pow(self, a, e):
        return pow(a, e, self.mod)

    # The pi-adic digit split behind Weierstrass lifting and strong
    # factorization: every element is lo + p^s * hi, lo < p^s.

    def at_prec(self, k):
        """The same ring at precision k."""
        return self if k == self.prec else type(self)(self.p, k)

    def reduce(self, xs, k):
        """xs mod p^k, over at_prec(k)."""
        mod = self.p ** k
        return [x % mod for x in xs]

    def split(self, xs, s):
        """(lo, hi) with x = lo + p^s * hi, over at_prec(s) and
        at_prec(prec - s)."""
        ps = self.p ** s
        return [x % ps for x in xs], [x // ps for x in xs]

    def join(self, lo, hi, s):
        """lo + p^s * hi over this ring; hi None lifts lo unchanged."""
        if hi is None:
            return list(lo)
        ps = self.p ** s
        return [a + ps * b for a, b in zip(lo, hi)]

    def convolve(self, a, b, out_len):
        if not a or not b:
            return [0] * out_len
        arr = _int64_convolve(a, b, self.mod - 1, self.mod - 1)
        if arr is not None:
            return _pad((arr % self.mod).tolist(), out_len)
        return _pad(_kron_unsigned(a, b, self.mod), out_len)


class FpTRing(Ring):
    """Truncated power series F_p[[t]] mod t^K; elements are tuples of
    exactly K digits, ascending in t."""

    kind = "fpt"

    def __init__(self, p, prec):
        self.p = p
        self.prec = prec

    def zero(self):
        return (0,) * self.prec

    def one(self):
        one = 1 % self.p
        return (one,) + (0,) * (self.prec - 1)

    def from_int(self, n):
        return (n % self.p,) + (0,) * (self.prec - 1)

    def from_digits(self, digits):
        digits = tuple([d % self.p for d in digits[:self.prec]])
        return digits + (0,) * (self.prec - len(digits))

    def canon(self, r):
        return self.from_digits(tuple(r))

    def add(self, a, b):
        p = self.p
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def sub(self, a, b):
        p = self.p
        return tuple([(x - y) % p for x, y in zip(a, b)])

    def mul(self, a, b):
        K = self.prec
        out = _fp_poly_mul(a, b, self.p)[:K]
        return tuple(out) + (0,) * (K - len(out))

    def neg(self, a):
        p = self.p
        return tuple([-x % p for x in a])

    def is_zero(self, a):
        return not any(a)

    def val(self, r):
        for i, d in enumerate(r):
            if d:
                return i
        return None

    def invert_unit(self, r):
        p = self.p
        if r[0] % p == 0:
            raise NotAUnit("constant digit is divisible by %d" % p,
                           element=list(r), p=p)
        # Newton doubling: from g = r^-1 mod t^k, r * g = 1 + t^k * e
        # gives r^-1 = g - t^k * g * e mod t^(2k); precisions ceil(K/2^i)
        levels = []
        k = self.prec
        while k > 1:
            levels.append(k)
            k = (k + 1) // 2
        g = [pow(r[0], -1, p)]
        for k2 in reversed(levels):
            k = len(g)
            e = _fp_poly_mul(r[:k2], g, p)[k:k2]
            ge = _fp_poly_mul(g[:k2 - k], e, p)
            g += [-x % p for x in ge[:k2 - k]]
        return tuple(g)

    # Digit slicing at t^s: every element is lo + t^s * hi.

    def at_prec(self, k):
        """The same ring at precision k."""
        return self if k == self.prec else FpTRing(self.p, k)

    def reduce(self, xs, k):
        """xs mod t^k, over at_prec(k)."""
        return [x[:k] for x in xs]

    def split(self, xs, s):
        """(lo, hi) with x = lo + t^s * hi, over at_prec(s) and
        at_prec(prec - s)."""
        return [x[:s] for x in xs], [x[s:] for x in xs]

    def join(self, lo, hi, s):
        """lo + t^s * hi over this ring; hi None lifts lo unchanged."""
        if hi is None:
            pad = (0,) * (self.prec - s)
            return [a + pad for a in lo]
        return [a + b for a, b in zip(lo, hi)]

    def convolve(self, a, b, out_len):
        """Rows of K digits multiply as polynomials over Z[t], packed
        with a stride that no row product overflows: the FFT lane past
        _FFT_KRON_WORK, Kronecker packing into 2-, 4- or 8-byte digit
        slots below it, and wide Kronecker limbs once a digit sum
        reaches 2^64."""
        p, K = self.p, self.prec
        if not a or not b:
            return [self.zero()] * out_len
        la, lb = len(a), len(b)
        rows = min(la + lb - 1, out_len)
        bound = min(la, lb) * K * (p - 1) ** 2
        w = (2 if bound < 1 << 16 else 4 if bound < 1 << 32
             else 8 if bound < 1 << 64 else None)
        if w is None:
            s = 2 * K - 1
            pad = (0,) * (K - 1)
            flat = _kron_unsigned([d for r in a for d in r + pad],
                                  [d for r in b for d in r + pad], p)
            out = [tuple(flat[r * s:r * s + K]) for r in range(rows)]
            return out + [self.zero()] * (out_len - rows)
        C = None
        if la * lb * (2 * K * w) ** 2 >= _FFT_KRON_WORK:
            C = _fft_convolve(a, b, p - 1, p - 1, K)
        if C is not None:
            C = C.reshape(la + lb - 1, 2 * K - 1)
        else:
            import numpy as np
            dt = "<u%d" % w
            A = np.zeros((la, 2 * K), dtype=dt)
            A[:, :K] = np.asarray(a, dtype=dt)
            B = np.zeros((lb, 2 * K), dtype=dt)
            B[:, :K] = np.asarray(b, dtype=dt)
            cint = (int.from_bytes(A.tobytes(), "little")
                    * int.from_bytes(B.tobytes(), "little"))
            buf = cint.to_bytes((la + lb - 1) * 2 * K * w, "little")
            C = np.frombuffer(buf, dtype=dt).reshape(la + lb - 1, 2 * K)
        out = [tuple(row) for row in (C[:rows, :K] % p).tolist()]
        return out + [self.zero()] * (out_len - rows)


class ZpRing(IntModRing):
    kind = "zp"

    def __init__(self, p, prec):
        super().__init__("zp", p, prec)


class ZmodPkRing(IntModRing):
    kind = "zmodpk"

    def __init__(self, p, prec):
        super().__init__("zmodpk", p, prec)


class ExactZRing(Ring):
    """Rational integers; p is optional and only enables valuation."""

    kind = "z"
    is_exact = True
    prec = None

    def __init__(self, p=None):
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    def canon(self, r):
        return r

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def val(self, r):
        if r == 0:
            return None
        if self.p is None:
            raise ValueError("valuation needs a prime; this ring has none")
        return _int_val(r, self.p)

    def invert_unit(self, r):
        # the only integer units
        if r in (1, -1):
            return r
        raise NotAUnit("%d is not an integer unit" % r, element=r)

    def exact_div(self, a, b):
        if b == 0 or a % b:
            raise InvariantViolation("exact division by %d leaves a remainder"
                                     % b)
        return a // b

    def pow(self, a, e):
        return a ** e

    def convolve(self, a, b, out_len):
        if not any(a) or not any(b):
            return [0] * out_len
        arr = _int64_convolve(a, b, max(map(abs, a)), max(map(abs, b)))
        if arr is not None:
            return _pad(arr.tolist(), out_len)
        return _pad(_kron_signed(a, b), out_len)


class ExactFpTRing(Ring):
    """Polynomial ring F_p[t]; elements are trimmed digit tuples and the
    empty tuple is zero. Units are the nonzero constants."""

    kind = "fpt_exact"
    is_exact = True
    prec = None

    def __init__(self, p):
        self.p = p

    def zero(self):
        return ()

    def one(self):
        return (1 % self.p,) if self.p > 1 else ()

    def from_int(self, n):
        n %= self.p
        return (n,) if n else ()

    def from_digits(self, digits):
        return _trim([d % self.p for d in digits])

    def canon(self, r):
        return self.from_digits(tuple(r))

    def add(self, a, b):
        p = self.p
        return _trim([(x + y) % p for x, y in zip_longest(a, b, fillvalue=0)])

    def sub(self, a, b):
        p = self.p
        return _trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])

    def mul(self, a, b):
        if not a or not b:
            return ()
        return _trim(_fp_poly_mul(a, b, self.p))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def is_zero(self, a):
        return len(a) == 0

    def val(self, r):
        for i, d in enumerate(r):
            if d:
                return i
        return None

    def deg(self, r):
        return len(r) - 1

    def invert_unit(self, r):
        if len(r) == 1 and r[0] % self.p != 0:
            return (pow(r[0], -1, self.p),)
        raise NotAUnit("only nonzero constants are units in a polynomial ring",
                       element=list(r))

    def divmod(self, a, b):
        if not b:
            raise ZeroInput("division by the zero polynomial")
        p = self.p
        if p == 2 and len(a) > _SCHOOLBOOK_DIGITS:
            q, r = b2_divmod(mask_from_digits(a), mask_from_digits(b))
            return digits_from_mask(q), digits_from_mask(r)
        a = list(a)
        inv = pow(b[-1], -1, p)
        q = [0] * max(len(a) - len(b) + 1, 0)
        for sh in range(len(a) - len(b), -1, -1):
            c = a[sh + len(b) - 1] * inv % p
            if c:
                q[sh] = c
                for j, y in enumerate(b):
                    a[sh + j] = (a[sh + j] - c * y) % p
        return _trim(q), _trim(a)

    def exact_div(self, a, b):
        q, rem = self.divmod(a, b)
        if rem:
            raise InvariantViolation("exact division in F_%d[t] leaves a "
                                     "remainder" % self.p)
        return q

    def monic(self, a):
        """a scaled to leading digit 1; zero stays zero."""
        if not a or a[-1] == 1:
            return a
        inv = pow(a[-1], -1, self.p)
        return tuple(x * inv % self.p for x in a)

    def gcd(self, a, b):
        """The monic greatest common divisor; zero when both are zero."""
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.monic(a)


_KINDS = ("zp", "fpt", "zmodpk", "z", "fpt_exact")


def make_ring(kind, p=None, prec=None):
    """Build a ring from its descriptor. The base must be prime
    (CompositeModulus otherwise) and finite kinds need prec >= 1
    (BadPrecision otherwise). kind z may omit p, giving plain integers
    with no valuation."""
    if kind not in _KINDS:
        raise ValueError("unknown ring kind %r; expected one of %s"
                         % (kind, ", ".join(_KINDS)))
    if p is not None and not is_prime(p):
        raise CompositeModulus("base %r is not prime" % (p,), p=p)
    if kind == "z":
        if prec is not None:
            raise ValueError("kind z is exact; prec does not apply")
        return ExactZRing(p)
    if p is None:
        raise ValueError("kind %s needs a prime base" % kind)
    if kind == "fpt_exact":
        if prec is not None:
            raise ValueError("kind fpt_exact is exact; prec does not apply")
        return ExactFpTRing(p)
    if prec is None or prec < 1:
        raise BadPrecision("kind %s needs prec >= 1, got %r" % (kind, prec),
                           prec=prec)
    if kind == "zp":
        return ZpRing(p, prec)
    if kind == "zmodpk":
        return ZmodPkRing(p, prec)
    return FpTRing(p, prec)


def val_unit_decompose(ring, r):
    """Split r as pi^v * u with u a unit. Finite kinds refuse the zero
    residue (ZeroAtPrecision): it is indistinguishable from pi^K times
    a unit. Exact kinds refuse exact zero (ZeroInput)."""
    v = ring.val(r)
    if v is None:
        if ring.is_exact:
            raise ZeroInput("cannot decompose exact zero")
        raise ZeroAtPrecision("zero residue has no unit part at precision %d"
                              % ring.prec, prec=ring.prec)
    if isinstance(ring, IntModRing):
        return v, (r // ring.p ** v) % ring.mod
    if isinstance(ring, FpTRing):
        shifted = tuple(r[v:]) + (0,) * v
        return v, shifted
    if isinstance(ring, ExactZRing):
        return v, r // ring.p ** v
    return v, tuple(r[v:])
