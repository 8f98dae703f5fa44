"""Coefficient rings: exact and finite-precision local arithmetic.

Five kinds share one element protocol. Elements are plain canonical
Python values (ints for p-adic and integer kinds, digit tuples for
t-adic kinds), so the series, polynomial, gap, Hensel and JSON layers
never inspect representations; rings own arithmetic, valuation, unit
inversion, bulk convolution, and the JSON form of their elements.

kind       ring                    element                     JSON      bulk
zp         p-adic ints mod p^K     int in [0, p^K)             "n"       int64*
zmodpk     Z/p^k, Artinian local   int in [0, p^k)             "n"       int64*
fpt        F_p[[t]] mod t^K        K digits in [0, p)          [d, ...]  int64**
z          rational integers       int                         "n"       list
fpt_exact  polynomial ring F_p[t]  trimmed digits, () is zero  [d, ...]  list

zp and zmodpk are one class. ring.encode writes an element's JSON and
ring.decode reads a list of them: "n" is a decimal string, and decode
also takes JSON ints, and digits as decimal strings. ring.exact() is
the exact ring that a finite kind truncates. fpt_exact's
below_degree(n) lists the elements of degree < n, the m-th with the
base-p digits of m: the gap sweep's candidate coefficients, in the
order that fixes its samples.

A vector's bulk form is what ring.bulk(xs) makes of a list of elements
and ring.elements(v) turns back into one: the form that reduce, join,
lift_residual, lift_product and convolve keep, so that Weierstrass
lifting and Newton inversion convert once each way and not at every
product. (*) zp and zmodpk keep a numpy int64 array while p^K < 2^62,
where c - t - y and lo + p^s * hi stay inside int64, and a list of ints
from 2^62 on; such a ring takes arrays given to it as their ints. (**)
fpt keeps one (m, K) int64 array of the m elements' digits while
p < 2^62, where c - t - y stays inside int64, and a list of digit
tuples from 2^62 on. A kernel's first vector picks the form it returns.

Convolution of coefficient lists is the single multiplication engine
shared by all series operations, with a quadratic reference
implementation for cross-checks. Ring.convolve(a, b, hi, lo) returns
the coefficients lo .. hi - 1 only, and each lane computes little
else: a caller that would discard the low part asks for a middle
product. Large products take a float FFT while its proved rounding
bound admits the sizes (_fft_convolve; see the account above it).
Below its work threshold, or past the bound, zp, zmodpk and z take
numpy's direct convolution while sums fit in int64 and Kronecker
substitution through big-int multiplication otherwise, which packs
an int64 array's words as limbs of up to 16 bytes (_kron_words); fpt
lays its digit rows out once per product at stride 2K - 1 (_rows) and
packs that array with Kronecker substitution into 2-, 4- or 8-byte
slots, or, past 2^64, its digits as Python ints into wide limbs.
The residual of a Weierstrass lifting step, Ring.lift_product, is one
such middle product; fpt takes it from the product's digit array,
before any row becomes a tuple. Both t-adic kinds multiply their
elements through one F_p[t] product, which picks its own lane:
schoolbook for small operands, bitmasks for p = 2, Kronecker packing
with stdlib arrays while every output digit fits 4 bytes, numpy up to
int64, and Kronecker with wide limbs past that. numpy, and numpy.fft
with it, is imported inside the lanes that use it, so it loads on
first use. The gap and rationality paths load it only through the
F_p[t] product's int64 lane, taken once (p - 1)^2 * min(len) >= 2^32:
already at p = 65537, never at the small primes of the reference specs.

Ring.matmul is the block matrix product of series composition: a numpy
int64 matmul over zp, zmodpk and fpt while no sum can reach 2^63, and
object ints past that and over z.
"""

import re
import sys
from array import array
from itertools import chain, product, zip_longest
from math import gcd

from .errors import (
    BadPrecision,
    BudgetExceeded,
    CompositeModulus,
    InvariantViolation,
    NotAUnit,
    UsageError,
    ZeroInput,
)

# The largest ring precision and series window an input may ask for.
# Memory and work grow with both, so a larger one fails fast with
# BudgetExceeded; 2^20 is far past every job of the tests and the
# benchmark (the largest is a gap root at K = 14,300).
SIZE_CAP = 1 << 20

# Every decimal field is read with dec_int and written with dec_str:
# str and int for as many digits as Python converts directly (4,300 by
# default), and the decimal module, which has no such limit, past that.

# the text int() reads in base 10, ASCII digits only
_DECIMAL = re.compile(r"\s*[+-]?[0-9]+(?:_[0-9]+)*\s*")


def dec_str(n):
    """The decimal string of the int n."""
    try:
        return str(n)
    except ValueError:  # past Python's int/str digit limit
        import decimal
        return str(decimal.Decimal(n))


def dec_int(s):
    """The int that s, an int or a decimal string, names. Raises
    ValueError on malformed text, as int does."""
    try:
        return int(s)
    except ValueError:
        if not (isinstance(s, str) and _DECIMAL.fullmatch(s)):
            raise
        import decimal
        return int(decimal.Decimal(s))


def _decimal(what, v):
    """dec_int(v) for the payload value named what, which must be an int
    or a decimal string; a UsageError naming what otherwise."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise UsageError("%s must be an integer or decimal string" % what)
    try:
        return dec_int(v)
    except ValueError as e:
        raise UsageError("%s %.40r does not decode: %s"
                         % (what, v, e)) from None


def _array(what, vs):
    """vs, or a UsageError naming what when vs is not a JSON array (a
    string or an object would be read one character or key at a time)."""
    if not isinstance(vs, list):
        raise UsageError("%s must be an array" % what)
    return vs


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


def _kron_unsigned(a, b, mod, hi=None, lo=0):
    """Terms lo .. hi - 1 of a * b (all by default), reduced mod mod,
    for nonempty sequences of ints in [0, mod)."""
    bound = (mod - 1) ** 2 * min(len(a), len(b))
    w = (bound.bit_length() + 7) // 8
    n = len(a) + len(b) - 1
    hi = n if hi is None else min(hi, n)
    for size, code in _LIMB_TYPES:
        if size >= w:
            cint = (int.from_bytes(array(code, a), sys.byteorder)
                    * int.from_bytes(array(code, b), sys.byteorder))
            buf = cint.to_bytes(n * size, sys.byteorder)
            return [x % mod for x in array(code, buf[lo * size:hi * size])]
    aint = int.from_bytes(b"".join(x.to_bytes(w, "little") for x in a), "little")
    bint = int.from_bytes(b"".join(x.to_bytes(w, "little") for x in b), "little")
    cint = aint * bint
    buf = cint.to_bytes(n * w, "little")
    return [int.from_bytes(buf[i * w:(i + 1) * w], "little") % mod
            for i in range(lo, hi)]


def _kron_words(a, b, mod, hi, lo):
    """_kron_unsigned on int64 vectors of residues below mod < 2^62, as
    an int64 array, while limbs fit 16 bytes (None past that). Each
    word's bytes are a limb's low 8, so a uint8 view packs an operand,
    and an output limb unpacks as two uint64 halves: the low one masked
    when mod is a power of 2, both joined as ints otherwise."""
    import numpy as np
    w = max(((mod - 1) ** 2 * min(len(a), len(b))).bit_length() + 7, 64) // 8
    if w > 16:
        return None

    def pack(v):
        limbs = np.zeros((len(v), w), dtype=np.uint8)
        limbs[:, :8] = np.ascontiguousarray(v, "<i8").view(np.uint8).reshape(
            -1, 8)
        return int.from_bytes(limbs.tobytes(), "little")

    n = len(a) + len(b) - 1
    hi = min(hi, n)
    # 8 bytes past the last limb, so that each half reads 8 bytes in place
    buf = (pack(a) * pack(b)).to_bytes(n * w + 8, "little")
    low, high = (np.ndarray(hi - lo, "<u8", buf, lo * w + at, (w,))
                 for at in (0, 8))
    if mod & (mod - 1) == 0:
        return (low & np.uint64(mod - 1)).astype(np.int64)
    high = (high & np.uint64((1 << 8 * (w - 8)) - 1)).astype(object)
    return ((high << 64 | low.astype(object)) % mod).astype(np.int64)


def _kron_signed(a, b, hi=None, lo=0):
    """Terms lo .. hi - 1 of a * b (all by default) for nonempty
    sequences of ints. Limbs are whole bytes, so each operand packs in
    linear time as two byte joins, of its positive terms and of its
    negated negative ones. Adding half a limb to every limb of the
    product makes each one nonnegative, so one to_bytes unpacks them
    all. An operand term or a product outside its limbs raises
    InvariantViolation."""
    ma = max(abs(x) for x in a)
    mb = max(abs(x) for x in b)
    n = len(a) + len(b) - 1
    hi = n if hi is None else min(hi, n)
    if ma == 0 or mb == 0:
        return [0] * (hi - lo)
    bound = ma * mb * min(len(a), len(b))
    nb = (bound.bit_length() + 9) // 8  # bytes per limb, with a sign bit
    w = 8 * nb
    half = 1 << (w - 1)
    zero = bytes(nb)

    def pack(v):
        try:
            pos = b"".join(x.to_bytes(nb, "little") if x > 0 else zero
                           for x in v)
            neg = b"".join((-x).to_bytes(nb, "little") if x < 0 else zero
                           for x in v)
        except OverflowError:
            raise InvariantViolation("signed Kronecker operand overflows "
                                     "its limbs of %d bits" % w) from None
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    # half in every one of the n limbs: half * (2^(wn) - 1) / (2^w - 1)
    cur = pack(a) * pack(b) + ((1 << (w * n)) - 1) // ((1 << w) - 1) * half
    if cur < 0 or cur >> (w * n):
        raise InvariantViolation("signed Kronecker product overflows its "
                                 "%d limbs of %d bits" % (n, w))
    buf = cur.to_bytes(n * nb, "little")
    return [int.from_bytes(buf[i * nb:(i + 1) * nb], "little") - half
            for i in range(lo, hi)]


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
# single output rounded the wrong way.
#
# One routine, _fft_convolve, makes every FFT product. One that fits
# _FFT_MAX_SIZE points is one cyclic transform of max(hi, la + lb - 1
# - lo) rows: outputs past its length wrap onto rows below lo, which
# are dropped, so the top half of a 2k-by-k product takes 2k points,
# not 4k. A longer one is sectioned (overlap-add; Stockham, AFIPS 1966)
# into row blocks, slices of each operand's _rows array, whose pairwise
# products fit _FFT_MAX_SIZE points; each block is transformed once,
# pairs that reach no kept row are skipped, and the rounded block
# products are added exactly. Every pair meets the bound before any
# transform runs, and passes the exact sum check over all its cyclic
# outputs, wrapped ones included. So the block size, not the operand
# length, fixes the rounding error and the float temporaries: about
# four arrays of 2^14 floats, 512 KiB, and one spectrum per block of
# the second operand, none kept between calls. A block holds at least
# one row, so a row product past 2^14 points gets one longer transform.
# On the series-wide benchmark (seed 5, 2 cores, numpy 2.4) a
# single-transform cap of 2^15 raised peak RSS 0.9 MiB above one of
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


def _fft_admits(x, y, d, amax, bmax, size):
    """Percival's bound for x by y rows of d digits in a transform of
    size points, checked in exact integers."""
    lg = size.bit_length() - 1
    return x * y * d * d * (amax * bmax) ** 2 * (13 * lg + 3) ** 2 < 1 << 102


def _rows(v, k=None):
    """The flat int64 array of the integer sequence v, or with k of the
    (m, k) digit array v at stride 2k - 1: row i fills entries
    i*(2k-1) .. i*(2k-1) + k - 1 and zeros the next k - 1, so that no
    product of two rows spills into the next row's entries."""
    import numpy as np
    if not k:  # an int64 array as it is, and ints through one fromiter
        return (v if isinstance(v, np.ndarray)
                else np.fromiter(v, np.int64, len(v)))
    m, s = len(v), 2 * k - 1
    x = np.zeros(m * s, dtype=np.int64)
    x.reshape(m, s)[:, :k] = v
    return x


def _fft_convolve(a, b, amax, bmax, k=None, hi=None, lo=0):
    """Rows lo .. hi - 1 of the convolution of nonempty integer
    sequences a and b (|a_i| <= amax, |b_j| <= bmax; hi defaults to
    every row) as a flat int64 array, or None when the rounding bound
    refuses it. With k, a and b hold rows of k digits, laid out by
    _rows: row lo + r of the result is out[r*(2k-1):(r+1)*(2k-1)]; a
    row is one term without k. Raises InvariantViolation when a block
    pair's rounded outputs do not sum to the product of its blocks'
    sums."""
    d = k or 1
    s = 2 * d - 1
    if hi is not None:
        # rows past hi - 1 of an operand reach no kept row
        a, b = a[:hi], b[:hi]
    la, lb = len(a), len(b)
    hi = la + lb - 1 if hi is None else min(hi, la + lb - 1)
    n = max(hi, la + lb - 1 - lo) * s  # points of one cyclic transform
    ba, bb, pairs = la, lb, [(0, 0)]
    if n > _FFT_MAX_SIZE:
        cap = max(_FFT_MAX_SIZE // s, 1)  # output rows per transform
        bb = min(lb, max((cap + 1) // 2, cap + 1 - la))
        ba = min(la, cap + 1 - bb)
        n = (ba + bb - 1) * s
        pairs = [(i, j) for i in range(0, min(la, hi), ba)
                 for j in range(0, min(lb, hi - i), bb)
                 if i + j + min(ba, la - i) + min(bb, lb - j) - 2 >= lo]
    size = 1 << (n - 1).bit_length()
    if not all(_fft_admits(min(ba, la - i), min(bb, lb - j), d, amax, bmax,
                           size) for i, j in pairs):
        return None
    import numpy as np

    # A sectioned product's blocks, block products and inverse
    # transforms go through one float and one complex buffer: fresh
    # arrays of a block's size, with the float copy that rfft makes of
    # an int64 block, made fpt:2:8 at 1,536 rows 15% slower (2 cores).
    # A lone pair allocates what it needs.
    one = len(pairs) == 1
    buf = None if one else np.empty(size)
    prod = None if one else np.empty(size // 2 + 1, dtype=complex)

    def spectrum(z, i, n):
        # the transform and the exact sum of rows i .. i + n - 1 of z
        z = z[i * s:(i + n) * s]
        if one:
            return np.fft.rfft(z, size), int(z.sum())
        buf[:len(z)] = z
        buf[len(z):] = 0
        return np.fft.rfft(buf), int(z.sum())

    # the second operand's spectra come first, and its rows are freed
    # before the first operand's are laid out: the peak of a call's
    # temporaries, not their count, sets how much fresh memory it touches
    y = _rows(b, k)
    fbs = {}
    for _, j in pairs:
        if j not in fbs:
            fbs[j] = spectrum(y, j, min(bb, lb - j))
    x, y = _rows(a, k), None
    out = None if one else np.zeros((hi - lo) * s, dtype=np.int64)
    last = None
    for i, j in pairs:
        xa, xb = min(ba, la - i), min(bb, lb - j)
        if i != last:
            fa, sa = spectrum(x, i, xa)
            last = i
        fb, sb = fbs[j]
        if one:
            # nothing else is used again: multiply in place, and free the
            # rows and the other spectrum before the inverse transform
            fa *= fb
            del x, fbs, fb
        m = (xa + xb - 1) * s
        c = np.fft.irfft(fa if one else np.multiply(fa, fb, out=prod), size,
                         out=buf)[:m]
        c = np.rint(c, out=c).astype(np.int64)
        if (sa * sb - int(c.sum())) % (1 << 64):  # int64 sums wrap
            raise InvariantViolation(
                "FFT convolution of rows %d and %d of %d by %d fails its "
                "sum check" % (i, j, la, lb))
        off = (i + j - lo) * s
        first, m = max(0, -off), min(m, (hi - lo) * s - off)
        if one:
            return c[first:m]
        # an output is at most min(la, lb) * d * amax * bmax, and the
        # bound keeps sqrt(xa * xb) * d * amax * bmax below 2^44, so the
        # int64 sums could wrap only past min(la, lb) = 2^19 *
        # sqrt(xa * xb): billions of digits
        out[off + first:off + m] += c[first:m]
    return out


def _int64_convolve(a, b, amax, bmax, hi, lo):
    """Terms lo .. hi - 1 of the convolution of nonempty integer
    sequences with |a_i| <= amax and |b_j| <= bmax as an int64 array:
    the FFT lane past _FFT_INT_WORK products, numpy's direct loop while
    every sum fits int64; None when neither admits the sizes. The
    direct loop computes only the kept terms when they are fewer than
    the longer operand: each from a window of the longer operand
    against all of the shorter, in numpy's "valid" mode."""
    if len(a) * len(b) >= _FFT_INT_WORK:
        out = _fft_convolve(a, b, amax, bmax, hi=hi, lo=lo)
        if out is not None:
            return out
    if amax * bmax * min(len(a), len(b)) < 2 ** 62:
        import numpy as np
        if len(a) < len(b):
            a, b = b, a
        la, lb = len(a), len(b)
        hi = min(hi, la + lb - 1)
        b = np.asarray(b, dtype=np.int64)
        if hi - lo >= la:
            return np.convolve(np.asarray(a, dtype=np.int64), b)[lo:hi]
        # the window a[lo - lb + 1:hi], zero-filled outside a
        start = lo - lb + 1
        x = np.zeros(hi - start, dtype=np.int64)
        x[max(0, -start):min(hi, la) - start] = a[max(0, start):hi]
        return np.convolve(x, b, "valid")
    return None


def _pad(coeffs, out_len):
    if len(coeffs) < out_len:
        coeffs = coeffs + [0] * (out_len - len(coeffs))
    return coeffs[:out_len]


# Below this bound the bulk form is an int64 array: of residues for an
# IntModRing whose modulus p^K is below it, and of digits for an FpTRing
# whose p is, as a sum c - t - y of three residues or digits, and
# lo + p^s * hi, stay inside int64.
_ARRAY_MOD = 1 << 62


_LISTS = (list, tuple)


def _ints(v):
    """The vector v as a sequence of Python ints: an array's tolist."""
    return v if isinstance(v, _LISTS) else v.tolist()


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
    """Shared protocol, with the JSON codec of the integer kinds; the
    concrete kinds override everything else that touches the element
    encoding."""

    kind = None
    is_exact = False
    is_field = False

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

    def decode(self, vs, what):
        """The values before canon of vs, the JSON array of elements
        named what: ints, from JSON ints or decimal strings. One scan of
        the element types decodes the list; when it refuses, the
        element-wise route names the first bad element."""
        if set(map(type, _array(what, vs))) <= {int, str}:
            try:
                return list(map(dec_int, vs))
            except ValueError:  # a malformed decimal string
                pass
        return [_decimal("element", v) for v in vs]

    def encode(self, x):
        """The JSON form of the element x: its decimal string."""
        return dec_str(x)

    def exact(self):
        """The exact ring that this one truncates, or itself."""
        return self

    def uniformizer(self):
        """The element generating the maximal ideal: p for the p-adic
        and integer kinds."""
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

    def convolve_ref(self, a, b, out_len):
        """The first out_len terms of a * b by the quadratic loop: the
        reference the fast kernels are tested against."""
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

    def convolve(self, a, b, hi, lo=0):
        """Terms lo .. hi - 1 of a * b, zero past the product: the one
        product kernel, which computes only the terms it returns where
        its lane allows. A product whose low terms are not kept is a
        middle product (Hanrot, Quercia and Zimmermann, AAECC 14, 2004)."""
        return self.convolve_ref(a, b, hi)[lo:]

    def bulk(self, xs):
        """The sequence of elements xs in this ring's bulk form, the
        vector that reduce, join, lift_product and convolve keep through
        a loop: a list, unless the kind has a faster one."""
        return xs if isinstance(xs, list) else list(xs)

    def elements(self, v):
        """The list of elements that the bulk vector v holds."""
        return list(v)

    def lift_product(self, c, a, y, n, s):
        """(c - x^-n * (a * y) - y) / pi^s on len(c) terms, over
        at_prec(prec - s), for y of len(c) terms and c - x^-n * (a * y)
        - y = 0 mod pi^s: the residual of one Weierstrass lifting step,
        whose product is needed at terms n .. n + len(c) - 1 only."""
        return self.lift_residual(c, self.convolve(a, y, n + len(c), n),
                                  y, s)

    def matmul(self, A, B):
        """The matrix product A·B of row lists, A with len(B) columns:
        the block product of Brent-Kung composition. This generic route
        runs on the element operations."""
        out = []
        for row in A:
            acc = [self.zero()] * len(B[0])
            for x, brow in zip(row, B):
                if not self.is_zero(x):
                    acc = [self.add(c, self.mul(x, y))
                           for c, y in zip(acc, brow)]
            out.append(acc)
        return out


class IntModRing(Ring):
    """Z/p^K with canonical representatives in [0, p^K). It serves both
    zp (Z_p cut at p^K) and zmodpk (the Artinian ring Z/p^k): the two
    kinds share one arithmetic and differ only in the kind that reports
    echo."""

    def __init__(self, kind, p, prec):
        self.kind = kind
        self.p = p
        self.prec = prec
        self.mod = p ** prec
        self.is_field = prec == 1  # Z/p
        self._arrays = self.mod < _ARRAY_MOD

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

    def exact(self):
        return ExactZRing(self.p)

    # Bulk form: reduce, join, lift_residual and convolve take the array
    # route when their first vector is an array and p^K < 2^62, where a
    # list beside it is read as an array, and give lists of ints
    # otherwise.

    def bulk(self, xs):
        """Ring.bulk: an int64 array while p^K < 2^62, ints past it."""
        if not self._arrays:
            return Ring.bulk(self, _ints(xs))
        if isinstance(xs, _LISTS):
            import numpy as np
            return np.array(xs, dtype=np.int64)
        return xs

    def elements(self, v):
        return list(_ints(v))

    # The pi-adic digit split behind Weierstrass lifting and strong
    # factorization: every element is lo + p^s * hi, lo < p^s.

    def at_prec(self, k):
        """The same ring at precision k."""
        return self if k == self.prec else IntModRing(self.kind, self.p, k)

    def reduce(self, xs, k):
        """xs mod p^k, over at_prec(k)."""
        mod = self.p ** k
        if isinstance(xs, _LISTS) or not self._arrays:
            return [x % mod for x in _ints(xs)]
        return xs % mod

    def split(self, xs, s):
        """(lo, hi) with x = lo + p^s * hi, over at_prec(s) and
        at_prec(prec - s)."""
        ps = self.p ** s
        return [x % ps for x in xs], [x // ps for x in xs]

    def join(self, lo, hi, s):
        """lo + p^s * hi over this ring; hi None lifts lo unchanged."""
        if hi is None:
            return list(lo) if isinstance(lo, _LISTS) else self.bulk(lo)
        ps = self.p ** s
        if isinstance(lo, _LISTS) or not self._arrays:
            return [a + ps * b for a, b in zip(_ints(lo), _ints(hi))]
        return lo + ps * self.bulk(hi)

    def lift_residual(self, c, t, y, s):
        """(c - t - y) / p^s over at_prec(prec - s), termwise, for
        c - t - y = 0 mod p^s."""
        mod, ps = self.mod, self.p ** s
        if isinstance(c, _LISTS) or not self._arrays:
            return [(x - u - z) % mod // ps
                    for x, u, z in zip(_ints(c), _ints(t), _ints(y))]
        return (c - t - y) % mod // ps

    def matmul(self, A, B):
        """A numpy int64 matmul while len(B) * (mod - 1)^2 < 2^63, where
        no sum can wrap, and object ints past that."""
        import numpy as np
        dt = np.int64 if len(B) * (self.mod - 1) ** 2 < 1 << 63 else object
        C = np.array(A, dtype=dt) @ np.array(B, dtype=dt)
        return (C % self.mod).tolist()

    def convolve(self, a, b, hi, lo=0):
        """Ring.convolve in the form given: the int64 lanes hand their
        array on, Kronecker substitution packs arrays from their words
        while limbs fit 16 bytes, and takes their ints past that."""
        keep = self._arrays and not isinstance(a, _LISTS)
        n = hi - lo
        if not len(a) or not len(b) or lo >= min(hi, len(a) + len(b) - 1):
            out = [0] * n
        else:
            arr = _int64_convolve(a, b, self.mod - 1, self.mod - 1, hi, lo)
            if arr is None and keep:
                arr = _kron_words(a, b, self.mod, hi, lo)
            if arr is None:
                out = _pad(_kron_unsigned(_ints(a), _ints(b), self.mod,
                                          hi, lo), n)
            elif keep and len(arr) == n:
                return arr % self.mod
            else:
                out = _pad((arr % self.mod).tolist(), n)
        return self.bulk(out) if keep else out


class _DigitRing(Ring):
    """The t-adic kinds: elements are tuples of digits in [0, p),
    ascending in t, whose JSON form is an array of digits."""

    def decode(self, vs, what):
        """Ring.decode for elements that are arrays of digits, ints or
        decimal strings: one scan of the element types and one of the
        digit types, or the element-wise route, which names the first
        bad element or digit."""
        if set(map(type, _array(what, vs))) <= {list, tuple}:
            digit_types = set(map(type, chain.from_iterable(vs)))
            if digit_types <= {int}:
                return list(map(tuple, vs))
            if digit_types <= {int, str}:
                try:
                    return [tuple(map(int, v)) for v in vs]
                except ValueError:  # a malformed digit string
                    pass
        return [self._digits(v) for v in vs]

    def _digits(self, v):
        if not isinstance(v, (list, tuple)):
            raise UsageError("element of %s must be a digit array"
                             % self.kind)
        out = []
        for d in v:
            if isinstance(d, bool) or not isinstance(d, (int, str)):
                raise UsageError("digit %.40r of a %s element is not an "
                                 "integer or decimal string" % (d, self.kind))
            try:
                out.append(int(d))
            except ValueError:
                raise UsageError("digits of a %s element must be integers"
                                 % self.kind) from None
        return tuple(out)

    def encode(self, x):
        """The JSON form of the element x: its array of digits."""
        return [int(d) for d in x]

    def canon(self, r):
        return self.from_digits(r)

    def val(self, r):
        for i, d in enumerate(r):
            if d:
                return i
        return None

    def uniformizer(self):
        """t, which generates the maximal ideal."""
        return self.from_digits((0, 1))


class FpTRing(_DigitRing):
    """Truncated power series F_p[[t]] mod t^K; elements are tuples of
    exactly K digits, ascending in t."""

    kind = "fpt"

    def __init__(self, p, prec):
        self.p = p
        self.prec = prec
        self._arrays = p < _ARRAY_MOD

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

    def exact(self):
        return ExactFpTRing(self.p)

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

    # Bulk form: the (m, K) array of the digits of m elements, int64
    # while p < 2^62. reduce, split, join, lift_residual, lift_product
    # and convolve give an array when their first vector is one, and
    # read lists beside it as arrays; from a list they give lists of
    # digit tuples.

    def bulk(self, xs):
        """Ring.bulk: an (m, K) int64 digit array while p < 2^62, digit
        tuples past it."""
        return self._grid(xs) if self._arrays else Ring.bulk(self, xs)

    def elements(self, v):
        if isinstance(v, _LISTS):
            return list(v)
        return list(map(tuple, v.tolist()))

    def _grid(self, xs):
        """The (m, K) digit array of the m elements xs: xs itself when
        it is an array, and one fromiter of the digits, int64 while
        p < 2^62 and object ints past it, when it is a list."""
        import numpy as np
        if not isinstance(xs, _LISTS):
            return xs
        K = self.prec
        return np.fromiter(chain.from_iterable(xs),
                           np.int64 if self._arrays else object,
                           len(xs) * K).reshape(len(xs), K)

    def _like(self, v, D):
        """The digit array D in the form of the vector v: an int64 array
        after an array, digit tuples after a list."""
        if isinstance(v, _LISTS):
            return self.elements(D)
        return D.astype("int64", copy=False)

    # Digit slicing at t^s: every element is lo + t^s * hi.

    def at_prec(self, k):
        """The same ring at precision k."""
        return self if k == self.prec else FpTRing(self.p, k)

    def reduce(self, xs, k):
        """xs mod t^k, over at_prec(k)."""
        if isinstance(xs, _LISTS):
            return [x[:k] for x in xs]
        return xs[:, :k]

    def split(self, xs, s):
        """(lo, hi) with x = lo + t^s * hi, over at_prec(s) and
        at_prec(prec - s)."""
        if isinstance(xs, _LISTS):
            return [x[:s] for x in xs], [x[s:] for x in xs]
        return xs[:, :s], xs[:, s:]

    def join(self, lo, hi, s):
        """lo + t^s * hi over this ring; hi None lifts lo unchanged."""
        if isinstance(lo, _LISTS):
            if hi is None:
                pad = (0,) * (self.prec - s)
                return [a + pad for a in lo]
            return [a + b for a, b in zip(lo, hi)]
        import numpy as np
        out = np.zeros((len(lo), self.prec), dtype=np.int64)
        out[:, :s] = lo
        if hi is not None:
            out[:, s:] = hi
        return out

    def lift_residual(self, c, t, y, s):
        """(c - t - y) / t^s over at_prec(prec - s), termwise, for
        c - t - y = 0 mod t^s, on len(c) terms: digit by digit from
        digit s, as F_p digits carry nothing."""
        m = len(c)
        D = self._grid(c)[:, s:] - self._grid(t[:m])[:, s:]
        D -= self._grid(y[:m])[:, s:]
        return self._like(c, D % self.p)

    def matmul(self, A, B):
        """Entries multiply as polynomials in t cut at t^K, so digit d of
        C = A·B is the sum over a + b = d of the digit matrices' products
        A_a·B_b: K^2 digit matmuls, run as K matmuls of A_a against all
        of B's digits. A sum has at most len(B)·K terms below (p - 1)^2:
        int64 while that bound is below 2^63, object ints past it."""
        import numpy as np
        p, K = self.p, self.prec
        r, k, m = len(A), len(B), len(B[0])
        dt = np.int64 if k * K * (p - 1) ** 2 < 1 << 63 else object
        FA = np.array(A, dtype=dt).reshape(r, k, K)
        GB = np.array(B, dtype=dt).reshape(k, m * K)
        C = np.zeros((r, m, K), dtype=dt)
        for a in range(K):
            C[:, :, a:] += (FA[:, :, a] @ GB).reshape(r, m, K)[:, :, :K - a]
        return [[tuple(e) for e in row] for row in (C % p).tolist()]

    def _row_product(self, a, b, hi, lo=0):
        """Rows lo .. min(hi, len(a) + len(b) - 1) - 1 of a * b as a
        numpy array of K digits per row, reduced mod p: the one F_p[[t]]
        product kernel. Rows of K digits multiply as polynomials over
        Z[t], each operand laid out once at stride 2K - 1, where no row
        product overflows: the FFT lane past _FFT_KRON_WORK and
        Kronecker packing of the _rows array into 2-, 4- or 8-byte
        digit slots below it (unsigned arrays); wide Kronecker limbs,
        on Python ints, once a digit sum reaches 2^64 (object arrays).
        Only the kept rows are unpacked and reduced."""
        import numpy as np
        p, K = self.p, self.prec
        la, lb = len(a), len(b)
        hi = min(la + lb - 1, hi)
        if not la or not lb or hi <= lo:
            return np.zeros((0, K), dtype=np.int64)
        bound = min(la, lb) * K * (p - 1) ** 2
        w = (2 if bound < 1 << 16 else 4 if bound < 1 << 32
             else 8 if bound < 1 << 64 else None)
        s = 2 * K - 1
        if w is None:
            pad = (0,) * (K - 1)
            flat = _kron_unsigned(*[[d for r in _ints(v) for d in (*r, *pad)]
                                    for v in (a, b)], p, hi * s, lo * s)
            return np.array(flat, dtype=object).reshape(hi - lo, s)[:, :K]
        a, b = self._grid(a), self._grid(b)
        C = None
        if la * lb * (2 * K * w) ** 2 >= _FFT_KRON_WORK:
            C = _fft_convolve(a, b, p - 1, p - 1, K, hi, lo)
        if C is None:
            dt = "<u%d" % w
            cint = (int.from_bytes(_rows(a, K).astype(dt).tobytes(), "little")
                    * int.from_bytes(_rows(b, K).astype(dt).tobytes(),
                                     "little"))
            buf = cint.to_bytes((la + lb - 1) * s * w, "little")
            C = np.frombuffer(buf, dtype=dt, count=(hi - lo) * s,
                              offset=lo * s * w)
        return C.reshape(hi - lo, s)[:, :K] % p

    def convolve(self, a, b, hi, lo=0):
        C = self._row_product(a, b, hi, lo)
        if len(C) < hi - lo:  # zero rows past the product
            import numpy as np
            C = np.concatenate((C, np.zeros((hi - lo - len(C), self.prec),
                                            dtype=C.dtype)))
        return self._like(a, C)

    def lift_product(self, c, a, y, n, s):
        """Ring.lift_product from the digit array of a * y: the residual
        is taken before any product row is unpacked."""
        T = self._row_product(a, y, n + len(c), n)[:, s:]
        D = self._grid(c)[:, s:] - self._grid(y)[:, s:]
        # Kronecker lanes give unsigned digits: subtract in D's type
        D[:len(T)] -= T.astype(D.dtype, copy=False)
        return self._like(c, D % self.p)


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

    gcd = staticmethod(gcd)  # math.gcd is nonnegative, so unit-normal

    def unit_part(self, r):
        return -1 if r < 0 else 1

    def encode_fraction(self, frac):
        """The JSON form of the fraction (num, den): "n" or "n/d"."""
        num, den = frac
        return dec_str(num) if den == 1 else dec_str(num) + "/" + dec_str(den)

    def pow(self, a, e):
        return a ** e

    def matmul(self, A, B):
        """Object ints, as entries are unbounded."""
        import numpy as np
        return (np.array(A, dtype=object) @ np.array(B, dtype=object)).tolist()

    def convolve(self, a, b, hi, lo=0):
        if not any(a) or not any(b) or lo >= min(hi, len(a) + len(b) - 1):
            return [0] * (hi - lo)
        arr = _int64_convolve(a, b, max(map(abs, a)), max(map(abs, b)),
                              hi, lo)
        if arr is not None:
            return _pad(arr.tolist(), hi - lo)
        return _pad(_kron_signed(a, b, hi, lo), hi - lo)


class ExactFpTRing(_DigitRing):
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

    def deg(self, r):
        return len(r) - 1

    def below_degree(self, n):
        """Every element of degree < n, in order: the m-th has the
        base-p digits of m, so the constant digit varies fastest."""
        return [_trim(ds[::-1]) for ds in product(range(self.p), repeat=n)]

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

    def unit_part(self, r):
        return (r[-1],) if r else self.one()

    def encode_fraction(self, frac):
        """The JSON form of the fraction (num, den): [num, den] as digit
        arrays."""
        return list(map(self.encode, frac))

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


def check_prec(kind, prec):
    """prec, or BadPrecision when a finite kind cannot take it and
    BudgetExceeded past SIZE_CAP."""
    if prec is None or prec < 1:
        raise BadPrecision("kind %s needs prec >= 1, got %r" % (kind, prec),
                           prec=prec)
    if prec > SIZE_CAP:
        raise BudgetExceeded("kind %s needs prec <= %d, got %d"
                             % (kind, SIZE_CAP, prec),
                             needed=prec, budget=SIZE_CAP)
    return prec


def make_ring(kind, p=None, prec=None):
    """Build a ring from its descriptor. The base must be prime
    (CompositeModulus otherwise) and finite kinds need prec >= 1
    (BadPrecision otherwise) and at most SIZE_CAP (BudgetExceeded
    otherwise). kind z may omit p, giving plain integers with no
    valuation."""
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
    check_prec(kind, prec)
    if kind == "fpt":
        return FpTRing(p, prec)
    return IntModRing(kind, p, prec)
