"""Coefficient-ring kinds: construction, canonical forms, valuations,
unit inversion, the F_p[t] product lanes, and the packed GF(2)[t]
kernels."""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from prepkit import (BadPrecision, BudgetExceeded, CompositeModulus,
                     NotAUnit, make_ring, make_series, rings, series_invert)
from prepkit.rings import (b2_deg, b2_divmod, b2_mul, digits_from_mask,
                           is_prime, mask_from_digits)

SMALL = st.integers(min_value=-10 ** 6, max_value=10 ** 6)


def test_make_ring_validation():
    make_ring("zp", 5, 12)
    make_ring("fpt", 3, 10)
    make_ring("zmodpk", 2, 6)
    make_ring("z")
    make_ring("z", 7)
    make_ring("fpt_exact", 2)
    with pytest.raises(CompositeModulus):
        make_ring("zp", 6, 3)
    with pytest.raises(CompositeModulus):
        make_ring("fpt", 4, 2)
    with pytest.raises(BadPrecision):
        make_ring("zp", 5, 0)
    with pytest.raises(BadPrecision):
        make_ring("zmodpk", 2, -1)
    with pytest.raises(ValueError):
        make_ring("nope", 2, 2)
    # past the size cap, before p^prec is computed
    assert rings.check_prec("zp", rings.SIZE_CAP) == rings.SIZE_CAP
    for kind in ("zp", "zmodpk", "fpt"):
        with pytest.raises(BudgetExceeded) as e:
            make_ring(kind, 3, rings.SIZE_CAP + 1)
        assert e.value.data == {"needed": rings.SIZE_CAP + 1,
                                "budget": rings.SIZE_CAP}


def test_ring_equality_and_desc():
    assert make_ring("zp", 5, 12) == make_ring("zp", 5, 12)
    assert make_ring("zp", 5, 12) != make_ring("zp", 5, 11)
    assert make_ring("zp", 5, 12) != make_ring("zmodpk", 5, 12)
    assert make_ring("z") == make_ring("z")
    assert make_ring("z", 2) != make_ring("z")


def test_intmod_goldens():
    R = make_ring("zp", 5, 3)
    assert R.canon(126) == 1
    assert R.invert_unit(R.from_int(2)) == oracles.inv_mod(2, 125)
    assert R.val(R.from_int(50)) == 2
    assert R.val(R.zero()) is None
    assert R.val(R.one()) == 0
    with pytest.raises(NotAUnit):
        R.invert_unit(R.from_int(5))


def test_val_split_identity():
    # the Hensel step's split: r = pi^v * hi with hi a unit mod pi^(K - v)
    for R, r in ((make_ring("zp", 5, 8), 50),
                 (make_ring("fpt", 3, 6), (0, 0, 2, 1))):
        r = R.canon(r)
        v = R.val(r)
        hi = R.split([r], v)[1][0]
        assert v == 2 and R.at_prec(R.prec - v).val(hi) == 0
        lifted = R.join([hi], None, R.prec - v)[0]
        assert R.mul(R.pow(R.uniformizer(), v), lifted) == r


def test_exact_z_valuations():
    Z2 = make_ring("z", 2)
    assert Z2.val(Z2.from_int(48)) == 4
    assert Z2.val(Z2.from_int(7)) == 0
    Z5 = make_ring("z", 5)
    assert Z5.val(Z5.from_int(7)) == 0
    assert Z5.val(Z5.zero()) is None
    Z = make_ring("z")
    with pytest.raises(ValueError):
        Z.uniformizer()


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 101]
    for n in primes:
        assert is_prime(n)
    for n in [0, 1, 4, 6, 9, 15, 91, 100]:
        assert not is_prime(n)


# ---------------------------------------------------------------- GF(2)[t]

def test_b2_kernels_golden():
    # (1 + t)(1 + t) = 1 + t^2 over GF(2)
    assert b2_mul(0b11, 0b11) == 0b101
    assert b2_mul(0b11, 0b11) == oracles.b2mul(0b11, 0b11)
    q, r = b2_divmod(0b1011, 0b11)
    assert b2_mul(q, 0b11) ^ r == 0b1011
    assert b2_deg(r) < b2_deg(0b11)


@given(st.integers(min_value=1, max_value=2 ** 24 - 1),
       st.integers(min_value=1, max_value=2 ** 12 - 1))
@settings(derandomize=True, deadline=None, max_examples=60)
def test_b2_divmod_identity(a, b):
    q, r = b2_divmod(a, b)
    assert b2_mul(q, b) ^ r == a
    assert b2_deg(r) < b2_deg(b)


def test_mask_digit_roundtrip():
    assert mask_from_digits((1, 0, 1, 1)) == 0b1101
    assert digits_from_mask(0b1101) == (1, 0, 1, 1)
    assert digits_from_mask(0b1, width=4) == (1, 0, 0, 0)
    assert digits_from_mask(0) == ()


def test_fpt_ring_arithmetic():
    T = make_ring("fpt", 3, 4)
    a = T.from_digits((1, 2))
    b = T.from_digits((2, 1))
    # (1 + 2t)(2 + t) = 2 + 5t + 2t^2 = 2 + 2t + 2t^2 mod 3
    assert T.mul(a, b) == T.from_digits((2, 2, 2))
    assert T.add(a, T.neg(a)) == T.zero()
    u = T.invert_unit(a)
    assert T.mul(a, u) == T.one()
    with pytest.raises(NotAUnit):
        T.invert_unit(T.uniformizer())
    assert T.val(T.from_digits((0, 0, 1))) == 2


def test_fpt2_matches_mask_kernels():
    T = make_ring("fpt", 2, 8)
    a = T.from_digits((1, 1, 0, 1))
    b = T.from_digits((0, 1, 1))
    am, bm = mask_from_digits(a), mask_from_digits(b)
    prod = b2_mul(am, bm) & ((1 << 8) - 1)
    assert mask_from_digits(T.mul(a, b)) == prod


def test_exact_fpt_divmod():
    E = make_ring("fpt_exact", 3)
    a = E.from_digits((1, 0, 2, 1))
    b = E.from_digits((2, 1))
    q, r = E.divmod(a, b)
    assert E.add(E.mul(q, b), r) == a
    assert r == E.zero() or E.deg(r) < E.deg(b)
    assert E.exact_div(E.mul(a, b), b) == a


def long_division(a, b, p):
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    for sh in range(len(q) - 1, -1, -1):
        c = a[sh + len(b) - 1] * inv % p
        q[sh] = c
        for j, y in enumerate(b):
            a[sh + j] = (a[sh + j] - c * y) % p
    for d in (q, a):
        while d and d[-1] == 0:
            d.pop()
    return tuple(q), tuple(a)


def test_exact_fpt2_divmod_matches_digit_loop():
    # dividends past 8 digits take the bitmask lane
    rng = random.Random(2)
    E = make_ring("fpt_exact", 2)
    for la in (1, 2, 7, 8, 9, 10, 17, 64, 200):
        for lb in (1, 2, 5, 8, 9, 12, 65):
            a = tuple(rng.randrange(2) for _ in range(la - 1)) + (1,)
            b = tuple(rng.randrange(2) for _ in range(lb - 1)) + (1,)
            q, r = E.divmod(a, b)
            assert (q, r) == long_division(a, b, 2), (la, lb)
            assert E.add(E.mul(q, b), r) == a
            assert E.exact_div(E.mul(a, b), b) == a


def schoolbook(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@pytest.mark.parametrize("p", [2, 3, 65537, 4294967311])
def test_fpt_mul_matches_schoolbook(p):
    # lengths on both sides of the schoolbook cut at 32 digit products,
    # including long-by-short products; past (p-1)^2 * len = 2^63 an
    # int64 product would wrap
    rng = random.Random(p)
    E = make_ring("fpt_exact", p)

    def digits(n):
        d = [rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(n)]
        d[-1] = p - 1
        return d

    for la, lb in [(1, 1), (1, 12), (1, 32), (1, 33), (4, 8), (4, 9),
                   (8, 8), (8, 30), (9, 9), (9, 40), (24, 17), (1001, 4),
                   (3, 1001)]:
        a, b = digits(la), digits(lb)
        want = schoolbook(a, b, p)
        assert list(E.mul(tuple(a), tuple(b))) == want
        assert E.mul(tuple(b), tuple(a)) == E.mul(tuple(a), tuple(b))
        for K in (la, lb, la + lb):
            T = make_ring("fpt", p, K)
            got = T.mul(T.from_digits(a), T.from_digits(b))
            assert list(got) == (want + [0] * K)[:K]


@pytest.mark.parametrize("p, n", [(3, 63), (3, 64), (17, 255), (17, 256),
                                  (4099, 255), (4099, 256)])
def test_fp_mul_limb_widths_at_capacity(p, n):
    # all-(p-1) operands put (p-1)^2 * n in the middle digit sum: the
    # largest size the 1-, 2- and 4-byte Kronecker limbs admit, and one
    # digit past each, where the next lane takes over
    E = make_ring("fpt_exact", p)
    a = (p - 1,) * n
    assert list(E.mul(a, a)) == schoolbook(a, a, p)
    b = tuple(random.Random(n).randrange(p) for _ in range(n - 1)) + (1,)
    assert list(E.mul(a, b)) == schoolbook(a, b, p)


@pytest.mark.parametrize("p", [2, 3, 65537, 4294967311])
def test_fpt_invert_unit_matches_quadratic_reference(p):
    rng = random.Random(p)
    for K in (1, 2, 3, 63, 64, 65, 4000):
        R = make_ring("fpt", p, K)
        r = R.from_digits([rng.randrange(1, p)]
                          + [rng.randrange(p) for _ in range(K - 1)])
        assert list(R.invert_unit(r)) == oracles.pinv_series(list(r), K, p)
    with pytest.raises(NotAUnit):
        make_ring("fpt", p, 5).invert_unit((0, 1, 0, 0, 0))


def test_pow_skips_products_after_the_top_bit():
    # square-and-multiply from the low bit: no product by one and no
    # squaring after the last bit, so x^(2^k) costs k products
    for R in (make_ring("fpt", 3, 40), make_ring("fpt_exact", 3)):
        calls = []
        mul = R.mul
        R.mul = lambda a, b: calls.append(1) or mul(a, b)
        x = R.from_digits([1, 2, 0, 1])
        for e, products in [(0, 0), (1, 0), (2, 1), (5, 3), (6, 3),
                            (2 ** 7, 7)]:
            calls.clear()
            got = R.pow(x, e)
            assert len(calls) == products, e
            want = R.one()
            for _ in range(e):
                want = mul(want, x)
            assert got == want
        with pytest.raises(ValueError):
            R.pow(x, -1)


@pytest.mark.parametrize("p", [2, 3, 5, 65537])
def test_val_matches_division_loop(p):
    rng = random.Random(p)
    prec = 70
    rings = (make_ring("zp", p, prec), make_ring("zmodpk", p, prec),
             make_ring("z", p))
    for v in [0, 1, prec - 1] + [rng.randrange(prec) for _ in range(40)]:
        u = rng.randrange(1, p ** 3)
        while u % p == 0:
            u = rng.randrange(1, p ** 3)
        for R in rings:
            for r in (R.from_int(u * p ** v), R.from_int(-u * p ** v)):
                assert R.val(r) == oracles.v_p(r, p)
        assert make_ring("z", p).val(u * p ** (v + 500)) == v + 500
    for R in rings:
        assert R.val(R.zero()) is None


@pytest.mark.parametrize("kind, p, K", [("zp", 2, 9), ("zp", 5, 6),
                                        ("zmodpk", 3, 7), ("fpt", 2, 8),
                                        ("fpt", 3, 5), ("fpt", 65537, 4)])
def test_lift_residual_matches_sub_and_split(kind, p, K):
    # (c - t - y) / pi^s against the element operations and the digit
    # split, on inputs with c - t - y = 0 mod pi^s
    rng = random.Random("%s%d" % (kind, p))
    R = make_ring(kind, p, K)
    for s in list(range(K)) * 3:
        n = rng.randrange(1, 12)
        t, y, e = ([R.from_digits([rng.randrange(p) for _ in range(K)])
                    if kind == "fpt" else R.from_int(rng.randrange(p ** K))
                    for _ in range(n)] for _ in range(3))
        pis = R.pow(R.uniformizer(), s)
        c = [R.add(R.add(a, b), R.mul(pis, d)) for a, b, d in zip(t, y, e)]
        lo, hi = R.split([R.sub(R.sub(a, b), d)
                          for a, b, d in zip(c, t, y)], s)
        assert all(map(R.at_prec(s).is_zero, lo))
        assert R.lift_residual(c, t, y, s) == hi
        assert hi == R.reduce(e, K - s)


@pytest.mark.parametrize("kind, p, K", [("zp", 2, 9), ("zp", 5, 6),
                                        ("zmodpk", 3, 7), ("fpt", 2, 8),
                                        ("fpt", 3, 5), ("fpt", 65537, 4),
                                        ("fpt", 4294967311, 3)])
def test_lift_product_matches_residual_of_convolve(kind, p, K):
    # (c - x^-n * (a * y) - y) / pi^s against lift_residual of the cut
    # product (Ring's route) and the digits put in; fpt takes its
    # Kronecker lanes at 5 terms, the FFT lane at 90 and the blocked
    # FFT at 600 (fpt:2:8), and wide limbs at p = 4294967311. zp and
    # zmodpk run again on int64 arrays, which give an int64 array.
    rng = random.Random("lift%s%d" % (kind, p))
    R = make_ring(kind, p, K)

    def elems(n):
        return [R.from_digits([rng.randrange(p) for _ in range(K)])
                if kind == "fpt" else R.from_int(rng.randrange(p ** K))
                for _ in range(n)]
    sizes = [5, 90] + ([600] if (kind, p) == ("fpt", 2) else [])
    for m in sizes:
        for s in (1, K // 2, K - 1):
            n = rng.randrange(1, 6)
            a, y, e = elems(m), elems(m - n), elems(m - n)
            t = R.convolve(a, y, m)[n:]
            pis = R.pow(R.uniformizer(), s)
            c = [R.add(R.add(u, z), R.mul(pis, d))
                 for u, z, d in zip(t, y, e)]
            got = R.lift_product(c, a, y, n, s)
            assert type(got) is list
            assert got == rings.Ring.lift_product(R, c, a, y, n, s)
            assert got == R.reduce(e, K - s)
            if kind != "fpt":
                arr = R.lift_product(*map(R.bulk, (c, a, y)), n, s)
                assert arr.dtype.name == "int64" and arr.tolist() == got


def test_exact_fpt_sub_monic_gcd():
    rng = random.Random(5)
    for p in (2, 3, 7):
        E = make_ring("fpt_exact", p)
        for _ in range(30):
            a, b, c = (E.from_digits([rng.randrange(p) for _ in range(n)])
                       for n in (rng.randint(0, 9), rng.randint(0, 9),
                                 rng.randint(1, 6)))
            assert E.add(E.sub(a, b), b) == a
            assert E.sub(a, a) == E.zero()
            if not c:
                continue
            g = E.gcd(E.mul(a, c), E.mul(b, c))
            if not a and not b:
                assert g == E.zero()
                continue
            assert g[-1] == 1
            assert E.divmod(E.mul(a, c), g)[1] == E.zero()
            assert E.divmod(E.mul(b, c), g)[1] == E.zero()
            assert E.divmod(g, E.monic(c))[1] == E.zero()
    E3 = make_ring("fpt_exact", 3)
    assert E3.monic((1, 2)) == (2, 1)
    assert E3.monic(()) == ()
    assert E3.gcd((), ()) == ()


def test_exact_fpt_below_degree_counts_in_base_p():
    # the m-th element has the base-p digits of m, ascending in t: the
    # gap sweep's candidate order, which fixes its sampled reports
    for p in (2, 3, 5):
        E = make_ring("fpt_exact", p)
        for n in range(5):
            want = []
            for m in range(p ** n):
                digits = []
                while m:
                    m, d = divmod(m, p)
                    digits.append(d)
                want.append(tuple(digits))
            assert E.below_degree(n) == want


def test_exact_div_remainder_survives_optimize_flag():
    code = (
        "from prepkit import InvariantViolation, make_ring\n"
        "for R, a, b in ((make_ring('z'), 7, 2),\n"
        "                (make_ring('fpt_exact', 3), (1, 1), (0, 1))):\n"
        "    try:\n"
        "        R.exact_div(a, b)\n"
        "    except InvariantViolation:\n"
        "        print('raised')\n")
    res = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True)
    assert (res.returncode, res.stdout) == (0, "raised\nraised\n"), res.stderr


@given(st.lists(SMALL, min_size=1, max_size=8),
       st.lists(SMALL, min_size=1, max_size=8))
@settings(derandomize=True, deadline=None, max_examples=40)
def test_convolve_matches_reference(xs, ys):
    for R in (make_ring("zp", 7, 4), make_ring("fpt", 2, 9), make_ring("z")):
        a = [R.from_int(x) for x in xs]
        b = [R.from_int(y) for y in ys]
        n = len(xs) + len(ys)
        assert R.convolve(a, b, n) == R.convolve_ref(a, b, n)
    # digit sums past 2^32: the 64-bit packing lane; past 2^64: wide
    # Kronecker limbs over the flattened rows
    for R in (make_ring("fpt", 65537, 3), make_ring("fpt", 1000003, 4),
              make_ring("fpt", 4294967311, 3)):
        a = [R.from_digits((x, -x, x * x)) for x in xs]
        b = [R.from_digits((-y, y, 1, y)) for y in ys]
        n = len(xs) + len(ys)
        assert R.convolve(a, b, n) == R.convolve_ref(a, b, n)


def _operands(R, n, rng, top=False):
    if R.kind == "fpt":
        return [tuple(R.p - 1 if top else rng.randrange(R.p)
                      for _ in range(R.prec)) for _ in range(n)]
    if R.kind == "z":
        return [-(2 ** 20) if top else rng.randrange(-1000, 1000)
                for _ in range(n)]
    return [R.mod - 1 if top else rng.randrange(R.mod) for _ in range(n)]


def _spy_fft(monkeypatch):
    taken = []
    fft = rings._fft_convolve

    def spy(*args, **kw):
        out = fft(*args, **kw)
        taken.append(out is not None)
        return out
    monkeypatch.setattr(rings, "_fft_convolve", spy)
    return taken


def _spy_transforms(monkeypatch):
    """A list that gets, for each _fft_convolve call, the number of
    inverse transforms it ran: 0 when the bound refused it, 1 for one
    cyclic transform, more for a sectioned product."""
    import numpy as np
    counts = []
    fft, irfft = rings._fft_convolve, np.fft.irfft

    def spy(*args, **kw):
        counts.append(0)
        return fft(*args, **kw)

    def counting(*args, **kw):
        counts[-1] += 1
        return irfft(*args, **kw)
    monkeypatch.setattr(rings, "_fft_convolve", spy)
    monkeypatch.setattr(np.fft, "irfft", counting)
    return counts


# sizes past each kind's FFT work threshold, balanced and not, and on
# both sides of the 2^14-point block: one transform up to 546 rows of
# fpt:2:8, 1,170 of fpt:3:4 and 8,192 terms of zp and z, blocks past
# that; at fpt:2:8200 one row product exceeds the block
FFT_CASES = [("fpt", 2, 8, [(48, 48), (200, 12), (7, 300), (546, 546),
                            (547, 547), (1536, 1536)]),
             ("fpt", 3, 4, [(96, 96), (300, 40), (1170, 1170),
                            (1171, 1171)]),
             ("fpt", 65537, 3, [(32, 32), (90, 12)]),
             ("fpt", 2, 8200, [(3, 3)]),
             ("zp", 2, 8, [(400, 400), (2000, 70), (8192, 8192),
                           (8193, 8193)]),
             ("zmodpk", 3, 5, [(400, 400), (66, 2000)]),
             ("z", None, None, [(400, 400), (2000, 70), (8192, 8192),
                                (8193, 8193)])]


@pytest.mark.parametrize("kind, p, K, sizes", FFT_CASES,
                         ids=["%s%s%s" % (c[0], ":%s" % c[1] if c[1] else "",
                                          ":%s" % c[2] if c[2] == 8200 else "")
                              for c in FFT_CASES])
def test_fft_lane_matches_reference(monkeypatch, kind, p, K, sizes):
    R = make_ring(kind, p, K)
    rng = random.Random(str(R))
    taken = _spy_fft(monkeypatch)
    for la, lb in sizes:
        a, b = _operands(R, la, rng), _operands(R, lb, rng)
        if la * lb > 1 << 18:
            # convolve_ref skips zero terms of a: keep 2^16 / lb of them,
            # spread over every block, so the reference stays quick
            keep = set(rng.sample(range(la), (1 << 16) // lb))
            a = [x if i in keep else R.zero() for i, x in enumerate(a)]
        n = la + lb - 1
        want = R.convolve_ref(a, b, n + 5)
        for out_len in (1, min(la, lb), n // 2, n - 1, n, n + 5):
            taken.clear()
            assert R.convolve(a, b, out_len) == want[:out_len]
            assert taken == [True]


# every FFT case, with operands on both sides of the FFT work
# thresholds, and one ring for each lane those cases do not reach:
# unsigned Kronecker (zp:2:128), signed Kronecker (z with entries of
# 2^40), wide F_p[[t]] limbs and the generic element route
MIDDLE_CASES = FFT_CASES + [
    ("zp", 2, 8, [(512, 256), (511, 256)]),
    ("fpt", 2, 8, [(64, 32), (63, 32)]),
    ("zp", 2, 128, [(40, 30), (9, 70)]),
    ("z", 2 ** 40, None, [(40, 30), (9, 70)]),
    ("fpt", 4294967311, 3, [(12, 9), (3, 20)]),
    ("fpt_exact", 3, None, [(12, 9), (3, 20)])]


def _takes_fft(R, la, lb):
    """Whether R.convolve of la by lb terms tries the FFT lane."""
    if R.kind == "fpt":
        bound = min(la, lb) * R.prec * (R.p - 1) ** 2
        if bound >= 1 << 64:
            return False
        w = 2 if bound < 1 << 16 else 4 if bound < 1 << 32 else 8
        return la * lb * (2 * R.prec * w) ** 2 >= rings._FFT_KRON_WORK
    return R.kind != "fpt_exact" and la * lb >= rings._FFT_INT_WORK


@pytest.mark.parametrize("kind, p, K, sizes", MIDDLE_CASES,
                         ids=["%s%s%s" % (c[0], ":%s" % c[1] if c[1] else "",
                                          ":%s" % c[2] if c[2] else "")
                              for c in MIDDLE_CASES])
def test_middle_product_matches_reference(monkeypatch, kind, p, K, sizes):
    # terms lo .. hi - 1 of every lane against the reference's, with lo
    # at both ends and in the middle of the product and hi up to past
    # its end; the FFT lane's cyclic transform wraps onto rows below lo
    if kind == "z":
        R, top = make_ring("z"), p
    else:
        R, top = make_ring(kind, p, K), None
    rng = random.Random("middle" + str(R))
    taken = _spy_fft(monkeypatch)
    for la, lb in sizes:
        if top:
            a = [rng.randrange(-top, top) for _ in range(la)]
            b = [rng.randrange(-top, top) for _ in range(lb)]
        elif kind == "fpt_exact":
            a, b = ([R.from_digits([rng.randrange(p) for _ in range(4)])
                     for _ in range(n)] for n in (la, lb))
        else:
            a, b = _operands(R, la, rng), _operands(R, lb, rng)
        if la * lb > 1 << 18:
            keep = set(rng.sample(range(la), (1 << 16) // lb))
            a = [x if i in keep else R.zero() for i, x in enumerate(a)]
        n = la + lb - 1
        want = R.convolve_ref(a, b, n + 5)
        for lo in sorted({0, 1, min(la, lb) - 1, la - 1, (la + lb) // 2}):
            for hi in sorted({lo + 1, la, n, n + 5}):
                if hi <= lo:
                    continue
                taken.clear()
                assert R.convolve(a, b, hi, lo) == want[lo:hi], (la, lb, lo,
                                                                 hi)
                assert taken == ([True] if _takes_fft(R, la, lb) else [])
        # lo = hi - 1 at each hi
        for hi in (1, la, n, n + 5):
            assert R.convolve(a, b, hi, hi - 1) == want[hi - 1:hi]


def test_series_invert_across_the_fft_block(monkeypatch):
    # Newton's last step at m = 8,192 fits one transform for its middle
    # and its full product; at 12,000 the middle product still fits one
    # (a full 12,000 by 6,000 product would need blocks); at 16,385 the
    # middle product needs blocks too. f = h^-1 for a dense h of 64
    # terms is dense, and its inverse is h
    R = make_ring("zp", 2, 8)
    rng = random.Random(8192)
    h = [rng.randrange(1, 256, 2)] + [rng.randrange(256) for _ in range(63)]
    transforms = _spy_transforms(monkeypatch)
    for m, blocks in ((8192, False), (12000, False), (16385, True)):
        f = oracles.pinv_series(h, m, 256)
        transforms.clear()
        got = series_invert(make_series(R, f, m)).coeffs
        assert list(got) == h + [0] * (m - 64)
        assert transforms and (max(transforms) > 1) == blocks
        assert list(series_invert(make_series(R, h, m)).coeffs) == f


@pytest.mark.parametrize("kind, p, K", [("zp", 2, 8), ("fpt", 3, 4),
                                        ("fpt", 2, 8), ("fpt", 2, 8200)])
def test_fft_sections_only_past_the_block(monkeypatch, kind, p, K):
    # full and middle products whose cyclic transform is cap - 1, cap
    # and cap + 1 rows, cap = _FFT_MAX_SIZE // (2K - 1): the full product
    # of n rows, and rows n // 2 - 1 .. n - 1 of n by n // 2 rows. Up to
    # cap rows they take one inverse transform, past it more than one.
    # At fpt:2:8200 one row product is longer than a block, so every 3
    # by 3 product is sectioned
    R = make_ring(kind, p, K)
    s = 2 * K - 1 if kind == "fpt" else 1
    cap = rings._FFT_MAX_SIZE // s
    if cap:
        cases = [(n, n > cap) for n in (cap - 1, cap, cap + 1)]
        shapes = [((n + 1) // 2, n + 1 - (n + 1) // 2, n, 0, cut)
                  for n, cut in cases]
        shapes += [(n, n // 2, n, n // 2 - 1, cut) for n, cut in cases]
    else:
        shapes = [(3, 3, 5, 0, True), (3, 3, 5, 2, True)]
    rng = random.Random("sections" + str(R))
    transforms = _spy_transforms(monkeypatch)
    for la, lb, hi, lo, cut in shapes:
        a, b = _operands(R, la, rng), _operands(R, lb, rng)
        if la * lb > 1 << 18:
            keep = set(rng.sample(range(la), (1 << 16) // lb))
            a = [x if i in keep else R.zero() for i, x in enumerate(a)]
        transforms.clear()
        got = R.convolve(a, b, hi, lo)
        assert len(transforms) == 1 and (transforms[0] > 1) == cut
        assert got == R.convolve_ref(a, b, hi)[lo:], (la, lb, hi, lo)


@pytest.mark.parametrize("kind, p, K", [
    ("zp", 2, 31), ("zmodpk", 3, 19), ("fpt", 2147483647, 1),
    ("fpt", 2147483647, 2)])
def test_matmul_both_sides_of_the_int64_bound(kind, p, K):
    # int64 while every sum of len(B) products (len(B) * K for fpt)
    # stays below 2^63; with every entry at its top value the sums at
    # one more row of B reach 2^63, so an int64 route would wrap there
    R = make_ring(kind, p, K)
    zero, _, add, mul, _ = oracles.ring_ops(kind, p, K)
    if kind == "fpt":
        top, terms = (p - 1,) * K, K
        square = (p - 1) ** 2
    else:
        top, terms = R.mod - 1, 1
        square = (R.mod - 1) ** 2
    below = ((1 << 63) - 1) // (terms * square)
    assert below >= 1 and (below + 1) * terms * square >= 1 << 63
    rng = random.Random(str(R))
    for k in (below, below + 1):
        for A, B in (([[top] * k] * 2, [[top] * 3] * k),
                     ([_operands(R, k, rng) for _ in range(2)],
                      [_operands(R, 3, rng) for _ in range(k)])):
            want = []
            for row in A:
                out = [zero] * 3
                for x, brow in zip(row, B):
                    out = [add(c, mul(x, y)) for c, y in zip(out, brow)]
                want.append(out)
            assert R.matmul(A, B) == want


def test_matmul_generic_route_matches_lanes():
    for R in (make_ring("z"), make_ring("zp", 5, 3), make_ring("fpt", 3, 4)):
        rng = random.Random(str(R))
        A = [_operands(R, 4, rng) for _ in range(3)]
        B = [_operands(R, 7, rng) for _ in range(4)]
        assert R.matmul(A, B) == rings.Ring.matmul(R, A, B)


def _largest_admitted(R, amax, k, block):
    """The largest L up to block whose L by L product at top magnitude
    the bound admits."""
    top = _operands(R, block, None, top=True)
    if rings._fft_convolve(top, top, amax, amax, k) is not None:
        return block
    lo, hi = 1, block  # admitted at lo, refused at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok = rings._fft_convolve(top[:mid], top[:mid], amax, amax, k)
        lo, hi = (mid, hi) if ok is not None else (lo, mid)
    return lo


@pytest.mark.parametrize("kind, p, K", [
    ("fpt", 2, 8), ("fpt", 3, 4), ("fpt", 65537, 1), ("fpt", 65537, 20),
    ("zmodpk", 3, 5), ("zp", 5, 8), ("z", None, None)])
def test_fft_bound_holds_at_its_largest_admitted_size(kind, p, K):
    # every entry at its largest magnitude makes ||a|| * ||b|| as large
    # as the admission bound allows. Check the unreduced output exactly
    # at the largest size the bound admits in one transform of at most
    # 2^14 points; where that is the whole block, also on three blocks
    # by three; where the bound refuses first, check that one more term
    # and a product past the block are refused and take the old lane
    R = make_ring(kind, p, K)
    k = K if kind == "fpt" else None
    amax = 2 ** 20 if kind == "z" else (p - 1 if kind == "fpt" else R.mod - 1)
    d = k or 1
    s = 2 * d - 1
    block = (rings._FFT_MAX_SIZE // s + 1) // 2
    L = _largest_admitted(R, amax, k, block)
    top = _operands(R, 3 * block, None, top=True)

    def exact(n):
        got = rings._fft_convolve(top[:n], top[:n], amax, amax, k)
        ones = [1 if i % s < d else 0 for i in range((n - 1) * s + d)]
        return got.tolist() == [amax * amax * c
                                for c in self_convolution(ones)]
    assert exact(L)
    if L == block:
        assert exact(3 * block)
        return
    assert rings._fft_convolve(top[:L + 1], top[:L + 1], amax, amax, k) is None
    assert rings._fft_convolve(top, top, amax, amax, k) is None
    if L < 200:
        # the refused size still multiplies right through the next lane
        b = _operands(R, L + 1, random.Random(L))
        assert (R.convolve(top[:L + 1], b, 2 * L + 1)
                == R.convolve_ref(top[:L + 1], b, 2 * L + 1))


def self_convolution(ones):
    """Exact self-convolution of a 0/1 list: np.convolve's direct int64
    loop, whose sums stay far below 2^63 here."""
    import numpy as np
    v = np.array(ones, dtype=np.int64)
    return np.convolve(v, v).tolist()


# each product misrounds one output of its nth inverse transform: the
# first for one transform, the second block pair of a blocked product.
# The last two are middle products of 512 by 256 terms from term 256,
# whose 512-point cyclic transform wraps terms 512 .. 766 onto slots
# 0 .. 254: one misrounds a wrapped slot, which is dropped, the other
# a kept one
_FFT_GUARD_CODE = (
    "import numpy as np\n"
    "from prepkit import InvariantViolation, make_ring\n"
    "irfft = np.fft.irfft\n"
    "def off_by_one(*args, **kw):\n"
    "    out = irfft(*args, **kw)\n"
    "    calls.append(1)\n"
    "    if len(calls) == nth:\n"
    "        out[slot] += 0.75\n"
    "    return out\n"
    "np.fft.irfft = off_by_one\n"
    "zp = make_ring('zp', 2, 8)\n"
    "for R, a, b, hi, lo, nth, slot in (\n"
    "        (zp, [255] * 400, [255] * 400, 800, 0, 1, %d),\n"
    "        (make_ring('z'), [-7] * 400, [-7] * 400, 800, 0, 1, %d),\n"
    "        (make_ring('fpt', 3, 4), [(2, 1, 0, 2)] * 200,\n"
    "         [(2, 1, 0, 2)] * 200, 400, 0, 1, %d),\n"
    "        (zp, [255] * 9000, [255] * 9000, 18000, 0, 2, %d),\n"
    "        (zp, [255] * 512, [255] * 256, 512, 256, 1, 10),\n"
    "        (zp, [255] * 512, [255] * 256, 512, 256, 1, 300)):\n"
    "    calls = []\n"
    "    try:\n"
    "        R.convolve(a, b, hi, lo)\n"
    "    except InvariantViolation:\n"
    "        print('raised')\n")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
@pytest.mark.parametrize("index", [0, 399])
def test_fft_sum_check_catches_a_misrounded_output(flags, index):
    res = subprocess.run([sys.executable, *flags, "-c",
                          _FFT_GUARD_CODE % ((index,) * 4)],
                         capture_output=True, text=True)
    assert (res.returncode, res.stdout) == (0, "raised\n" * 6), res.stderr


def test_convolve_lanes_match_reference_at_small_thresholds(monkeypatch):
    # With the lane thresholds cut small, every product lane runs on
    # operands of at most 60 terms, and each result is checked against
    # convolve_ref with schoolbook element products: zp:3:4 takes
    # numpy's direct loop, the FFT in one transform and sectioned, and
    # zp:2:24 the direct loop past the FFT's rounding bound; zmodpk:2:31
    # array Kronecker limbs and zp:5:30 wide ones; z the FFT (entries up
    # to 100), the direct loop (2^24) and signed Kronecker (2^40); fpt
    # the FFT in one transform and sectioned, Kronecker packing of its
    # rows at stride 2K - 1 into 2-byte (p = 2, 3), 4-byte (257) and
    # 8-byte (536870909, past the FFT's bound) slots, and wide limbs at
    # p = 4294967311; the F_p[t] element product (fpt and fpt_exact) its
    # schoolbook, mask, array, numpy and wide lanes. lift_product is
    # checked on the same products. Half the lengths are at most 6, so
    # that the lanes below the work thresholds run too. Below p^K = 2^62
    # (zp:3:4, zp:2:24, zmodpk:2:31 and zp:2:60, which takes wide
    # Kronecker limbs) both kernels run again on int64 arrays, and
    # must give int64 arrays of the same values, from every lane. A
    # product is sectioned when one _fft_convolve call runs more than
    # one inverse transform.
    import numpy as np
    rng = random.Random(2126)
    cases = [(make_ring(*d), lim) for d, lim in (
        (("zp", 3, 4), 60), (("zp", 2, 24), 40), (("zmodpk", 2, 31), 40),
        (("zp", 2, 60), 40), (("zp", 5, 30), 40),
        (("z",), 60), (("fpt", 3, 3), 40), (("fpt", 2, 5), 30),
        (("fpt", 65537, 2), 20), (("fpt", 4294967311, 2), 20),
        (("fpt_exact", 2), 12), (("fpt_exact", 3), 12),
        (("fpt_exact", 65537), 12), (("fpt", 257, 2), 20),
        (("fpt", 536870909, 2), 20))]
    log = []
    transforms = _spy_transforms(monkeypatch)
    for name in ("_fft_convolve", "_kron_signed", "_kron_unsigned",
                 "b2_mul"):
        def spy(*args, _f=getattr(rings, name), _name=name, **kw):
            log.append(_name)
            out = _f(*args, **kw)
            if _name == "_fft_convolve" and transforms[-1] > 1:
                log.append("sectioned")
            return out
        monkeypatch.setattr(rings, name, spy)

    def row_product(*args, _f=rings.FpTRing._row_product, **kw):
        # the packed lane alone returns unsigned slots
        out = _f(*args, **kw)
        if out.dtype.kind == "u":
            log.append("packed%d" % out.itemsize)
        return out
    monkeypatch.setattr(rings.FpTRing, "_row_product", row_product)
    array_lanes = set()

    def on_arrays(R, kernel, vectors, want):
        # kernel on the int64 arrays of vectors, as a list, and the
        # lanes it took: "direct" when none of the spied kernels ran
        start = len(log)
        got = kernel(*map(R.bulk, vectors))
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert got.tolist() == want
        array_lanes.update((R.prec, lane)
                           for lane in set(log[start:]) or {"direct"})

    def elems(R, n, top):
        if R.kind == "z":
            return [rng.randint(-top, top) for _ in range(n)]
        if R.prec is None:
            return [R.from_digits([rng.randrange(R.p)
                                   for _ in range(rng.randrange(7))])
                    for _ in range(n)]
        if R.kind == "fpt":
            return [R.from_digits([rng.randrange(R.p)
                                   for _ in range(R.prec)])
                    for _ in range(n)]
        return [R.from_int(rng.randrange(R.mod)) for _ in range(n)]

    def reference(R, a, b, hi):
        with monkeypatch.context() as mp:
            mp.setattr(rings, "_SCHOOLBOOK_WORK", 10 ** 9)
            return R.convolve_ref(a, b, hi)

    monkeypatch.setattr(rings, "_FFT_MAX_SIZE", 64)
    monkeypatch.setattr(rings, "_FFT_INT_WORK", 24)
    monkeypatch.setattr(rings, "_FFT_KRON_WORK", 1 << 11)
    monkeypatch.setattr(rings, "_SCHOOLBOOK_WORK", 2)
    for R, lim in cases:
        for _ in range(30):
            top = rng.choice((100, 1 << 24, 1 << 40))
            la, lb = (rng.randint(0, rng.choice((6, lim))) for _ in "ab")
            a, b = elems(R, la, top), elems(R, lb, top)
            hi = rng.randint(1, la + lb + 2)
            lo = rng.randint(0, hi)
            want = reference(R, a, b, hi)[lo:]
            got = R.convolve(a, b, hi, lo)
            assert type(got) is list and got == want, (R, la, lb, hi, lo)
            assert R.convolve_ref(a, b, hi)[lo:] == want
            arrays = isinstance(R, rings.IntModRing) and R.mod < 1 << 62
            if arrays and la and lb and lo < min(hi, la + lb - 1):
                on_arrays(R, lambda a, b: R.convolve(a, b, hi, lo), (a, b),
                          want)
            if R.prec is None or not la:
                continue
            # the residual of a lifting step whose product a * y is
            # needed at terms n .. n + m - 1
            n = rng.randint(0, la - 1)
            m = rng.randint(1, lim)
            y, e = elems(R, m, top), elems(R, m, top)
            s = rng.randint(1, R.prec - 1)
            pis = R.pow(R.uniformizer(), s)
            t = reference(R, a, y, n + m)[n:]
            c = [R.add(R.add(u, z), R.mul(pis, d))
                 for u, z, d in zip(t, y, e)]
            want = R.reduce(e, R.prec - s)
            assert R.lift_product(c, a, y, n, s) == want
            if arrays:
                on_arrays(R, lambda c, a, y: R.lift_product(c, a, y, n, s),
                          (c, a, y), want)
    assert set(log) == {"_fft_convolve", "sectioned", "_kron_signed",
                        "_kron_unsigned", "b2_mul", "packed2", "packed4",
                        "packed8"}
    assert array_lanes >= {(4, "direct"), (4, "_fft_convolve"),
                           (4, "sectioned"), (24, "direct"),
                           (31, "_kron_unsigned"), (60, "_kron_unsigned")}


# int64 arrays given to a ring of p^K >= 2^62, whose bulk form is a
# list: each kernel takes the list route on the arrays' ints or raises
# InvariantViolation, so no sum wraps in int64 (join(v, v, 2) would
# reach 5 * 2^62)
_WIDE_ARRAYS_CODE = (
    "import numpy as np\n"
    "from prepkit import InvariantViolation, make_ring\n"
    "R = make_ring('zp', 2, 64)\n"
    "a = [2 ** 62 + 12345 * i for i in range(40)]\n"
    "for kernel in (lambda v: R.convolve(v, v, 60, 10),\n"
    "               lambda v: R.join(v, v, 2),\n"
    "               lambda v: R.join(v, None, 2),\n"
    "               lambda v: R.lift_residual(v, v, v, 0),\n"
    "               lambda v: R.lift_product(v, v, v, 3, 0),\n"
    "               lambda v: R.reduce(v, 63),\n"
    "               R.bulk):\n"
    "    want = kernel(a)\n"
    "    try:\n"
    "        got = kernel(np.array(a, dtype=np.int64))\n"
    "    except InvariantViolation:\n"
    "        print('raised')\n"
    "        continue\n"
    "    print('list' if type(got) is list and got == want\n"
    "          and all(type(x) is int for x in got) else got)\n")


def test_first_vector_picks_the_form():
    # below 2^62 a kernel whose first vector is an int64 array gives an
    # array, and reads lists beside it as arrays: the values are those
    # of the list route
    import numpy as np

    rng = random.Random(7)
    for kind, p, K in (("zp", 3, 4), ("zmodpk", 5, 3), ("zp", 2, 61)):
        R = make_ring(kind, p, K)
        mod = p ** K
        a, b, c = ([rng.randrange(mod) for _ in range(9)] for _ in "abc")
        for kernel in (lambda x, y, z: R.convolve(x, y, 12, 3),
                       lambda x, y, z: R.join(R.reduce(x, 1), y, 1),
                       lambda x, y, z: R.lift_residual(x, y, z, 0),
                       lambda x, y, z: R.lift_product(x, y, z, 2, 0)):
            want = kernel(a, b, c)
            got = kernel(np.array(a, dtype=np.int64), b, c)
            assert type(want) is list and isinstance(got, np.ndarray)
            assert got.tolist() == want


def test_wide_ring_takes_arrays_on_the_list_route_under_optimize_flag():
    res = subprocess.run([sys.executable, "-O", "-c", _WIDE_ARRAYS_CODE],
                         capture_output=True, text=True)
    lines = res.stdout.splitlines()
    assert res.returncode == 0 and len(lines) == 7, res.stderr
    assert set(lines) <= {"list", "raised"}, lines


def test_kron_signed_overflow_check_survives_optimize_flag():
    # an operand whose abs() understates it gets limbs too narrow for
    # its products; the leftover high part must raise, not be dropped
    code = (
        "from prepkit import InvariantViolation\n"
        "from prepkit.rings import _kron_signed\n"
        "class Understated(int):\n"
        "    def __abs__(self):\n"
        "        return 1\n"
        "a = [Understated(10 ** 6)] * 3\n"
        "try:\n"
        "    _kron_signed(a, a)\n"
        "except InvariantViolation:\n"
        "    print('raised')\n")
    res = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True)
    assert (res.returncode, res.stdout) == (0, "raised\n"), res.stderr


@given(SMALL, SMALL)
@settings(derandomize=True, deadline=None, max_examples=60)
def test_val_multiplicative(x, y):
    for R in (make_ring("zp", 3, 9), make_ring("z", 3)):
        a, b = R.from_int(x), R.from_int(y)
        va, vb = R.val(a), R.val(b)
        vp = R.val(R.mul(a, b))
        if va is None or vb is None:
            assert vp is None or R.prec is not None
        elif R.is_exact:
            assert vp == va + vb
        elif va + vb < R.prec:
            assert vp == va + vb


def test_unit_inverse_is_involutive():
    R = make_ring("zmodpk", 2, 6)
    for n in range(1, 64, 2):
        u = R.from_int(n)
        assert R.mul(u, R.invert_unit(u)) == R.one()
        assert R.invert_unit(R.invert_unit(u)) == u
