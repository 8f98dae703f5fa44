"""Sylvester resultants over exact domains, with the Hadamard and
t-degree size bounds and the three-route equivalence checks."""

import random

import pytest

import oracles
from oracles import resultant_generic, sylvester_matrix
from prepkit import (BothConstant, RingMismatch, hadamard_check, make_poly,
                     make_ring, resultant, tdegree_check)

Z = make_ring("z")
T2 = make_ring("fpt_exact", 2)
T3 = make_ring("fpt_exact", 3)


def test_sylvester_matrix_golden():
    f = make_poly(Z, [1, 0, 1])
    g = make_poly(Z, [-1, 1])
    assert sylvester_matrix(f, g) == [[1, 0, 1], [1, -1, 0], [0, 1, -1]]


def test_resultant_goldens():
    assert resultant(make_poly(Z, [-1, 1]), make_poly(Z, [-2, 1])) == -1
    assert resultant(make_poly(Z, [1, 0, 1]), make_poly(Z, [-1, 1])) == 2
    assert resultant(make_poly(Z, [1, 0, 1]), make_poly(Z, [1, 0, 1])) == 0


def test_poly_deriv():
    assert make_poly(Z, [5, -3, 0, 2]).deriv().coeffs == (-3, 0, 6)
    assert make_poly(Z, [5]).deriv().coeffs == ()
    # x^2 + t x over F_2[t]: 2x vanishes, so the derivative is t
    assert make_poly(T2, [(), (0, 1), (1,)]).deriv().coeffs == ((0, 1),)


def test_resultant_rejects_two_constants():
    with pytest.raises(BothConstant):
        resultant(make_poly(Z, [3]), make_poly(Z, [4]))


def test_resultant_ring_mismatch():
    with pytest.raises(RingMismatch):
        resultant(make_poly(Z, [1, 1]), make_poly(T2, [(1,), (1,)]))


def test_fast_lanes_match_generic():
    rng = random.Random(41)
    for _ in range(40):
        dg = rng.randrange(1, 4)
        df = rng.randrange(1, 4)
        f = make_poly(Z, [rng.randrange(-9, 10) for _ in range(df)] + [1])
        g = make_poly(Z, [rng.randrange(-9, 10) for _ in range(dg)] + [1])
        assert resultant(f, g) == resultant_generic(f, g)
    for _ in range(40):
        f = make_poly(T2, [tuple(rng.randrange(2) for _ in range(3))
                           for _ in range(rng.randrange(1, 4))] + [(1,)])
        g = make_poly(T2, [tuple(rng.randrange(2) for _ in range(3))
                           for _ in range(rng.randrange(1, 4))] + [(1,)])
        assert resultant(f, g) == resultant_generic(f, g)
    for _ in range(40):
        f = make_poly(T3, [tuple(rng.randrange(3) for _ in range(3))
                           for _ in range(rng.randrange(1, 4))] + [(1,)])
        g = make_poly(T3, [tuple(rng.randrange(3) for _ in range(3))
                           for _ in range(rng.randrange(1, 4))] + [(1,)])
        assert resultant(f, g) == resultant_generic(f, g)
    # every degree pair 0-6 plus the zero polynomial, over Z and F_p[t]
    # for small, 17-bit and 33-bit p
    for R in (Z, T2, T3, make_ring("fpt_exact", 65537),
              make_ring("fpt_exact", 4294967311)):
        p = R.p

        def coeff():
            if p is None:
                return rng.choice([0, 1, -1, rng.randrange(-99, 100)])
            return R.from_digits([rng.choice([0, 1, p - 1, rng.randrange(p)])
                                  for _ in range(rng.randrange(4))])

        def poly(deg):
            lead = coeff()
            while R.is_zero(lead):
                lead = coeff()
            return make_poly(R, [coeff() for _ in range(deg)] + [lead])

        for df in range(-1, 7):
            for dg in range(-1, 7):
                f = poly(df) if df >= 0 else make_poly(R, [])
                g = poly(dg) if dg >= 0 else make_poly(R, [])
                if df <= 0 and dg <= 0:
                    with pytest.raises(BothConstant):
                        resultant(f, g)
                    continue
                assert resultant(f, g) == resultant_generic(f, g), (f, g)


def test_resultant_sign_and_constant_goldens():
    # Res(x + 2, x^3 + 1) = (-2)^3 + 1; swapping odd-degree operands
    # flips the sign
    f, g = make_poly(Z, [2, 1]), make_poly(Z, [1, 0, 0, 1])
    assert (resultant(f, g), resultant(g, f)) == (-7, 7)
    # Res(f, c) = Res(c, f) = c^deg f, and a zero operand gives 0
    assert resultant(g, make_poly(Z, [-2])) == -8
    assert resultant(make_poly(Z, [-2]), g) == -8
    assert resultant(make_poly(Z, []), g) == 0
    assert resultant(f, make_poly(Z, [])) == 0
    with pytest.raises(BothConstant):
        resultant(make_poly(Z, []), make_poly(Z, [5]))


def test_multiplicativity_in_g():
    # Res(f, g h) = Res(f, g) Res(f, h) for monic arguments
    rng = random.Random(99)
    for _ in range(25):
        f = make_poly(Z, [rng.randrange(-9, 10), rng.randrange(-9, 10), 1])
        g = make_poly(Z, [rng.randrange(-9, 10), 1])
        h = make_poly(Z, [rng.randrange(-9, 10), 1])
        gh = make_poly(Z, Z.convolve(list(g.coeffs), list(h.coeffs), 3))
        assert resultant(f, gh) == resultant(f, g) * resultant(f, h)


def test_root_product_for_linear_factors():
    # Res(prod (x - r_i), g) = prod g(r_i) for monic f
    rng = random.Random(7)
    for _ in range(25):
        roots = [rng.randrange(-6, 7) for _ in range(3)]
        co = [1]
        for r in roots:
            co = Z.convolve(co, [-r, 1], len(co) + 1)
        f = make_poly(Z, co)
        g = make_poly(Z, [rng.randrange(-9, 10) for _ in range(3)] + [1])
        want = 1
        for r in roots:
            want *= g.eval(r)
        assert resultant(f, g) == want


def exhaustive_pairs(p):
    polys = []
    for code in range(1, p ** 4):
        c = []
        v = code
        for _ in range(4):
            c.append(v % p)
            v //= p
        polys.append(c)
    return polys


def run_three_routes(p, polys):
    """Library Sylvester determinant (canonical integer lift reduced
    mod p) vs the oracle root-product formula vs the gcd zero test."""
    pairs = 0
    for fc in polys:
        fp = make_poly(Z, fc)
        for gc in polys:
            if oracles.fp_deg(fc) == 0 and oracles.fp_deg(gc) == 0:
                continue
            pairs += 1
            det = resultant(fp, make_poly(Z, gc)) % p
            rr = oracles.res_roots_fp(fc, gc, p)
            assert det == rr, (fc, gc, det, rr)
            assert (rr == 0) == oracles.fp_gcd_nonconstant(fc, gc, p)
    return pairs


def test_three_routes_exhaustive_f2():
    assert run_three_routes(2, exhaustive_pairs(2)) == 224


def test_three_routes_exhaustive_f3():
    assert run_three_routes(3, exhaustive_pairs(3)) == 6396


def test_three_routes_sampled_f7():
    # deterministic sample with every degree combination represented
    rng = random.Random(777)
    polys = exhaustive_pairs(7)
    sample = []
    by_deg = {}
    for c in polys:
        by_deg.setdefault(oracles.fp_deg(c), []).append(c)
    for d in sorted(by_deg):
        sample.extend(rng.sample(by_deg[d], min(5, len(by_deg[d]))))
    pairs = 0
    for fc in sample:
        fp = make_poly(Z, fc)
        for gc in sample:
            if oracles.fp_deg(fc) == 0 and oracles.fp_deg(gc) == 0:
                continue
            pairs += 1
            det = resultant(fp, make_poly(Z, gc)) % 7
            rr = oracles.res_roots_fp(fc, gc, 7)
            assert det == rr, (fc, gc)
            assert (rr == 0) == oracles.fp_gcd_nonconstant(fc, gc, 7)
    assert pairs == 20 * 20 - 5 * 5


def test_hadamard_goldens():
    rep = hadamard_check(make_poly(Z, [-1, 1]), make_poly(Z, [-2, 1]))
    assert (rep.B, rep.lhs, rep.rhs, rep.bound_ok) == (-1, 1, 10, True)
    rep = hadamard_check(make_poly(Z, [1, 0, 1]), make_poly(Z, [-1, 1]))
    assert (rep.B, rep.lhs, rep.rhs, rep.bound_ok) == (2, 4, 8, True)


def test_hadamard_random_no_violations():
    rng = random.Random(1234)
    for _ in range(300):
        f = make_poly(Z, [rng.randrange(-50, 51) for _ in range(3)] + [1])
        g = make_poly(Z, [rng.randrange(-50, 51) for _ in range(2)] + [1])
        rep = hadamard_check(f, g)
        assert rep.bound_ok
        assert rep.lhs == rep.B * rep.B


def test_tdegree_goldens():
    # x + t vs x + t^2 has resultant t + t^2
    f = make_poly(T2, [(0, 1), (1,)])
    g = make_poly(T2, [(0, 0, 1), (1,)])
    rep = tdegree_check(f, g)
    assert rep.B == (0, 1, 1)
    assert (rep.lhs, rep.rhs, rep.bound_ok) == (2, 3, True)
    # tx + 1 vs x + t has resultant 1 + t^2
    f2 = make_poly(T2, [(1,), (0, 1)])
    g2 = make_poly(T2, [(0, 1), (1,)])
    rep2 = tdegree_check(f2, g2)
    assert rep2.B == (1, 0, 1)
    assert (rep2.lhs, rep2.rhs, rep2.bound_ok) == (2, 2, True)


def test_tdegree_random_no_violations():
    rng = random.Random(55)
    for _ in range(300):
        p = rng.choice([2, 3])
        E = make_ring("fpt_exact", p)
        def rand_c():
            return tuple(rng.randrange(p) for _ in range(rng.randrange(1, 4)))
        f = make_poly(E, [rand_c() for _ in range(rng.randrange(1, 4))]
                      + [(1,)])
        g = make_poly(E, [rand_c() for _ in range(rng.randrange(1, 4))]
                      + [(1,)])
        rep = tdegree_check(f, g)
        assert rep.bound_ok
