"""Truncated power series: multiplication, inversion, composition,
compositional inverse, evaluation, and rationality detection."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from prepkit import (BadPrecision, BudgetExceeded, InsufficientXPrecision,
                     NonBinaryCoefficient, NonzeroConstantInner,
                     NotAUnitSeries, OracleSeries, PointNotSmall,
                     PrepkitError, WindowTooSmall, comp_inverse, compose,
                     detect_periodic_01, detect_recurrence, evaluate,
                     hensel_lift, jsonio, make_ring, make_series, prepare,
                     series_add, series_invert, series_mul, series_sub,
                     strong_factor)
from prepkit import rings
from prepkit.series import SERIES_CAP, check_x_prec

Z4 = make_ring("zmodpk", 2, 2)
F5 = make_ring("zp", 5, 1)
F7 = make_ring("zp", 7, 1)
Z = make_ring("z")


def ints(f):
    return [int(c) for c in f.coeffs]


def test_mul_golden_zmod4():
    f = make_series(Z4, [2, 2], 3)
    assert ints(series_mul(f, f)) == [0, 0, 0]


def test_invert_golden_f5():
    f = make_series(F5, [2, 1], 4)
    g = series_invert(f)
    assert ints(g) == oracles.pinv_series([2, 1], 4, 5)
    assert ints(series_mul(f, g)) == [1, 0, 0, 0]


def test_invert_rejects_non_unit():
    f = make_series(Z4, [2, 1], 3)
    with pytest.raises(NotAUnitSeries):
        series_invert(f)


def test_compose_golden():
    f = make_series(Z, [0, 0, 1], 7)
    g = make_series(Z, [0, 1, 0, 1], 7)
    assert ints(compose(f, g)) == [0, 0, 1, 0, 2, 0, 1]


def test_compose_rejects_unit_constant_inner():
    f = make_series(Z, [1, 1], 4)
    g = make_series(Z, [1, 1], 4)
    with pytest.raises(NonzeroConstantInner):
        compose(f, g)


def test_comp_inverse_goldens():
    f = make_series(Z, [0, 1, 1], 7)
    assert ints(comp_inverse(f)) == [0, 1, -1, 2, -5, 14, -42]
    f3 = make_series(Z, [0, 1, 0, 1], 6)
    assert ints(comp_inverse(f3)) == [0, 1, 0, -1, 0, 3]


def test_comp_inverse_routes_agree():
    f = make_series(Z, [0, 1, 3, -2, 7, 1, 0, 4], 8)
    assert list(comp_inverse(f).coeffs) == oracles.triangular_inverse(
        list(f.coeffs), oracles.ring_ops("z"))
    g = make_series(F7, [0, 1, 6, 3, 2], 5)
    assert list(comp_inverse(g).coeffs) == oracles.triangular_inverse(
        list(g.coeffs), oracles.ring_ops("zp", 7, 1))


def _random_elem(rng, ring):
    if ring.kind == "fpt":
        return tuple(rng.randrange(ring.p) for _ in range(ring.prec))
    if ring.kind == "z":
        return rng.randint(-9, 9)
    return rng.randrange(ring.mod)


# zp:2:64 takes the object-int block product; fpt:65537:2 has digit
# sums past 2^32, so its convolutions pack digits into 8-byte slots
@pytest.mark.parametrize("desc", [("z",), ("zp", 3, 4), ("zp", 2, 64),
                                  ("fpt", 2, 4), ("fpt", 65537, 2)])
def test_comp_inverse_matches_triangular_reference(desc):
    # Newton reversion on Brent-Kung composition against the O(M^3)
    # triangular relation, coefficient for coefficient, at windows on
    # both sides of the square sizes where the baby-step count changes
    ring = make_ring(*desc)
    ops = oracles.ring_ops(*desc)
    rng = random.Random(11)
    for m in (2, 3, 4, 5, 9, 10, 17, 26, 40):
        coeffs = [ring.zero(), ring.one()] + [_random_elem(rng, ring)
                                              for _ in range(m - 2)]
        f = make_series(ring, coeffs, m)
        assert list(comp_inverse(f).coeffs) == oracles.triangular_inverse(
            list(f.coeffs), ops)


def test_compose_matches_fraction_oracle():
    rng = random.Random(12)
    for m in (1, 2, 3, 4, 5, 8, 9, 10, 16, 17, 31, 50):
        fc = [rng.randint(-9, 9) for _ in range(m)]
        gc = [0] + [rng.randint(-9, 9) for _ in range(m - 1)]
        got = compose(make_series(Z, fc, m), make_series(Z, gc, m))
        assert ints(got) == oracles.fr_compose(fc, gc, m)


def test_evaluate_geometric():
    R = make_ring("zp", 2, 8)
    f = make_series(R, [1] * 8, 8)
    assert evaluate(f, R.from_int(2), 8) == 255
    with pytest.raises(PointNotSmall):
        evaluate(f, R.one(), 8)
    with pytest.raises(InsufficientXPrecision):
        evaluate(make_series(R, [1] * 3, 3), R.from_int(2), 8)


def test_add_sub_roundtrip():
    f = make_series(F7, [1, 2, 3], 3)
    g = make_series(F7, [6, 5, 4], 3)
    assert ints(series_add(f, g)) == [0, 0, 0]
    assert ints(series_sub(series_add(f, g), g)) == ints(f)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (PrepkitError, ValueError) as e:
        return type(e).__name__, str(e), getattr(e, "data", None)


def test_x_prec_size_cap():
    cap = rings.SIZE_CAP
    assert check_x_prec(cap) == cap
    for build in (lambda: make_series(Z, [1], cap + 1),
                  lambda: OracleSeries(Z, lambda n: n, cap + 1)):
        with pytest.raises(BudgetExceeded) as e:
            build()
        assert e.value.data == {"needed": cap + 1, "budget": cap}


def test_series_digit_budget():
    # x_prec * ring.prec up to series.SERIES_CAP digits over a finite
    # ring, for a payload series and an oracle alike; exact rings have
    # no precision and only SIZE_CAP bounds them
    cap = SERIES_CAP
    for kind, p in (("zp", 2), ("zmodpk", 3), ("fpt", 2)):
        R = make_ring(kind, p, 2048)
        assert make_series(R, [R.one()], cap // 2048).x_prec == 2048
        for build in (lambda: make_series(R, [R.one()], cap // 2048 + 1),
                      lambda: OracleSeries(R, R.from_int, cap // 2048 + 1)):
            with pytest.raises(BudgetExceeded) as e:
                build()
            assert e.value.data == {"needed": cap + 2048, "budget": cap}
    assert OracleSeries(Z, lambda n: n, rings.SIZE_CAP).x_prec == (
        rings.SIZE_CAP)


def test_deriv_and_eval():
    R = make_ring("zp", 3, 4)
    f = make_series(R, [5, 1, 2, 7], 4)
    assert f.deriv().coeffs == (1, 4, 21)
    assert make_series(R, [5], 1).deriv().coeffs == (0,)
    orc = OracleSeries(R, lambda n: [5, 1, 2, 7][n], 4)
    assert orc.deriv() == f.deriv()
    low = R.at_prec(2)
    for g in (f, orc):
        assert g.eval(3) == evaluate(f, 3, 4)
        assert g.eval(3, low) == evaluate(f, 3, 2) % 9


def test_oracle_series_window_and_materialize():
    s = OracleSeries(Z, lambda n: n * n, 10)
    assert s.window(4) == [0, 1, 4, 9]
    m = s.truncate(5)
    assert ints(m) == [0, 1, 4, 9, 16]
    with pytest.raises(InsufficientXPrecision):
        s.coeff(10)
    with pytest.raises(BadPrecision):
        OracleSeries(Z, lambda n: n, 0)
    for f in (s, m):
        with pytest.raises(InsufficientXPrecision) as e:
            f.window(f.x_prec + 3)
        assert e.value.data == {"needed": f.x_prec + 3, "have": f.x_prec}

    # every op answers on an oracle what it answers on its window
    for R, pi in ((make_ring("zp", 3, 4), 3),
                  (make_ring("fpt", 3, 3), (0, 1))):
        pi = R.canon(pi)

        def oracle(head):
            def rule(n):
                return head[n] if n < len(head) else R.from_int(1 + n % 2)
            return OracleSeries(R, rule, 8)

        one = R.one()
        a = oracle([pi, R.add(pi, pi)])  # reduction index 2
        u = oracle([R.add(one, pi), pi])  # a unit
        z = oracle([R.zero(), one, pi])  # x + O(x^2)
        h = oracle([pi, one])  # a simple root of positive valuation
        pa = OracleSeries(R, lambda n: R.mul(pi, a.coeff(n)), 8)  # v = 1
        calls = [(prepare, a), (strong_factor, pa), (series_invert, u),
                 (series_mul, u, a), (compose, u, z), (comp_inverse, z),
                 (detect_recurrence, u, 3), (evaluate, u, pi, R.prec),
                 (hensel_lift, h, R.zero(), R.prec),
                 (jsonio.series_to_json, u)]
        for fn, *args in calls:
            windows = [f.truncate(f.x_prec) if isinstance(f, OracleSeries)
                       else f for f in args]
            got = _outcome(fn, *args)
            assert got == _outcome(fn, *windows), fn.__name__
            # recurrence detection needs a field; every other call succeeds
            want = "ValueError" if fn is detect_recurrence else "ok"
            assert got[0] == want, (fn.__name__, got)
    F3 = make_ring("zp", 3, 1)
    o = OracleSeries(F3, lambda n: 1 + n % 2, 12)
    got = detect_recurrence(o, 5)
    assert got == detect_recurrence(o.truncate(12), 5)
    assert (got.kind, got.d) == ("rational", 1)  # c(n + 1) = -c(n) mod 3


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=2,
                max_size=10))
@settings(derandomize=True, deadline=None, max_examples=50)
def test_invert_roundtrip_random(coeffs):
    for R in (make_ring("zp", 3, 5), make_ring("fpt", 2, 6)):
        vals = [R.from_int(c) for c in coeffs]
        vals[0] = R.one()
        f = make_series(R, vals, len(vals))
        g = series_invert(f)
        one = make_series(R, [R.one()] + [R.zero()] * (len(vals) - 1),
                          len(vals))
        assert series_mul(f, g).coeffs == one.coeffs


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=3,
                max_size=9))
@settings(derandomize=True, deadline=None, max_examples=40)
def test_comp_inverse_roundtrip_random(tail):
    coeffs = [0, 1] + tail
    f = make_series(Z, coeffs, len(coeffs))
    g = comp_inverse(f)
    m = len(coeffs)
    idx = [0, 1] + [0] * (m - 2)
    assert ints(compose(f, g)) == idx
    assert ints(compose(g, f)) == idx


# ------------------------------------------------------------- rationality

def test_detect_periodic_goldens():
    v = detect_periodic_01(Z, [0, 1] * 8)
    assert (v.kind, v.d, v.s, v.q) == ("rational", 2, 0, (1, 0, -1))
    v = detect_periodic_01(Z, [1] * 16)
    assert (v.kind, v.d, v.s) == ("rational", 1, 0)
    v = detect_periodic_01(Z, [0, 1] + [0] * 30)
    assert (v.kind, v.d, v.s) == ("rational", 1, 2)
    assert v.q == (1, -1)


def test_detect_periodic_thue_morse_irrational():
    tm = [oracles.thue_morse(i) for i in range(512)]
    v = detect_periodic_01(Z, tm)
    assert v.kind == "irrational_at_budget"
    assert v.budget == 512


def test_detect_periodic_input_guards():
    with pytest.raises(ValueError):
        detect_periodic_01(Z, [0, 1, 0])
    with pytest.raises(NonBinaryCoefficient):
        detect_periodic_01(Z, [0, 1, 2, 0, 1])


def test_detect_periodic_fpt_values():
    # 0 and 1 of F_3[[t]]/t^2 are digit tuples, not the ints 0 and 1
    R = make_ring("fpt", 3, 2)
    v = detect_periodic_01(R, [R.from_int(c) for c in [1, 0] * 10])
    assert (v.kind, v.d, v.s) == ("rational", 2, 0)
    with pytest.raises(NonBinaryCoefficient):
        detect_periodic_01(R, [R.one(), R.zero(), R.canon((0, 1)), R.one()])


def test_detect_recurrence_fibonacci_mod5():
    fib = [0, 1]
    for _ in range(30):
        fib.append(fib[-1] + fib[-2])
    f = make_series(F5, fib[:32], 32)
    v = detect_recurrence(f, 3)
    assert v.kind == "rational"
    assert v.d == 2
    assert list(v.q) == [1, 4, 4]
    assert v == detect_recurrence(f, 3)


def test_detect_recurrence_geometric_mod7():
    geom = [pow(3, i, 7) for i in range(20)]
    f = make_series(F7, geom, 20)
    v = detect_recurrence(f, 2)
    assert (v.kind, v.d) == ("rational", 1)
    assert list(v.q) == [1, 4]


def test_detect_recurrence_thue_morse_f2():
    F2 = make_ring("zp", 2, 1)
    tm = [oracles.thue_morse(i) for i in range(64)]
    f = make_series(F2, tm, 64)
    v = detect_recurrence(f, 8)
    assert v.kind == "irrational_at_budget"


def test_detect_recurrence_rational_function_witness():
    # over exact Q: 1/(1-x) has q = 1 - x
    f = make_series(Z, [1] * 10, 10)
    v = detect_recurrence(f, 2)
    assert v.kind == "rational" and v.d == 1


def test_detect_recurrence_window_guard():
    f = make_series(F5, [1, 2, 3, 4], 4)
    with pytest.raises(WindowTooSmall):
        detect_recurrence(f, 3)
    # the route takes Z/p (is_field) and the exact kinds (is_exact), and
    # refuses Z/p^k for k > 1 and every fpt ring, F_p[[t]]/t included
    for desc in ("zp:7:1", "zmodpk:3:1", "z", "fpt_exact:5"):
        R = jsonio.parse_ring_flag(desc)
        assert R.is_field != R.is_exact, desc
        f = make_series(R, [R.from_int(n) for n in range(1, 7)], 6)
        assert detect_recurrence(f, 2).budget == 6, desc
    for desc in ("zp:7:2", "zmodpk:2:3", "fpt:3:1", "fpt:2:4"):
        R = jsonio.parse_ring_flag(desc)
        assert not (R.is_field or R.is_exact), desc
        f = make_series(R, [R.from_int(n) for n in range(1, 7)], 6)
        with pytest.raises(ValueError, match="got kind %s with prec %d"
                           % (R.kind, R.prec)):
            detect_recurrence(f, 2)


def _recurrence_windows(rng, p, count):
    """(window, max_order) pairs over F_p: all-zero windows, lone
    nonzero terms (q_d = 0), order exactly max_order, windows at exactly
    M = 2 * max_order + 2, and plain random windows."""
    for k in range(count):
        mo = rng.randint(1, 6)
        M = 2 * mo + 2 + (0 if k % 2 else rng.randint(1, 6))
        style = k % 5
        if style == 0:
            seq = [0] * M
        elif style == 1:
            seq = [0] * M
            seq[rng.randrange(M)] = rng.randrange(1, p)
        elif style == 2:
            seq = [rng.randrange(p) for _ in range(M)]
        else:
            order = mo if style == 3 else rng.randint(1, mo)
            qs = [rng.randrange(p) for _ in range(order)]
            seq = [rng.randrange(p) for _ in range(order)]
            while len(seq) < M:
                seq.append(sum(a * b for a, b in zip(qs, reversed(seq[-order:])))
                           % p)
        yield seq, mo


@pytest.mark.parametrize("p", [2, 7, 101])
def test_detect_recurrence_matches_scan_fp(p):
    rng = random.Random(8000 + p)
    R = make_ring("zp", p, 1)
    for seq, mo in _recurrence_windows(rng, p, 120):
        v = detect_recurrence(make_series(R, seq, len(seq)), mo)
        want = oracles.recurrence_scan_fp(seq, mo, p)
        if want is None:
            assert v.kind == "irrational_at_budget"
        else:
            assert v.kind == "rational"
            assert (v.d, list(v.q), v.s) == (want[0], want[1], 0)
        assert v.budget == len(seq)


def test_detect_recurrence_matches_scan_q():
    rng = random.Random(8001)
    for k in range(60):
        mo = rng.randint(1, 12)
        M = 2 * mo + 2 + rng.randint(0, 4)
        if k % 3 == 0:
            seq = [rng.randint(-9, 9) for _ in range(M)]
        else:
            order = rng.randint(1, mo)
            qs = [rng.randint(-3, 3) for _ in range(order)]
            seq = [rng.randint(-3, 3) for _ in range(order)]
            while len(seq) < M:
                seq.append(sum(a * b for a, b in zip(qs, reversed(seq[-order:]))))
        v = detect_recurrence(make_series(Z, seq, M), mo)
        want = oracles.recurrence_scan_q(seq, mo)
        if want is None:
            assert v.kind == "irrational_at_budget"
        else:
            # q entries are (num, den) pairs in lowest terms over Z, with
            # den > 0: Fraction would hide an unreduced pair, so each is
            # checked first
            assert all(gcd(num, den) == 1 and den > 0 for num, den in v.q)
            q = [Fraction(num, den) for num, den in v.q]
            assert (v.kind, v.d, q) == ("rational", want[0], want[1])


def _fp_poly_mul(a, b, p):
    return oracles.pmul(a, b, len(a) + len(b), p)


def _fp_poly_add(a, b, p):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return [(x + y) % p for x, y in zip(a, b)]


@pytest.mark.parametrize("p", [2, 3])
def test_detect_recurrence_rational_functions_annihilate(p):
    # q's entries are (numerator, denominator) pairs over F_p[t], coprime
    # with den monic; with every denominator cleared, each row
    # sum_i q_i a_(n-i) must vanish
    rng = random.Random(8100 + p)
    R = make_ring("fpt_exact", p)
    for _ in range(24):
        mo = rng.randint(1, 6)
        M = 2 * mo + 2 + rng.randint(0, 3)
        order = rng.randint(1, mo)
        digits = lambda: [rng.randrange(p) for _ in range(rng.randint(0, 3))]
        qs = [digits() for _ in range(order)]
        seq = [digits() for _ in range(order)]
        while len(seq) < M:
            acc = []
            for a, b in zip(qs, reversed(seq[-order:])):
                acc = _fp_poly_add(acc, _fp_poly_mul(a, b, p), p)
            seq.append(acc)
        v = detect_recurrence(make_series(R, [tuple(c) for c in seq], M), mo)
        assert v.kind == "rational" and v.d <= order
        assert len(v.q) == v.d + 1 and v.q[0] == ((1,), (1,))
        for num, den in v.q:
            assert den and den[-1] == 1
            assert not oracles.fp_gcd_nonconstant(list(num) or [0],
                                                  list(den), p)
        for n in range(v.d, M):
            row = []
            for i, (num, _) in enumerate(v.q):
                term = _fp_poly_mul(list(num), seq[n - i], p)
                for j, (_, den) in enumerate(v.q):
                    if j != i:
                        term = _fp_poly_mul(term, list(den), p)
                row = _fp_poly_add(row, term, p)
            assert not any(row)
