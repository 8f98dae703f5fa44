"""Diophantine encoding layer: the integer-point walk, the doubly
exponential exponent sequence, budgeted encoding, and the decision
probe."""

import itertools
import random

import pytest

import oracles
from prepkit import (DioPoly, FPOracle, GapGrowthEvidence, Inconclusive,
                     LazyBP, NonPrimeBase, OverBudget, RationalCertified,
                     cantor_unpair, decision_probe, detect_periodic_01,
                     exponent_E, make_dio, parse_dio_inline, parse_dio_text,
                     theta, zigzag)


def test_make_dio_canonicalizes():
    P = make_dio(2, [((1, 0), 2), ((0, 0), -1), ((1, 0), 3)])
    assert P.d == 2
    assert P.terms == (((0, 0), -1), ((1, 0), 5))
    assert P.eval((2, 9)) == 9
    assert make_dio(1, [((1,), 0)]).terms == ()
    with pytest.raises(ValueError, match="3 coordinates, polynomial has 2"):
        P.eval((1, 2, 3))
    with pytest.raises(ValueError):
        make_dio(1, [((1, 2), 1)])


def test_parse_inline_goldens():
    P = parse_dio_inline("x^2+1")
    assert P.d == 1 and P.terms == (((0,), 1), ((2,), 1))
    Q = parse_dio_inline("x-3")
    assert Q.eval((3,)) == 0
    R = parse_dio_inline("x1^2+x2^2-2*x1*x2")
    assert R.d == 2
    assert R.eval((7, 7)) == 0
    S = parse_dio_inline("-x^3+2x")
    assert S.eval((2,)) == -4
    T = parse_dio_inline("x*x")
    assert T.terms == (((2,), 1),)


def test_parse_inline_rejections():
    with pytest.raises(ValueError):
        parse_dio_inline("x+x1")  # bare and indexed variables mixed
    with pytest.raises(ValueError):
        parse_dio_inline("x4+1")  # inline grammar stops at three vars
    with pytest.raises(ValueError):
        parse_dio_inline("x^")
    with pytest.raises(ValueError):
        parse_dio_inline("")


def test_parse_text_format():
    P = parse_dio_text("# squares\n1:2,0\n1:0,2\n-4:0,0\n")
    assert P.d == 2
    assert P.eval((2, 0)) == 0
    with pytest.raises(ValueError):
        parse_dio_text("1:2,0\n1:0\n")  # inconsistent dimension


def test_zigzag_and_spiral_goldens():
    assert [zigzag(i) for i in range(6)] == [0, 1, -1, 2, -2, 3]
    want = oracles.spiral(10 ** 4 + 1)
    assert [theta(n, 2) for n in range(10 ** 4 + 1)] == want
    far = 10 ** 6 + 2024
    walk = oracles._spiral_walk()
    assert theta(far, 2) == next(itertools.islice(walk, far, None))
    assert theta(4, 2) == (-1, 1)
    assert theta(9, 2) == (2, -1)


def test_cantor_unpair_roundtrip():
    for z in range(200):
        a, b = cantor_unpair(z)
        assert (a + b) * (a + b + 1) // 2 + b == z
        assert a >= 0 and b >= 0


def test_theta_validation():
    with pytest.raises(ValueError):
        theta(-1, 2)
    with pytest.raises(ValueError):
        theta(0, 0)


def test_theta_matches_oracle_all_dims():
    for d in (1, 2, 3):
        for n in range(300):
            assert theta(n, d) == oracles.theta(n, d)


def test_theta_injective_and_box_surjective():
    # windows of 10^4 + 1 points cover full sup-norm boxes
    radii = {1: 5000, 2: 49, 3: 3}
    for d, r in radii.items():
        seen = set()
        for n in range(10 ** 4 + 1):
            pt = theta(n, d)
            assert pt not in seen
            seen.add(pt)
        box = itertools.product(range(-r, r + 1), repeat=d)
        assert all(tuple(c) in seen for c in box)


def test_exponent_goldens():
    P = parse_dio_inline("x^2+1")
    assert [exponent_E(P, n) for n in (1, 2, 3)] == [40, 800, 520000]
    Q = parse_dio_inline("x-3")
    assert (exponent_E(Q, 1), exponent_E(Q, 2)) == (1800, 489600)
    assert exponent_E(Q, 5) == 0  # theta(5, 1) = (3,) is a zero
    assert exponent_E(Q, 9) == 0


def test_exponent_zero_iff_root_hit():
    rng = random.Random(3)
    for _ in range(40):
        a = rng.randrange(-8, 9)
        P = make_dio(1, [((1,), 1), ((0,), -a)])
        hit = next(i for i in range(40) if zigzag(i) == a)
        for n in range(12):
            assert (exponent_E(P, n) == 0) == (n >= hit)


def test_lazy_bp_golden_x2p1():
    P = parse_dio_inline("x^2+1")
    bp = LazyBP(P, 10 ** 6)
    assert bp.value(0) == 1
    assert bp.value(1) == 2
    assert bp.value(2) == 2 + 2 ** 800
    over = bp.value(3)
    assert isinstance(over, OverBudget)
    assert (over.n, over.predicted_bits) == (3, 520000 * 800)
    assert bp.value(7) is over
    values, o2 = bp.exact_prefix()
    assert values == [1, 2, 2 + 2 ** 800] and o2 is over


def test_lazy_bp_budget_cut_on_exact_size():
    P = parse_dio_inline("x-3")
    bp = LazyBP(P, 10 ** 6)
    v2 = bp.value(2)
    assert v2.bit_length() == 489601
    over = bp.value(3)
    assert (over.n, over.predicted_bits) == (3, 979200 * 489600)


def test_lazy_bp_zero_polynomial_increments():
    P = parse_dio_inline("x")
    bp = LazyBP(P, 10 ** 6)
    assert [bp.value(i) for i in range(9)] == list(range(1, 10))


def test_bp_matches_oracle_random():
    rng = random.Random(17)
    for _ in range(20):
        c0 = rng.randrange(-5, 6)
        c1 = rng.randrange(1, 4)
        P = make_dio(1, [((0,), c0), ((1,), c1)])
        want_vals, want_over, want_pred = oracles.bp_sequence(
            lambda v, c0=c0, c1=c1: c0 + c1 * v[0], 1, 6, 10 ** 4)
        bp = LazyBP(P, 10 ** 4)
        got = bp.value(6)
        vals, over = bp.exact_prefix()
        assert vals == want_vals
        if want_over is None:
            assert over is None
        else:
            assert (over.n, over.predicted_bits) == (want_over, want_pred)


def test_fp_oracle_goldens():
    P = parse_dio_inline("x^2+1")
    orc = FPOracle(P, 2, 10 ** 6)
    s = orc.series(12)
    assert s.window(12) == [2, 0, 1] + [0] * 9
    assert orc.coeff(10 ** 6) == 0
    assert orc.underdetermined_beyond is None
    assert orc.coeff(2 ** 801) == 0
    ub = orc.underdetermined_beyond
    assert ub is not None
    assert (ub.n, ub.floor_bits) == (3, 520000 * 800 - 1)
    with pytest.raises(NonPrimeBase):
        FPOracle(P, 4, 10 ** 6)


def test_fp_oracle_membership():
    P = parse_dio_inline("x^2+1")
    orc = FPOracle(P, 2, 10 ** 6)
    b2 = 2 + 2 ** 800
    assert orc.coeff(b2) == 1
    assert orc.coeff(b2 - 1) == 0
    assert orc.coeff(2) == 1
    assert orc.coeff(1) == 0  # the seed index is not an encoded term


def test_probe_rational_certified():
    v = decision_probe(parse_dio_inline("x-3"))
    assert isinstance(v, RationalCertified)
    assert (v.zero_index, v.point) == (5, (3,))


def test_probe_gap_growth_evidence():
    v = decision_probe(parse_dio_inline("x^2+1"))
    assert isinstance(v, GapGrowthEvidence)
    assert v.first_n == 0
    assert len(v.samples) == 9
    for n, E in v.samples:
        assert E >= 2 ** (n + 1)
    assert "radius" in v.zero_free_reason


def test_probe_sign_definite_reason():
    v = decision_probe(parse_dio_inline("x1^2+x2^2+1"))
    assert isinstance(v, GapGrowthEvidence)
    assert "sign-definite" in v.zero_free_reason


def test_probe_inconclusive_far_zero():
    v = decision_probe(parse_dio_inline("x-1000"))
    assert isinstance(v, Inconclusive)
    assert v.points == 100
    # a wider scan settles it
    v2 = decision_probe(parse_dio_inline("x-1000"), points=2003)
    assert isinstance(v2, RationalCertified)
    assert v2.point == (1000,)


def test_probe_scan_is_inclusive():
    # theta(100, 1) = (-50,) is the last scanned point
    v = decision_probe(parse_dio_inline("x+50"))
    assert isinstance(v, RationalCertified)
    assert (v.zero_index, v.point) == (100, (-50,))


def test_encoded_tail_period_one():
    P = parse_dio_inline("x-3")
    s = FPOracle(P, 2, 10 ** 6).series(40)
    verdict = detect_periodic_01(s.ring, s.window(40)[1:])
    assert verdict.kind == "rational"
    assert verdict.d == 1


def test_dichotomy_shapes():
    # no integer zero: gaps keep doubling, so the window stays sparse
    P = parse_dio_inline("x^2+1")
    s = FPOracle(P, 2, 10 ** 6).series(64)
    ones = [i for i in range(64) if s.coeff(i) == 1]
    assert ones == [2]
    # integer zero: after the hit the sequence steps by one, so the
    # tail of the encoded set becomes an arithmetic run
    hit = parse_dio_inline("x")
    vals, over_idx, _ = oracles.bp_sequence(lambda v: v[0], 1, 12, 10 ** 6)
    assert vals == list(range(1, 14))
