"""Acceptance suite. Nine tests, one per shipped guarantee, all at
exact tolerances: factorization roundtrips, compositional inverses,
resultant route agreement, Hensel valuation doubling, the 600-bit
gap-series bound chain, family certification, the spiral encoder,
and the root-transfer invariant."""

import json
import random
import subprocess
import sys
import time

import pytest

import oracles
from prepkit import (
    comp_inverse,
    compose,
    detect_periodic_01,
    evaluate,
    hadamard_check,
    make_poly,
    make_ring,
    make_series,
    prepare,
    resultant,
    strong_factor,
    tdegree_check,
)
from prepkit.h10 import (
    FPOracle,
    GapGrowthEvidence,
    Inconclusive,
    LazyBP,
    RationalCertified,
    decision_probe,
    parse_dio_inline,
    theta,
)
from prepkit.padic_analysis import (
    VERDICT_CERTIFIED,
    VERDICT_SHARED,
    bound_check_prime,
    certify_family,
    family_margin,
    gap_linear_factor,
    hensel_lift,
    reference_spec,
    small_root_of_gap,
)

Z = make_ring("z")


def _random_series(rng, ring, m, nmax):
    """Window with forced reduction index <= nmax."""
    n = rng.randrange(nmax + 1)
    pi = ring.uniformizer()
    coeffs = []
    for i in range(m):
        c = ring.from_int(rng.randrange(-200, 200))
        if i < n:
            c = ring.mul(pi, c)
        elif i == n:
            c = ring.add(ring.mul(pi, c), ring.one())
        coeffs.append(c)
    return make_series(ring, coeffs, m)


@pytest.fixture(scope="module")
def ref600():
    """Reference gap data at 600 bits: the small root, the dense
    window, the linear Weierstrass factorization, and the build time."""
    t0 = time.time()
    spec = reference_spec("zero")
    lam = small_root_of_gap(spec, 600)
    ring = make_ring("zp", 2, 600)
    dense = [ring.zero()] * 600
    for e, c in spec.sparse_terms_upto(599):
        dense[e] = ring.add(dense[e], ring.from_int(c))
    f600 = make_series(ring, dense, 600)
    wf = gap_linear_factor(spec, 600)
    return {"spec": spec, "lam": lam, "ring": ring, "f": f600,
            "factorizations": [wf], "build_s": time.time() - t0}


def test_criterion_1_weierstrass_roundtrip(reference):
    ring5 = make_ring("zp", 5, 12)
    ringt = make_ring("fpt", 3, 10)
    ring2 = make_ring("zmodpk", 2, 6)
    rng = random.Random(2026)
    for ring in (ring5, ringt, ring2):
        for _ in range(500):
            f = _random_series(rng, ring, 40, 5)
            wf = reference(prepare, f)
            assert wf.n <= 5
            assert wf.verify(f)
            other = prepare(f)
            assert other.P == wf.P
            assert other.U.coeffs == wf.U.coeffs
            assert (other.v, other.n) == (wf.v, wf.n)
    R = make_ring("zp", 5, 3)
    g = prepare(make_series(R, [5, 1, 1], 3))
    assert g.P == (30, 1)


def test_criterion_2_strong_factorization(reference):
    R8 = make_ring("zmodpk", 2, 3)
    f = make_series(R8, [4, 2, 0, 0, 0], 5)
    wf = strong_factor(f)
    assert (wf.v, wf.n) == (1, 1)
    assert wf.P == (2, 1)
    assert wf.U.coeffs == (1, 0, 0, 0, 0)
    assert wf.verify(f)
    rng = random.Random(2027)
    for _ in range(500):
        p = rng.choice([2, 3, 5])
        k = rng.randrange(2, 7)
        ring = make_ring("zmodpk", p, k)
        v = rng.randrange(k)
        base = _random_series(rng, ring, 12, 4)
        pv = ring.canon(p ** v)
        g = make_series(ring, [ring.mul(pv, c) for c in base.coeffs], 12)
        wf = strong_factor(g)
        assert wf.v == v
        assert wf.verify(g)
        ref = reference(strong_factor, g)
        assert (ref.v, ref.n, ref.P) == (wf.v, wf.n, wf.P)
        assert ref.U.coeffs == wf.U.coeffs


def test_criterion_3_compositional_inverse():
    golden = comp_inverse(make_series(Z, [0, 1, 1, 0, 0, 0, 0], 7))
    assert golden.coeffs == (0, 1, -1, 2, -5, 14, -42)
    F7 = make_ring("zp", 7, 1)
    rng = random.Random(2028)
    for ring, hi in ((Z, 10), (F7, 7)):
        x = make_series(ring, [ring.zero(), ring.one()] + [ring.zero()] * 62,
                        64)
        lo = -10 if ring.is_exact else 0
        for _ in range(200):
            coeffs = [0, 1] + [rng.randrange(lo, hi + 1) for _ in range(62)]
            f = make_series(ring, coeffs, 64)
            g = comp_inverse(f)
            assert compose(f, g).coeffs == x.coeffs
            assert compose(g, f).coeffs == x.coeffs


def _exhaustive_pairs(p):
    polys = []
    for code in range(1, p ** 4):
        c = []
        v = code
        for _ in range(4):
            c.append(v % p)
            v //= p
        polys.append(c)
    return polys


def test_criterion_4_resultant_routes():
    assert resultant(make_poly(Z, [1, 0, 1]), make_poly(Z, [-1, 1])) == 2
    for p in (2, 3, 5):
        polys = _exhaustive_pairs(p)
        pairs = 0
        for fc in polys:
            fp = make_poly(Z, fc)
            for gc in polys:
                if oracles.fp_deg(fc) == 0 and oracles.fp_deg(gc) == 0:
                    continue
                pairs += 1
                det = resultant(fp, make_poly(Z, gc)) % p
                rr = oracles.res_roots_fp(fc, gc, p)
                assert det == rr
                assert (rr == 0) == oracles.fp_gcd_nonconstant(fc, gc, p)
        assert pairs == {2: 224, 3: 6396, 5: 389360}[p]
    rng = random.Random(2029)
    for _ in range(1000):
        f = make_poly(Z, [rng.randrange(-50, 51) for _ in range(3)] + [1])
        g = make_poly(Z, [rng.randrange(-50, 51) for _ in range(2)] + [1])
        rep = hadamard_check(f, g)
        assert rep.bound_ok
        assert rep.lhs == rep.B * rep.B
    for _ in range(1000):
        p = rng.choice([2, 3])
        E = make_ring("fpt_exact", p)

        def rand_c():
            return tuple(rng.randrange(p) for _ in range(rng.randrange(1, 4)))

        f = make_poly(E, [rand_c() for _ in range(rng.randrange(1, 4))]
                      + [(1,)])
        g = make_poly(E, [rand_c() for _ in range(rng.randrange(1, 4))]
                      + [(1,)])
        assert tdegree_check(f, g).bound_ok


def test_criterion_5_hensel_lifting():
    R = make_ring("zp", 5, 3)
    Z5 = make_ring("z", 5)
    root = hensel_lift(make_poly(Z5, [-6, 0, 1]), 1, 3, ring=R)
    assert root == 16
    rng = random.Random(2030)
    for _ in range(100):
        p = rng.choice([3, 5, 7])
        K = rng.randrange(4, 9)
        ring = make_ring("zp", p, K)
        Zp = make_ring("z", p)
        a = rng.randrange(1, p)
        b = rng.randrange(p)
        while (a + b) % p == 0 or (a - b) % p == 0:
            b = rng.randrange(p)
        c = rng.randrange(1, p)
        f = make_poly(Zp, [a * b + p * p * c, -(a + b), 1])
        lifted, trace = hensel_lift(f, a, K, ring=ring, with_trace=True)
        vals = []
        for x in trace:
            fv = ring.canon(f.eval(x, ring=ring))
            vals.append(K if ring.is_zero(fv) else ring.val(fv))
        for i in range(len(vals) - 1):
            assert vals[i + 1] >= min(2 * vals[i], K)
        assert ring.is_zero(ring.canon(f.eval(lifted, ring=ring)))


def test_criterion_6_gap_bound_chain(ref600, reference):
    t0 = time.time()
    spec, lam, ring = ref600["spec"], ref600["lam"], ref600["ring"]
    assert lam % 4 == 2
    assert lam % (1 << 20) == 1007706
    # root at full precision: the window evaluation vanishes mod 2^600
    assert ring.is_zero(evaluate(ref600["f"], lam, 600))
    rep1 = bound_check_prime(spec, lam, 1, ring)
    assert rep1.phi_val == 16 == rep1.lower
    assert rep1.equality
    rep2 = bound_check_prime(spec, lam, 2, ring)
    assert rep2.phi_val == 512 == rep2.lower
    assert rep2.equality
    wf = ref600["factorizations"][0]
    assert wf.verify(ref600["f"])
    assert wf.P == (ring.canon(-lam), 1)
    # uniqueness on the short window: the lifting, the contraction and the
    # n = 1 special path agree
    ring40 = make_ring("zp", 2, 40)
    dense40 = [ring40.zero()] * 40
    for e, c in spec.sparse_terms_upto(39):
        dense40[e] = ring40.add(dense40[e], ring40.from_int(c))
    f40 = make_series(ring40, dense40, 40)
    wfd = reference(prepare, f40)
    wfl = prepare(f40)
    assert wfd.P == wfl.P == gap_linear_factor(spec, 40).P
    assert wfd.U.coeffs == wfl.U.coeffs
    assert ref600["build_s"] + (time.time() - t0) < 5.0


def test_criterion_7_transcendence_certificates(ref600):
    spec, lam, ring = ref600["spec"], ref600["lam"], ref600["ring"]
    s = certify_family(spec, lam, 2, 5, 2, ring)
    assert s.total == 660
    assert s.n_certified + s.n_shared == s.total
    assert s.n_inconclusive == 0
    assert s.route == "per_candidate"
    # every conclusive candidate is crossvalidated against v2(P(lam))
    assert s.pl_checked == s.n_certified == 660
    assert s.max_pl_val == 17 and s.max_B_val == 34
    assert s.max_pl_val <= s.max_B_val < 600
    for rep in s.samples:
        assert rep.verdict in (VERDICT_CERTIFIED, VERDICT_SHARED)
        if rep.verdict == VERDICT_CERTIFIED:
            assert rep.p_at_lam_val is not None
            assert rep.p_at_lam_val < 600
    assert not family_margin(spec, 2, 5, 0).flipped
    assert family_margin(spec, 2, 5, 2).flipped
    assert family_margin(spec, 2, 5, 3).flipped

    specp = reference_spec("p")
    ringp = make_ring("fpt", 2, 600)
    lamp = small_root_of_gap(specp, 600)
    sp = certify_family(specp, lamp, 2, 5, 2, ringp)
    assert sp.route == "structural"
    assert sp.total == 262080
    assert sp.n_certified == sp.total
    assert sp.n_shared == 0 and sp.n_inconclusive == 0
    # v_t(P(lam)) bounded below 600 across the whole family
    assert sp.pl_checked == sp.total
    assert sp.max_pl_val < 600
    for rep in sp.samples:
        assert rep.verdict == VERDICT_CERTIFIED
        assert rep.p_at_lam_val is not None and rep.p_at_lam_val < 600
    assert not family_margin(specp, 2, 5, 0).flipped
    assert family_margin(specp, 2, 5, 2).flipped
    assert family_margin(specp, 2, 5, 3).flipped


SPIRAL_CELLS = [
    (0, 0), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1),
    (1, -1), (2, -1), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (-1, 2),
    (-2, 2), (-2, 1), (-2, 0), (-2, -1), (-2, -2), (-1, -2), (0, -2),
    (1, -2), (2, -2),
]


def test_criterion_8_h10_encoder():
    assert [theta(n, 2) for n in range(25)] == SPIRAL_CELLS
    for d, radius in ((1, 4999), (2, 49), (3, 3)):
        seen = {theta(n, d) for n in range(10 ** 4)}
        assert len(seen) == 10 ** 4
        box = [()]
        for _ in range(d):
            box = [pt + (c,) for pt in box
                   for c in range(-radius, radius + 1)]
        assert all(pt in seen for pt in box)
    bp = LazyBP(parse_dio_inline("x^2+1"), 10 ** 6)
    assert bp.value(2) == 2 + 2 ** 800
    v = decision_probe(parse_dio_inline("x-3"))
    assert isinstance(v, RationalCertified)
    assert (v.zero_index, v.point) == (5, (3,))
    orc = FPOracle(parse_dio_inline("x-3"), 2, 10 ** 6)
    tail = [orc.coeff(i) for i in range(1, 41)]
    verdict = detect_periodic_01(make_ring("z"), tail)
    assert verdict.is_rational and verdict.d == 1
    assert isinstance(decision_probe(parse_dio_inline("x^2+1")),
                      GapGrowthEvidence)
    assert isinstance(decision_probe(parse_dio_inline("x-1000")),
                      Inconclusive)
    codes = []
    for expr in ("x-3", "x^2+1", "x-1000"):
        res = subprocess.run(
            [sys.executable, "-m", "prepkit", "h10", "probe", expr],
            capture_output=True, text=True)
        json.loads(res.stdout)
        codes.append(res.returncode)
    assert codes == [0, 0, 2]


def test_criterion_9_root_transfer(ref600):
    lam, ring, f600 = ref600["lam"], ref600["ring"], ref600["f"]
    assert ref600["factorizations"]
    # general preparation at K = 600 agrees with the n = 1 special path
    general = prepare(f600)
    assert general.P == gap_linear_factor(ref600["spec"], 600).P
    assert general.verify(f600)
    for wf in ref600["factorizations"] + [general]:
        assert wf.v == 0 and wf.n == 1
        # unit cofactor contributes valuation zero, so the root carries
        # the full 600 bits through P
        assert ring.val(wf.U.coeffs[0]) == 0
        p_at = ring.add(wf.P[0], ring.mul(wf.P[1], lam))
        assert ring.is_zero(p_at)
        u_at = evaluate(wf.U, lam, 600)
        assert ring.val(u_at) == 0
        assert ring.is_zero(evaluate(f600, lam, 600))
        mu = ring.canon(lam + (1 << 300))
        p_mu = ring.add(wf.P[0], ring.mul(wf.P[1], mu))
        assert ring.val(p_mu) == 300
        f_mu = evaluate(f600, mu, 600)
        assert ring.val(f_mu) == 300
        assert ring.val(evaluate(wf.U, mu, 600)) == 0
        assert ring.val(f_mu) == ring.val(p_mu) + ring.val(
            evaluate(wf.U, mu, 600))
