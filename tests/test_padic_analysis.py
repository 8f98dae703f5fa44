"""Gap series over local rings: small roots, truncation valuations,
non-root certificates with margins, family sweeps, Hensel lifting, and
the one-sweep linear factorization."""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import oracles
from prepkit import (BudgetExceeded, CompositeModulus, DegreeAboveOne,
                     GapSpec, HenselConditionFails, PointNotSmall,
                     PrecisionTooLow, SpecViolation, bound_check_prime,
                     build_gap_series, certify_family, certify_not_root,
                     enumerate_family, evaluate, family_margin,
                     gap_linear_factor, hensel_lift, make_poly, make_ring,
                     make_series, phi_truncation, prepare,
                     resultant_generic, small_root_of_gap)
from prepkit.padic_analysis import (VERDICT_CERTIFIED, VERDICT_INCONCLUSIVE,
                                    VERDICT_SHARED, reference_spec,
                                    sparse_terms_upto)
from prepkit.rings import mask_from_digits

REF0 = reference_spec("zero")
REFP = reference_spec("p")
C3 = GapSpec("p", 3, {"kind": "const_after", "a0": (0, 2), "rest": (1, 1)},
             {"kind": "pow2_nsq"}, Fraction(2), Fraction(2))
Z2 = make_ring("z", 2)


def margin_products(rep):
    lhs = 1
    for b, e in rep.lhs_factors:
        lhs *= int(b) ** int(e)
    rhs = 1
    for b, e in rep.rhs_factors:
        rhs *= int(b) ** int(e)
    return lhs, rhs


# ----------------------------------------------------------------- specs

def test_spec_validation():
    with pytest.raises(ValueError):
        GapSpec("two", 2, REF0.a_rule, REF0.b_rule, Fraction(2), Fraction(2))
    with pytest.raises(CompositeModulus):
        GapSpec("zero", 4, REF0.a_rule, REF0.b_rule, Fraction(2), Fraction(2))
    with pytest.raises(ValueError):
        GapSpec("zero", 2, REF0.a_rule, REF0.b_rule, Fraction(1), Fraction(2))
    with pytest.raises(ValueError):
        GapSpec("zero", 2, REF0.a_rule, REF0.b_rule, Fraction(2), Fraction(2),
                budget=0)
    with pytest.raises(ValueError):
        GapSpec("zero", 2, REF0.a_rule, REF0.b_rule, Fraction(2), Fraction(2),
                witness=0)


def test_reference_specs():
    assert (REF0.characteristic, REF0.p, REF0.budget) == ("zero", 2, 65536)
    assert REF0.a_rule == {"kind": "const_after", "a0": 2, "rest": 1}
    assert REF0.b_rule == {"kind": "pow2_nsq"}
    assert REFP.a_rule["a0"] == (0, 1)
    assert REFP.a_rule["rest"] == (1,)


def test_spec_violations_surface_lazily():
    bad_b = GapSpec("zero", 2, REF0.a_rule,
                    {"kind": "explicit", "values": [2, 4]},
                    Fraction(2), Fraction(2))
    with pytest.raises(SpecViolation) as ei:
        build_gap_series(bad_b).coeff(0)
    assert ei.value.data["condition"] == "b"

    unit_a0 = GapSpec("zero", 2,
                      {"kind": "const_after", "a0": 3, "rest": 1},
                      {"kind": "pow2_nsq"}, Fraction(2), Fraction(2))
    with pytest.raises(SpecViolation) as ei:
        build_gap_series(unit_a0).coeff(0)
    assert ei.value.data["condition"] == 1

    bad_witness = GapSpec("zero", 2,
                          {"kind": "const_after", "a0": 2, "rest": 6},
                          {"kind": "pow2_nsq"}, Fraction(2), Fraction(2))
    with pytest.raises(SpecViolation) as ei:
        build_gap_series(bad_witness).coeff(0)
    assert ei.value.data["condition"] == 2

    growth = GapSpec("zero", 2,
                     {"kind": "explicit", "values": [2, 17], "rest": 1},
                     {"kind": "pow2_nsq"}, Fraction(2), Fraction(2))
    with pytest.raises(SpecViolation) as ei:
        build_gap_series(growth).window(3)
    assert ei.value.data["condition"] == 3 and ei.value.data["index"] == 1

    growth_p = GapSpec("p", 2,
                       {"kind": "explicit", "values": [(0, 1), (1, 0, 0, 0, 0, 1)],
                        "rest": (1,)},
                       {"kind": "pow2_nsq"}, Fraction(2), Fraction(2))
    with pytest.raises(SpecViolation) as ei:
        build_gap_series(growth_p).window(3)
    assert ei.value.data["condition"] == 3


def test_gap_series_window():
    s = build_gap_series(REF0)
    got = s.window(20)
    want = [0] * 20
    want[0], want[1], want[2], want[16] = 2, 1, 1, 1
    assert got == want
    sp = build_gap_series(REFP)
    w = sp.window(4)
    assert w[0] == (0, 1) and w[1] == (1,) and w[2] == (1,)
    assert not any(w[3])


def test_phi_truncation():
    P1 = phi_truncation(REF0, 1)
    assert [int(c) for c in P1.coeffs] == [2, 1, 1]
    P2 = phi_truncation(REF0, 2)
    assert P2.degree == 16
    assert int(P2.coeff(16)) == 1 and int(P2.coeff(3)) == 0
    with pytest.raises(BudgetExceeded) as ei:
        phi_truncation(REF0, 5)
    assert ei.value.data["needed"] == 2 ** 25
    assert ei.value.data["budget"] == 65536
    # an explicit budget argument overrides the stored one
    assert phi_truncation(REF0, 3, budget=512).degree == 512


def test_small_root_goldens():
    lam = small_root_of_gap(REF0, 20)
    assert lam == 1007706
    assert lam % 4 == 2
    lam600 = small_root_of_gap(REF0, 600)
    assert lam600 % (1 << 20) == 1007706
    lt = small_root_of_gap(REFP, 64)
    assert mask_from_digits(lt) == oracles.gap_root_t(64)


@pytest.mark.parametrize("K", [1, 2, 600, 4000])
def test_small_root_matches_oracles(K):
    # at K = 1 the root is 0 mod pi: no valuation is visible yet
    assert small_root_of_gap(REF0, K) == oracles.gap_root_2adic(K)
    assert mask_from_digits(small_root_of_gap(REFP, K)) == \
        oracles.gap_root_t(K)


def test_small_root_needs_unit_slope():
    spec = GapSpec("zero", 2,
                   {"kind": "explicit", "values": [2, 2], "rest": 1},
                   {"kind": "pow2_nsq"}, Fraction(2), Fraction(2), witness=2)
    with pytest.raises(DegreeAboveOne) as ei:
        small_root_of_gap(spec, 16)
    assert ei.value.data["reduction_index"] == 16


# ----------------------------------------------------------------- hensel

def test_hensel_golden_sqrt6():
    R = make_ring("zp", 5, 3)
    f = make_poly(make_ring("z", 5), [-6, 0, 1])
    root, trace = hensel_lift(f, 1, 3, ring=R, with_trace=True)
    assert root == 16
    assert trace == [1, 66, 16]
    assert pow(16, 2, 125) == 6


def test_hensel_linear_and_failure():
    R = make_ring("zp", 5, 3)
    Z5 = make_ring("z", 5)
    assert hensel_lift(make_poly(Z5, [-7, 1]), 2, 3, ring=R) == 7
    with pytest.raises(HenselConditionFails) as ei:
        hensel_lift(make_poly(Z5, [-2, 0, 1]), 1, 3, ring=R)
    assert ei.value.data["vf"] == 0


def test_hensel_series_route():
    # series evaluation needs a small point, so lift the gap root; the
    # window must exceed the target precision by one derivative slot
    ring, f = window_series(REF0, 24)
    lam = hensel_lift(f, 2, 20)
    assert lam == small_root_of_gap(REF0, 20) == 1007706


def test_hensel_valuation_doubling():
    rng = random.Random(5)
    for _ in range(25):
        p = rng.choice([3, 5, 7])
        K = rng.randrange(4, 9)
        R = make_ring("zp", p, K)
        Zp = make_ring("z", p)
        a = rng.randrange(1, p)  # simple root mod p
        b = rng.randrange(p)
        while (a + b) % p == 0 or (a - b) % p == 0:
            b = rng.randrange(p)
        # f = (x - a)(x - b) + p^2 * c keeps x0 = a liftable with vd = 0
        c = rng.randrange(1, p)
        co = [a * b + p * p * c, -(a + b), 1]
        f = make_poly(Zp, co)
        root, trace = hensel_lift(f, a, K, ring=R, with_trace=True)
        vals = []
        for x in trace:
            fv = R.canon(f.eval(x, ring=R))
            vals.append(K if R.is_zero(fv) else R.val(fv))
        for i in range(len(vals) - 1):
            assert vals[i + 1] >= min(2 * vals[i], K)
        assert R.is_zero(R.canon(f.eval(root, ring=R)))


# ----------------------------------------------------------------- bounds

def test_bound_check_goldens():
    ring = make_ring("zp", 2, 40)
    lam = small_root_of_gap(REF0, 40)
    b0 = bound_check_prime(REF0, lam, 0, ring)
    assert (b0.phi_val, b0.lower, b0.required, b0.equality) == (2, 2, 3, True)
    b1 = bound_check_prime(REF0, lam, 1, ring)
    assert (b1.phi_val, b1.lower, b1.required, b1.lam_val) == (16, 16, 17, 1)
    assert b1.equality


def test_bound_check_char_p():
    ring = make_ring("fpt", 2, 40)
    lam = small_root_of_gap(REFP, 40)
    b1 = bound_check_prime(REFP, lam, 1, ring)
    assert b1.phi_val == 16 and b1.equality


def test_phi_val_matches_oracles():
    lam0 = small_root_of_gap(REF0, 600)
    lamp = small_root_of_gap(REFP, 600)
    for N in (0, 1, 2):
        b0 = bound_check_prime(REF0, lam0, N, make_ring("zp", 2, 600))
        assert b0.phi_val == oracles.phi_val_2adic(lam0, N, 600)
        bp = bound_check_prime(REFP, lamp, N, make_ring("fpt", 2, 600))
        assert bp.phi_val == oracles.phi_val_t(mask_from_digits(lamp), N, 600)


def test_bound_check_precision_guard():
    ring = make_ring("zp", 2, 10)
    lam = small_root_of_gap(REF0, 10)
    with pytest.raises(PrecisionTooLow) as ei:
        bound_check_prime(REF0, lam, 1, ring)
    assert ei.value.data["required"] == 17 and ei.value.data["have"] == 10


def test_bound_check_rejects_unit_point():
    ring = make_ring("zp", 2, 20)
    with pytest.raises(PointNotSmall):
        bound_check_prime(REF0, ring.one(), 1, ring)


# ------------------------------------------------------------ certificates

def test_certify_goldens_char0():
    ring = make_ring("zp", 2, 64)
    lam = small_root_of_gap(REF0, 64)
    x = make_poly(Z2, [0, 1])
    rep = certify_not_root(REF0, lam, x, 1, ring)
    assert rep.verdict == VERDICT_CERTIFIED
    assert (int(rep.B), rep.B_val, rep.phi_val) == (2, 1, 16)
    assert rep.p_at_lam_val == 1

    xm2 = make_poly(Z2, [-2, 1])
    rep2 = certify_not_root(REF0, lam, xm2, 1, ring)
    assert rep2.verdict == VERDICT_CERTIFIED
    assert (int(rep2.B), rep2.B_val) == (8, 3)
    assert rep2.p_at_lam_val <= rep2.B_val

    shared = certify_not_root(REF0, lam, phi_truncation(REF0, 1), 1, ring)
    assert shared.verdict == VERDICT_SHARED
    assert shared.B_val is None and int(shared.B) == 0


def test_certify_inconclusive_when_margin_absent():
    # N = 0 keeps phi_val tiny, so x - 2 cannot be separated yet
    ring = make_ring("zp", 2, 64)
    lam = small_root_of_gap(REF0, 64)
    rep = certify_not_root(REF0, lam, make_poly(Z2, [-2, 1]), 0, ring)
    assert rep.verdict == VERDICT_INCONCLUSIVE


def test_closed_forms_match_generic_resultant():
    rng = random.Random(11)
    ring0 = make_ring("zp", 2, 600)
    lam0 = small_root_of_gap(REF0, 600)
    for N in (1, 2):
        phi = phi_truncation(REF0, N)
        terms = sparse_terms_upto(REF0, phi.degree)
        for _ in range(8):
            deg = rng.choice([1, 2, 3])
            co = [rng.randrange(-9, 10) for _ in range(deg)] + [
                rng.randrange(1, 10)]
            P = make_poly(Z2, co)
            rep = certify_not_root(REF0, lam0, P, N, ring0)
            assert int(rep.B) == resultant_generic(P, phi)
            if deg < 3:
                oracle = (oracles.res_deg1_char0 if deg == 1
                          else oracles.res_deg2_char0)
                assert int(rep.B) == oracle(*co, terms, phi.degree)

    for spec, K in ((REFP, 600), (C3, 600)):
        p = spec.p
        ringp = make_ring("fpt", p, K)
        lamp = small_root_of_gap(spec, K)
        E = make_ring("fpt_exact", p)
        for N in (1, 2):
            phip = phi_truncation(spec, N)
            mterms = [(k, mask_from_digits(a))
                      for k, a in sparse_terms_upto(spec, phip.degree)]
            for _ in range(8):
                deg = rng.choice([1, 2, 3])
                co = [tuple(rng.randrange(p) for _ in range(3))
                      for _ in range(deg)]
                lead = tuple(rng.randrange(p) for _ in range(3))
                while not any(lead):
                    lead = tuple(rng.randrange(p) for _ in range(3))
                P = make_poly(E, co + [lead])
                rep = certify_not_root(spec, lamp, P, N, ringp)
                assert rep.B == resultant_generic(P, phip)
                if p == 2 and deg < 3:
                    oracle = (oracles.res_deg1_char2 if deg == 1
                              else oracles.res_deg2_char2)
                    masks = [mask_from_digits(c) for c in P.coeffs]
                    assert mask_from_digits(rep.B) == oracle(
                        *masks, mterms, phip.degree)


def test_vanishing_tail_head_is_spec_violation(tmp_path):
    # a_2 = 0: the bound at N = 1 needs a nonzero tail head
    spec = GapSpec("zero", 2, {"kind": "explicit", "values": ["2", "1", "0"],
                               "rest": "1"},
                   {"kind": "pow2_nsq"}, Fraction(2), Fraction(2))
    lam = small_root_of_gap(spec, 40)
    with pytest.raises(SpecViolation) as ei:
        bound_check_prime(spec, lam, 1, make_ring("zp", 2, 40))
    assert ei.value.data == {"condition": "tail", "index": 2}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"char": "zero", "p": 2, "b": {"kind": "pow2_nsq"},
         "a": {"kind": "explicit", "values": ["2", "1", "0"], "rest": "1"}}))
    res = subprocess.run([sys.executable, "-O", "-m", "prepkit", "gap",
                          "bound", "--spec", str(path), "--N", "1",
                          "--K", "40"], capture_output=True, text=True)
    assert (res.returncode, res.stdout) == (1, "")
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "SpecViolation"


_GUARD_CODE = """
from prepkit import InvariantViolation, make_poly, make_ring
from prepkit import padic_analysis as pa
ring = make_ring("zp", 2, 64)
spec = pa.reference_spec("zero")
lam = pa.small_root_of_gap(spec, 64)
x = make_poly(make_ring("z", 2), [0, 1])
%s
try:
    %s
except InvariantViolation:
    print("raised")
"""


_HENSEL = ('pa.hensel_lift(make_poly(make_ring("z", 2), [-17, 0, 1]), 1, 12, '
           'ring=make_ring("zp", 2, 12))')


@pytest.mark.parametrize("patch, call", [
    # v(Phi_1(lam)) below the tail bound 16, then above it although the
    # unit tail head forces equality
    ("pa._sparse_eval = lambda view, R, terms, x: R.one()",
     "pa.bound_check_prime(spec, lam, 1, ring)"),
    ("pa._sparse_eval = lambda view, R, terms, x: R.from_int(2 ** 17)",
     "pa.bound_check_prime(spec, lam, 1, ring)"),
    # a certified candidate (v(B) = 1 < 16) whose P(lam) vanishes, then
    # one whose P(lam) has valuation above v(B)
    ("pa._p_at_lam_val = lambda P, x, R: None",
     "pa.certify_not_root(spec, lam, x, 1, ring)"),
    ("pa._p_at_lam_val = lambda P, x, R: 10 ** 6",
     "pa.certify_not_root(spec, lam, x, 1, ring)"),
    # the root lift: a derivative of valuation >= 1, an evaluation that
    # never vanishes, and f(x) = x - 1, whose lift converges to a unit
    ("pa._sparse_eval = lambda view, R, terms, x: R.from_int(2)",
     "pa.small_root_of_gap(spec, 64)"),
    ("pa._sparse_eval = lambda view, R, terms, x: R.one()",
     "pa.small_root_of_gap(spec, 64)"),
    ("pa._sparse_eval = lambda view, R, terms, x: "
     "R.sub(x, R.one()) if terms[0][1] == 2 else R.one()",
     "pa.small_root_of_gap(spec, 64)"),
    # the Newton step on x^2 - 17 from 1: a derivative whose valuation
    # exceeds v(f(x)) = 4, an f(x) that never gains valuation, and one
    # that gains a unit of valuation per step without ever vanishing
    ("pa.val_unit_decompose = lambda R, d: (20, R.one())", _HENSEL),
    ("pa._PolyFunc.eval = lambda self, R, x: R.from_int(8)", _HENSEL),
    ("pa._PolyFunc.eval = lambda self, R, x, "
     "c=__import__('itertools').count(3): 2 ** next(c) + 2 ** 200", _HENSEL),
    # the gap cofactor at K = 8, f = 2 + x + x^2 there: lam = 1 makes
    # U_0 = 2 a non-unit, and lam = 0 breaks (x - lam) * U = f at x^0
    ("pa.small_root_of_gap = lambda spec, K: 1",
     "pa.gap_linear_factor(spec, 8)"),
    ("pa.small_root_of_gap = lambda spec, K: 0",
     "pa.gap_linear_factor(spec, 8)"),
    # past its bit budget the oracle's zeros are sound only below the
    # size floor, 799 bits here
    ("from prepkit.h10 import FPOracle, parse_dio_inline",
     "FPOracle(parse_dio_inline('x^2+1'), 2, 64).coeff(2 ** 900)"),
], ids=["tail_below_bound", "tail_above_equality", "certified_vanishes",
        "root_above_resultant", "root_derivative_not_unit",
        "root_lift_diverges", "root_is_a_unit", "hensel_step_valuation",
        "hensel_no_progress", "hensel_diverges", "cofactor_not_unit",
        "cofactor_identity", "oracle_floor"])
def test_certificate_guards_survive_optimize_flag(patch, call):
    res = subprocess.run([sys.executable, "-O", "-c",
                          _GUARD_CODE % (patch, call)],
                         capture_output=True, text=True)
    assert (res.returncode, res.stdout) == (0, "raised\n"), res.stderr


def test_certify_rejects_constant_candidates():
    ring = make_ring("zp", 2, 64)
    lam = small_root_of_gap(REF0, 64)
    with pytest.raises(ValueError):
        certify_not_root(REF0, lam, make_poly(Z2, [5]), 1, ring)


# ---------------------------------------------------------------- margins

def test_family_margin_char0_matches_oracle():
    for N in range(4):
        rep = family_margin(REF0, 2, 5, N)
        lhs, rhs = margin_products(rep)
        olhs, orhs, oflip = oracles.margin_char0(2, 1, 2 ** (N * N),
                                                 2 ** ((N + 1) ** 2),
                                                 2, 1, 2, 1, 75)
        assert (lhs, rhs, rep.flipped) == (olhs, orhs, oflip)
    assert not family_margin(REF0, 2, 5, 0).flipped
    assert family_margin(REF0, 2, 5, 2).flipped
    assert family_margin(REF0, 2, 5, 3).flipped


def test_family_margin_charp_matches_oracle():
    for N in range(4):
        rep = family_margin(REFP, 2, 5, N)
        lhs, rhs = margin_products(rep)
        want = [(2, 7, False), (16, 12, True), (512, 82, True),
                (65536, 2562, True)][N]
        assert (lhs, rhs, rep.flipped) == want
        olhs, orhs, oflip = oracles.margin_charp(1, 2 ** (N * N),
                                                 2 ** ((N + 1) ** 2), 5, 1, 2)
        assert (lhs, rhs, rep.flipped) == (olhs, orhs, oflip)


# ----------------------------------------------------------------- family

def test_enumerate_family_sizes():
    assert len(enumerate_family(REF0, 1, 3)) == 21
    assert len(enumerate_family(REF0, 2, 5)) == 660
    assert len(enumerate_family(REFP, 2, 5)) == 262080
    assert enumerate_family(REF0, 0, 5) == []
    # c0 in F_3, c1 in F_3^*; then digits of t-degree <= 1
    assert len(enumerate_family(C3, 1, 0)) == 6
    assert len(enumerate_family(C3, 1, 1)) == 72


def test_enumerate_family_order_is_deterministic():
    fam = enumerate_family(REF0, 1, 2)
    assert fam[0] == (-2, 1)
    assert fam == enumerate_family(REF0, 1, 2)
    famp = enumerate_family(REFP, 1, 1)
    assert famp[0] == ((), (1,))
    assert len(famp) == 4 * 3


def test_certify_family_char0_small():
    ring = make_ring("zp", 2, 64)
    lam = small_root_of_gap(REF0, 64)
    s = certify_family(REF0, lam, 1, 3, 1, ring)
    assert s.total == 21
    assert s.n_certified + s.n_shared == 21
    assert s.n_inconclusive == 0
    assert s.route == "per_candidate"
    assert s.pl_checked == 21
    assert s.max_pl_val <= s.max_B_val


def test_certify_family_charp_structural():
    ring = make_ring("fpt", 2, 600)
    lam = small_root_of_gap(REFP, 600)
    s = certify_family(REFP, lam, 2, 3, 2, ring)
    assert s.route == "structural"
    assert s.total == 15 * 16 + 15 * 16 * 16
    assert s.n_certified == s.total
    assert s.n_inconclusive == 0
    assert len(s.samples) == 16
    for rep in s.samples:
        assert rep.verdict == VERDICT_CERTIFIED


def test_certify_family_charp_fallback_route():
    # b(1) = 2 is not above the degree cap, so the structural shortcut
    # must stand down and certify candidate by candidate
    ring = make_ring("fpt", 2, 64)
    lam = small_root_of_gap(REFP, 64)
    s = certify_family(REFP, lam, 2, 1, 1, ring)
    assert s.route == "per_candidate"
    assert s.n_inconclusive == 0
    assert s.total == 4 * 3 + 4 * 4 * 3
    # Phi_1 = t + x + x^2 sits inside this family, hence one shared hit
    assert (s.n_certified, s.n_shared) == (s.total - 1, 1)


# ------------------------------------------------------------ linear factor

def window_series(spec, K):
    kind = "zp" if spec.characteristic == "zero" else "fpt"
    ring = make_ring(kind, spec.p, K)
    dense = [ring.zero()] * K
    for e, c in sparse_terms_upto(spec, K - 1):
        add = ring.from_int(c) if spec.characteristic == "zero" \
            else ring.from_digits(c)
        dense[e] = ring.add(dense[e], add)
    return ring, make_series(ring, dense, K)


def test_gap_linear_factor_identity():
    for spec in (REF0, REFP):
        wf = gap_linear_factor(spec, 24)
        ring, f = window_series(spec, 24)
        assert wf.verify(f)
        assert wf.n == 1 and wf.v == 0
        assert ring.val(wf.U.coeffs[0]) == 0
        lam = ring.neg(wf.P[0])
        assert ring.is_zero(evaluate(f, lam, 24))


def test_gap_linear_factor_matches_prepare():
    # the distinguished factor is unique; the cofactor may differ only
    # by the one-parameter geometric family fixed by the top slot
    for spec in (REF0, REFP):
        K = 24
        wfA = gap_linear_factor(spec, K)
        ring, f = window_series(spec, K)
        wfB = prepare(f)
        assert wfB.P == wfA.P
        assert wfA.verify(f) and wfB.verify(f)
        lam = ring.neg(wfA.P[0])
        delta = ring.sub(wfB.U.coeffs[-1], wfA.U.coeffs[-1])
        for k in range(K):
            want = ring.mul(ring.pow(lam, K - 1 - k), delta)
            assert ring.sub(wfB.U.coeffs[k], wfA.U.coeffs[k]) == want


def test_perturbation_transfers_valuation():
    K = 64
    wf = gap_linear_factor(REF0, K)
    ring, f = window_series(REF0, K)
    lam = ring.neg(wf.P[0])
    mu = ring.add(lam, ring.from_int(1 << 32))
    assert ring.val(evaluate(f, mu, K)) == 32
    pmu = ring.add(mu, wf.P[0])
    assert ring.val(pmu) == 32
