"""Weierstrass division, preparation, and strong factorization over
finite-precision local rings."""

import json
import random
import subprocess
import sys
from dataclasses import replace

import pytest

import oracles
from prepkit import (InvariantViolation, NoUnitCoefficient, RingMismatch,
                     ZeroAtPrecision, cli, make_ring, make_series, prepare,
                     reduction_index, series_invert, series_mul,
                     strong_factor, weierstrass_divide)
from prepkit import weierstrass
from prepkit.rings import IntModRing
from prepkit.series import Series

Z5K4 = make_ring("zp", 5, 4)
Z5K3 = make_ring("zp", 5, 3)


def test_reduction_index():
    f = make_series(Z5K3, [5, 10, 3, 1], 4)
    assert reduction_index(f) == 2
    with pytest.raises(NoUnitCoefficient):
        reduction_index(make_series(Z5K3, [5, 10, 25], 3))


def test_divide_golden():
    g = make_series(Z5K4, [0, 0, 1, 0], 4)
    f = make_series(Z5K4, [5, 1, 0, 0], 4)
    q, r = weierstrass_divide(g, f)
    assert [int(c) for c in q.coeffs] == [620, 1, 0, 0]
    assert [int(c) for c in r] == [25]
    g1 = make_series(Z5K3, [1, 0, 0], 3)
    f1 = make_series(Z5K3, [5, 1, 0], 3)
    q1, r1 = weierstrass_divide(g1, f1)
    assert [int(c) for c in q1.coeffs] == [0, 0, 0]
    assert [int(c) for c in r1] == [1]


def test_divide_identity_holds():
    g = make_series(Z5K4, [7, 3, 2, 9], 4)
    f = make_series(Z5K4, [5, 1, 1, 0], 4)
    q, r = weierstrass_divide(g, f)
    n = reduction_index(f)
    rp = make_series(Z5K4, list(r) + [Z5K4.zero()] * (4 - len(r)), 4)
    recon = series_mul(q, f)
    for i in range(4):
        assert Z5K4.add(recon.coeffs[i], rp.coeffs[i]) == g.coeffs[i]
    assert len(r) == n


def test_prepare_golden():
    f = make_series(Z5K3, [5, 1, 1], 3)
    wf = prepare(f)
    assert wf.v == 0 and wf.n == 1
    assert [int(c) for c in wf.P] == [30, 1]
    assert wf.verify(f)


def test_prepare_distinguished_invariants():
    f = make_series(Z5K4, [10, 25, 2, 3, 1, 7], 6)
    wf = prepare(f)
    assert wf.n == 2
    assert wf.P[-1] == Z5K4.one()
    for c in wf.P[:-1]:
        v = Z5K4.val(c)
        assert v is None or v >= 1
    assert Z5K4.val(wf.U.coeffs[0]) == 0
    assert wf.verify(f)


def test_lifting_matches_contraction_reference(reference):
    f = make_series(Z5K4, [10, 25, 2, 3, 1, 7], 6)
    ref = reference(prepare, f)
    wf = prepare(f)
    assert (wf.v, wf.n, wf.P) == (ref.v, ref.n, ref.P)
    assert wf.U.coeffs == ref.U.coeffs


def test_prepare_needs_finite_ring():
    Z = make_ring("z", 5)
    f = make_series(Z, [5, 1, 1], 3)
    with pytest.raises(ValueError):
        prepare(f)


def test_strong_factor_golden_z8(monkeypatch):
    R = make_ring("zmodpk", 2, 3)
    f = make_series(R, [4, 2, 0, 0, 0], 5)
    checked = []
    verify = weierstrass.WFactorization.verify
    monkeypatch.setattr(weierstrass.WFactorization, "verify",
                        lambda wf, g: checked.append(g) or verify(wf, g))
    wf = strong_factor(f)
    # one roundtrip check at precision K; it implies the one at K - v
    assert checked == [f]
    assert (wf.v, wf.n) == (1, 1)
    assert [int(c) for c in wf.P] == [2, 1]
    assert [int(c) for c in wf.U.coeffs] == [1, 0, 0, 0, 0]
    assert wf.verify(f)


def test_strong_factor_unit_valuation_zero():
    R = make_ring("zp", 3, 5)
    f = make_series(R, [9, 9, 9, 9], 4)
    wf = strong_factor(f)
    assert wf.v == 2 and wf.n == 0
    assert [int(c) for c in wf.P] == [1]
    assert wf.verify(f)


def test_strong_factor_zero_window():
    R = make_ring("zmodpk", 2, 2)
    f = make_series(R, [0, 4, 8], 3)
    with pytest.raises(ZeroAtPrecision):
        strong_factor(f)


def test_ring_mismatch_rejected():
    f = make_series(Z5K3, [5, 1, 1], 3)
    g = make_series(Z5K4, [0, 1, 0], 3)
    with pytest.raises(RingMismatch):
        weierstrass_divide(g, f)


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


def test_prepare_roundtrip_random(reference):
    rng = random.Random(20260816)
    rings = [make_ring("zp", 5, 6), make_ring("fpt", 3, 5),
             make_ring("zmodpk", 2, 6)]
    for ring in rings:
        for _ in range(60):
            f = _random_series(rng, ring, 16, 5)
            wf = prepare(f)
            assert wf.n <= 5
            assert wf.verify(f)
            alt = reference(prepare, f)
            assert (alt.v, alt.n, alt.P) == (wf.v, wf.n, wf.P)
            assert alt.U.coeffs == wf.U.coeffs


def test_strong_factor_roundtrip_random():
    rng = random.Random(8161)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        k = rng.randrange(2, 7)
        ring = make_ring("zmodpk", p, k)
        v = rng.randrange(k)
        piv = ring.pow(ring.uniformizer(), v)
        base = _random_series(rng, ring, 12, 4)
        f = make_series(ring, [ring.mul(piv, c) for c in base.coeffs], 12)
        wf = strong_factor(f)
        assert wf.v < k
        assert wf.verify(f)


def test_lifting_matches_direct_general_g(reference):
    # random g, not only x^n, with the edge shapes K=1, n=0 and m=1
    rng = random.Random(4404)
    for kind, p in (("zp", 2), ("zp", 5), ("zmodpk", 3), ("fpt", 2),
                    ("fpt", 3), ("zp", 1000003), ("fpt", 65537)):
        for i in range(40):
            K = 1 if i < 6 else rng.randrange(2, 13)
            m = 1 if i % 6 == 1 else rng.randrange(2, 24)
            ring = make_ring(kind, p, K)
            f = _random_series(rng, ring, m, 0 if i % 6 == 2 else min(5, m - 1))
            g = make_series(ring, [ring.from_int(rng.randrange(-10 ** 6, 10 ** 6))
                                   for _ in range(m)], m)
            q, r = weierstrass_divide(g, f)
            assert (q, r) == reference(weierstrass_divide, g, f)


def test_strong_factor_one_level_left(reference):
    # K - v = 1: preparation runs at precision 1, where lifting is c itself
    rng = random.Random(4405)
    for kind, p in (("zmodpk", 2), ("zp", 3), ("fpt", 5)):
        for K in (2, 3, 5):
            ring = make_ring(kind, p, K)
            piv = ring.pow(ring.uniformizer(), K - 1)
            base = _random_series(rng, ring, 10, 3)
            f = make_series(ring, [ring.mul(piv, c) for c in base.coeffs], 10)
            wf = strong_factor(f)
            ref = reference(strong_factor, f)
            assert wf.v == K - 1 and wf.verify(f)
            assert (wf.n, wf.P, wf.U.coeffs) == (ref.n, ref.P, ref.U.coeffs)


def test_lifting_runs_few_full_precision_convolutions(monkeypatch,
                                                      reference):
    ring = make_ring("zp", 2, 128)
    f = _random_series(random.Random(4406), ring, 128, 5)
    xn = make_series(ring, [0, 0, 0, 1], 128)
    calls = []
    real = IntModRing.convolve

    def counted(self, a, b, hi, lo=0):
        calls.append(self.prec)
        return real(self, a, b, hi, lo)

    monkeypatch.setattr(IntModRing, "convolve", counted)
    out = {}
    for route, run in (("lifting", weierstrass_divide),
                       ("direct", lambda *a: reference(weierstrass_divide, *a))):
        del calls[:]
        out[route] = run(xn, f)
        out[route + "_full"] = calls.count(128)
    assert out["lifting"] == out["direct"]
    assert out["lifting_full"] <= 24
    assert out["direct_full"] >= 2 * 130


def test_lifting_takes_one_product_per_level(monkeypatch, reference):
    # one product gamma * y per node of the precision tree: K - 1 nodes
    # for K leaves at precision 1 (the q-coordinate lift made 2 per node)
    ring = make_ring("zp", 2, 128)
    f = _random_series(random.Random(4406), ring, 128, 5)
    assert reduction_index(f) == 5
    xn = make_series(ring, [0, 0, 0, 0, 0, 1], 128)
    calls, inside = [], []
    real_convolve, real_solve = IntModRing.convolve, weierstrass._lift_solve

    def counted(self, a, b, hi, lo=0):
        if inside:
            calls.append(self.prec)
        return real_convolve(self, a, b, hi, lo)

    def solve(*args):
        inside.append(True)
        try:
            return real_solve(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(IntModRing, "convolve", counted)
    monkeypatch.setattr(weierstrass, "_lift_solve", solve)
    out = weierstrass_divide(xn, f)
    assert len(calls) == 127
    assert calls.count(128) == 1
    assert out == reference(weierstrass_divide, xn, f)


@pytest.mark.parametrize("kind, p, K", [
    ("zp", 2, 61), ("zp", 2, 62), ("zp", 2, 63), ("zp", 2, 128),
    ("zp", 3, 39), ("zp", 3, 40), ("zmodpk", 5, 26), ("zmodpk", 5, 27)])
def test_lifting_across_the_array_bound_matches_reference(monkeypatch,
                                                           reference, kind,
                                                           p, K):
    # a node of the precision tree works on int64 arrays below p^k =
    # 2^62 and on lists of ints from there on; on either side of the
    # bound the lifted quotient is the contraction's bit for bit, and
    # every coefficient that leaves the library is a Python int
    ring = make_ring(kind, p, K)
    rng = random.Random("bound%s%d%d" % (kind, p, K))
    digits = [rng.randrange(1 << 70) for _ in range(40)]
    f = make_series(ring, [p * d + (i == 3) if i <= 3 else d
                           for i, d in enumerate(digits)], 40)
    assert reduction_index(f) == 3
    g = _random_series(rng, ring, 40, 0)
    forms = set()
    real = IntModRing.lift_product

    def spy(self, c, a, y, n, s):
        forms.add((self.p ** self.prec >= 1 << 62, type(c) is list))
        return real(self, c, a, y, n, s)

    monkeypatch.setattr(IntModRing, "lift_product", spy)
    for fn, args in ((weierstrass_divide, (g, f)), (prepare, (f,))):
        assert fn(*args) == reference(fn, *args)
    assert forms == ({(True, True)} if p ** K >= 1 << 62 else set()) | {
        (False, False)}
    q, r = weierstrass_divide(g, f)
    wf = prepare(f)
    for out in (q.coeffs, r, wf.P, wf.U.coeffs, series_invert(g).coeffs):
        assert all(type(c) is int for c in out)


@pytest.mark.parametrize("kind, p, K", [("zp", 3, 6), ("fpt", 2, 5),
                                        ("zmodpk", 5, 4)])
def test_verify_rejects_corrupted_factors(monkeypatch, kind, p, K):
    ring = make_ring(kind, p, K)
    rng = random.Random(4407)
    f = _random_series(rng, ring, 10, 3)
    piv = ring.pow(ring.uniformizer(), 2)
    g = make_series(ring, [ring.mul(piv, c) for c in
                           _random_series(rng, ring, 10, 3).coeffs], 10)
    wf, sf = prepare(f), strong_factor(g)
    assert sf.v == 2 and wf.verify(f) and sf.verify(g)

    def bump(xs, i):
        xs = list(xs)
        xs[i] = ring.add(xs[i], ring.one())
        return tuple(xs)

    # a wrong U coefficient, at v = 0 and at v = 2
    for fact, h in ((wf, f), (sf, g)):
        U = Series(ring, fact.U.x_prec, bump(fact.U.coeffs, 3))
        assert not replace(fact, U=U).verify(h)
    # a nonzero digit below pi^v, with the digits above it unchanged
    low = Series(ring, 10, bump(g.coeffs, 4))
    assert ring.split(low.coeffs, 2)[1] == ring.split(g.coeffs, 2)[1]
    assert not sf.verify(low)

    real = weierstrass._prepare_unverified

    def corrupted(h):
        out = real(h)
        R = out.U.ring
        U = list(out.U.coeffs)
        U[1] = R.add(U[1], R.one())
        return replace(out, U=Series(R, out.U.x_prec, tuple(U)))

    monkeypatch.setattr(weierstrass, "_prepare_unverified", corrupted)
    with pytest.raises(InvariantViolation):
        prepare(f)
    with pytest.raises(InvariantViolation):
        strong_factor(g)


def test_wrong_solver_output_is_invariant_violation(monkeypatch, tmp_path,
                                                    capsys, reference):
    real = weierstrass._lift_solve

    def perturbed(ring, c, gamma, n, m):
        y = real(ring, c, gamma, n, m)
        return [ring.add(y[0], ring.one())] + y[1:]

    monkeypatch.setattr(weierstrass, "_lift_solve", perturbed)
    f = make_series(Z5K4, [10, 25, 2, 3, 1, 7], 6)
    with pytest.raises(InvariantViolation):
        prepare(f)
    assert reference(prepare, f).verify(f)

    path = tmp_path / "f.json"
    path.write_text("[10,25,2,3,1,7]")
    assert cli.main(["prepare", "--ring", "zp:5:4", "--in", str(path)]) == 1
    got = capsys.readouterr()
    assert got.out == ""
    lines = got.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "InvariantViolation"


def test_invariant_checks_survive_optimize_flag():
    code = (
        "from prepkit import InvariantViolation, make_ring, make_series, prepare\n"
        "from prepkit import weierstrass as w\n"
        "real = w._lift_solve\n"
        "w._lift_solve = lambda R, c, *a: [R.one()] + real(R, c, *a)[1:]\n"
        "f = make_series(make_ring('zp', 5, 4), [10, 25, 2, 3, 1, 7], 6)\n"
        "try:\n"
        "    prepare(f)\n"
        "except InvariantViolation:\n"
        "    print('raised')\n")
    res = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True)
    assert (res.returncode, res.stdout) == (0, "raised\n"), res.stderr
