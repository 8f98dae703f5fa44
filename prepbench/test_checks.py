"""The benchmark's checkers accept prepkit's reports and reject
corrupted ones.

    python3 -m pytest prepbench/test_checks.py
"""

import copy
import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from prepkit import cli  # noqa: E402
from run import run_job  # noqa: E402


def report(argv):
    code, _, out, err = run_job(cli.main, argv)
    assert code in (0, 2), err
    return json.loads(out), code


def write(tmp_path, payload, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def rejects(check, rep, mutate):
    bad = copy.deepcopy(rep)
    mutate(bad)
    with pytest.raises(CheckFailed):
        check(bad)


def bump(x, p=2):
    """A different canonical element: a decimal string or digit array."""
    if isinstance(x, list):
        return [(x[0] + 1) % p] + x[1:]
    return str(int(x) + 1)


@pytest.mark.parametrize("verb,kind,p,K,m,n,v", [
    ("prepare", "zp", 5, 6, 6, 2, 0),
    ("prepare", "fpt", 3, 5, 7, 1, 0),
    ("strong-factor", "zmodpk", 2, 8, 8, 3, 2),
    ("strong-factor", "fpt", 2, 6, 6, 1, 2),
])
def test_wfact_check(tmp_path, verb, kind, p, K, m, n, v):
    payload = workloads.series_payload(random.Random(7), kind, p, K, m, n, v)
    rep, _ = report([verb, "--in", write(tmp_path, payload)])
    check = lambda r: checks.check_wfact(r, payload)
    check(rep)
    rejects(check, rep, lambda r: r["U"]["coeffs"].__setitem__(
        2, bump(r["U"]["coeffs"][2], p)))
    rejects(check, rep, lambda r: r["P"].__setitem__(0, r["P"][-1]))
    rejects(check, rep, lambda r: r.__setitem__("v", str(v + 1)))
    rejects(check, rep, lambda r: r.__setitem__("n", str(n + 1)))
    rejects(check, rep, lambda r: r.pop("check"))


@pytest.mark.parametrize("op,kind,p,K,m", [
    ("mul", "zp", 3, 4, 9), ("mul", "z", None, None, 9),
    ("invert", "fpt", 2, 3, 8), ("compose", "zp", 2, 5, 7),
    ("compose", "fpt", 3, 2, 6), ("comp-inverse", "zp", 5, 3, 8),
    ("comp-inverse", "fpt", 2, 4, 6),
])
def test_series_check(tmp_path, op, kind, p, K, m):
    job = workloads._series_job(random.Random(3), lambda d: write(tmp_path, d),
                                op, kind, p, K, m)
    rep, code = report(job.argv)
    job.check(rep, code)
    rejects(lambda r: job.check(r, code), rep,
            lambda r: r["coeffs"].__setitem__(m - 1, bump(r["coeffs"][m - 1],
                                                          p or 2)))
    rejects(lambda r: job.check(r, code), rep,
            lambda r: r.__setitem__("x_prec", m - 1))


@pytest.mark.parametrize("kind,p,M,order", [
    ("zp", 7, 24, 3), ("zp", 7, 24, 0), ("z", None, 16, 2),
    ("z", None, 14, 0), ("fpt_exact", 2, 12, 2), ("fpt_exact", 3, 10, 0),
])
def test_rationality_check(tmp_path, kind, p, M, order):
    max_order = (M - 2) // 2
    job = workloads._rationality_job(random.Random(5),
                                     lambda d: write(tmp_path, d),
                                     kind, p, M, order, max_order)
    rep, code = report(job.argv)
    assert code == (0 if order else 2)
    job.check(rep, code)
    rejects(lambda r: job.check(r, code), rep,
            lambda r: r.__setitem__("kind", "rational" if not order
                                    else "irrational_at_budget"))
    rejects(lambda r: job.check(r, 2 - code), rep, lambda r: None)
    if order:
        rejects(lambda r: job.check(r, code), rep,
                lambda r: r.__setitem__("d", str(order + 1)))
        rejects(lambda r: job.check(r, code), rep,
                lambda r: r["q"].append(r["q"][-1]))


def test_berlekamp_massey_matches_detect_recurrence():
    from prepkit import make_ring, make_series, detect_recurrence
    from prepkit.jsonio import rationality_to_json
    rng = random.Random(11)
    for trial in range(60):
        kind, p = [("zp", 5), ("zp", 2), ("z", None)][trial % 3]
        M = rng.randrange(6, 17)
        order = rng.choice([0, 1, 2, 3])
        window = workloads._window(rng, kind, p, M, order)
        ring = make_ring("zp", p, 1) if kind == "zp" else make_ring("z")
        verdict = detect_recurrence(make_series(ring, [int(c) for c in window]),
                                    (M - 2) // 2)
        want = rationality_to_json(verdict)
        payload = {"ring": workloads.ring_desc("zp", p, 1) if kind == "zp"
                   else {"kind": "z"}, "coeffs": window}
        rational, d, q = checks.rationality_expectation(payload, (M - 2) // 2)
        assert (want["kind"] == "rational") == rational
        if rational:
            assert (want["d"], want["q"]) == (str(d), q)


@pytest.fixture(scope="module")
def gap_specs(tmp_path_factory):
    spec = tmp_path_factory.mktemp("gap") / "c3.json"
    spec.write_text(json.dumps(workloads.C3_FILE))
    return {"zero": checks.GapChecker(workloads.SPEC_ZERO),
            "p": checks.GapChecker(workloads.SPEC_P),
            str(spec): checks.GapChecker(workloads.SPEC_C3)}


def test_gap_root_and_bound_checks(gap_specs):
    for name, C in gap_specs.items():
        rep, _ = report(["gap", "root", "--spec", name, "--K", "40"])
        C.check_root(rep, 40)
        rejects(lambda r: C.check_root(r, 40), rep,
                lambda r: r.__setitem__("lam", bump(r["lam"], C.G.p)))
        rep, _ = report(["gap", "bound", "--spec", name, "--N", "1",
                         "--K", "30"])
        C.check_bound(rep, 1, 30)
        rejects(lambda r: C.check_bound(r, 1, 30), rep,
                lambda r: r.__setitem__("phi_val", str(int(r["phi_val"]) + 1)))
        rejects(lambda r: C.check_bound(r, 1, 30), rep,
                lambda r: r.__setitem__("lam", bump(r["lam"], C.G.p)))


@pytest.mark.parametrize("N,K,cand", [
    (1, 20, [1, 1]), (1, 30, [-3, 2, 1, 1]), (2, 520, [3, -1, 1]),
])
def test_certify_check_char0(tmp_path, gap_specs, N, K, cand):
    C = gap_specs["zero"]
    path = write(tmp_path, {"coeffs": [str(c) for c in cand]})
    rep, code = report(["gap", "certify", "--spec", "zero", "--N", str(N),
                        "--K", str(K), "--in", path])
    C.check_cert(rep, cand, N, K)
    check = lambda r: C.check_cert(r, cand, N, K)
    rejects(check, rep, lambda r: r.__setitem__("B", str(int(r["B"]) + 2)))
    rejects(check, rep, lambda r: r.__setitem__("B", str(-int(r["B"]))))
    rejects(check, rep, lambda r: r.__setitem__(
        "verdict", "inconclusive" if r["verdict"] != "inconclusive"
        else "certified_not_root"))
    rejects(check, rep, lambda r: r.__setitem__("phi_val", "1"))


def test_certify_check_char3(tmp_path, gap_specs):
    name = [n for n in gap_specs if n.endswith(".json")][0]
    C = gap_specs[name]
    cand = [(1,), (0, 1), (1, 1), (2,)]
    path = write(tmp_path, {"coeffs": [list(c) for c in cand]})
    rep, _ = report(["gap", "certify", "--spec", name, "--N", "1",
                     "--K", "24", "--in", path])
    C.check_cert(rep, cand, 1, 24)
    rejects(lambda r: C.check_cert(r, cand, 1, 24), rep,
            lambda r: r.__setitem__("B", bump(r["B"], 3)))
    rejects(lambda r: C.check_cert(r, cand, 1, 24), rep,
            lambda r: r.__setitem__("B_val", str(int(r["B_val"]) + 1)))


@pytest.mark.parametrize("spec,N,K,D,H,route", [
    ("zero", 1, 20, 2, 1, "per_candidate"), ("p", 1, 20, 1, 2, "structural"),
])
def test_sweep_check(gap_specs, spec, N, K, D, H, route):
    C = gap_specs[spec]
    rep, _ = report(["gap", "sweep", "--spec", spec, "--N", str(N),
                     "--K", str(K), "--degree-cap", str(D),
                     "--height-cap", str(H)])
    check = lambda r: C.check_sweep(r, N, K, D, H, route)
    check(rep)
    rejects(check, rep, lambda r: r.__setitem__("total", str(int(r["total"]) + 1)))
    rejects(check, rep, lambda r: r.__setitem__(
        "certified", str(int(r["certified"]) - 1)))
    rejects(check, rep, lambda r: r["samples"][1].__setitem__(
        "candidate", r["samples"][2]["candidate"]))
    rejects(check, rep, lambda r: r["samples"].pop())
    rejects(check, rep, lambda r: r.__setitem__("route", "other"))
