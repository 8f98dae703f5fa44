"""End-to-end command contract: one canonical JSON report per run,
numeric fields as decimal strings, deterministic bytes, and the
documented exit codes (0 conclusive, 2 inconclusive at budget,
1 errors)."""

import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest

import oracles
import prepkit
from prepkit import cli, jsonio, make_ring, make_series
from prepkit.errors import UsageError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _limit_address_space(limit=1 << 30):
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "prepkit"] + list(args)
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def no_floats(obj):
    if isinstance(obj, float):
        return False
    if isinstance(obj, dict):
        return all(no_floats(k) and no_floats(v) for k, v in obj.items())
    if isinstance(obj, list):
        return all(no_floats(v) for v in obj)
    return True


def report_of(res):
    assert res.stdout.endswith("\n")
    rep = json.loads(res.stdout)
    assert no_floats(rep)
    assert "config" in rep
    assert rep["config"]["flag_grammar"] == "kind:p:prec"
    return rep


def test_prepare_golden(tmp_path):
    f = tmp_path / "f.json"
    f.write_text("[5,1,1]")
    res = run_cli("prepare", "--ring", "zp:5:3", "--in", str(f))
    assert res.returncode == 0
    rep = report_of(res)
    assert rep["P"] == ["30", "1"]
    assert rep["check"] == "ok"
    assert rep["v"] == "0" and rep["n"] == "1"


def test_composite_ring_flag_is_usage_error(tmp_path):
    f = tmp_path / "f.json"
    f.write_text("[5,1,1]")
    res = run_cli("prepare", "--ring", "zp:6:3", "--in", str(f))
    assert res.returncode == 1
    err = json.loads(res.stderr)
    assert err["error"]["type"] == "UsageError"
    assert "zp:6:3" in err["error"]["message"]


def test_ring_flag_grammar_rejections():
    for bad in ("zp:x:3", "zp:5:3:9", "what:2:2"):
        with pytest.raises((UsageError, ValueError)):
            jsonio.parse_ring_flag(bad)


def test_unknown_flag_rejected(tmp_path):
    f = tmp_path / "f.json"
    f.write_text("[5,1,1]")
    res = run_cli("prepare", "--ring", "zp:5:3", "--in", str(f), "--frob", "1")
    assert res.returncode == 1
    assert json.loads(res.stderr)["error"]["type"] == "UsageError"


def test_missing_input_is_usage_error():
    res = run_cli("prepare", "--ring", "zp:5:3")
    assert res.returncode == 1
    assert json.loads(res.stderr)["error"]["type"] == "UsageError"


def test_out_flag_and_unwritable_path(tmp_path):
    f = tmp_path / "f.json"
    f.write_text("[5,1,1]")
    out = tmp_path / "rep.json"
    res = run_cli("prepare", "--ring", "zp:5:3", "--in", str(f),
                  "--out", str(out))
    assert res.returncode == 0 and res.stdout == ""
    rep = json.loads(out.read_text())
    assert rep["P"] == ["30", "1"]
    res2 = run_cli("prepare", "--ring", "zp:5:3", "--in", str(f),
                   "--out", str(tmp_path / "missing" / "rep.json"))
    assert res2.returncode == 1
    assert json.loads(res2.stderr)["error"]["type"] == "IoError"


def test_reports_byte_stable(tmp_path):
    f = tmp_path / "f.json"
    f.write_text("[5,1,1]")
    a = run_cli("prepare", "--ring", "zp:5:3", "--in", str(f))
    b = run_cli("prepare", "--ring", "zp:5:3", "--in", str(f))
    assert a.stdout == b.stdout and a.stdout


def test_sweep_byte_stable_across_jobs():
    # the sweep runs in one thread; --jobs is gone from the grammar
    args = ("gap", "sweep", "--spec", "zero", "--N", "1", "--K", "64",
            "--degree-cap", "1", "--height-cap", "3")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    rep = report_of(a)
    assert rep["total"] == "21"
    assert rep["inconclusive"] == "0"
    c = run_cli(*args, "--jobs", "4")
    assert (c.returncode, c.stdout) == (1, "")
    lines = c.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "UsageError"


def test_series_roundtrip_through_files(tmp_path):
    ring = make_ring("zp", 7, 2)
    f = make_series(ring, [1, 3, 2, 6], 4)
    path = tmp_path / "s.json"
    path.write_text(jsonio.dumps(jsonio.series_to_json(f)))
    res = run_cli("series", "invert", "--in", str(path))
    assert res.returncode == 0
    rep = report_of(res)
    g, _ = jsonio.series_from_json(
        {k: rep[k] for k in ("ring", "x_prec", "coeffs")})
    from prepkit import series_mul
    prod = series_mul(f, g)
    assert [int(c) for c in prod.coeffs] == [1, 0, 0, 0]


def test_series_mul_needs_two_operands(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"ring":{"kind":"zp","p":7,"prec":2},"coeffs":["1"]}')
    res = run_cli("series", "mul", "--in", str(path))
    assert res.returncode == 1
    assert json.loads(res.stderr)["error"]["type"] == "UsageError"


def test_rationality_exit_codes(tmp_path):
    per = tmp_path / "per.json"
    per.write_text(json.dumps({
        "ring": {"kind": "z"}, "x_prec": 24,
        "oracle": {"kind": "periodic", "prefix": ["1"], "cycle": ["0", "1"]}}))
    res = run_cli("series", "rationality", "--in", str(per))
    assert res.returncode == 0
    rep = report_of(res)
    assert rep["kind"] == "rational" and rep["route"] == "periodic01"
    # over F_3[[t]] the elements 0 and 1 are digit arrays
    per.write_text(json.dumps({
        "ring": {"kind": "fpt", "p": 3, "prec": 2}, "x_prec": 16,
        "oracle": {"kind": "periodic", "prefix": ["1"], "cycle": ["0", "1"]}}))
    res = run_cli("series", "rationality", "--in", str(per))
    assert res.returncode == 0
    rep = report_of(res)
    assert (rep["kind"], rep["d"], rep["route"]) == ("rational", "2",
                                                     "periodic01")

    irr = tmp_path / "irr.json"
    bits = [str(bin(i).count("1") % 2) for i in range(64)]
    irr.write_text(json.dumps({
        "ring": {"kind": "zp", "p": 2, "prec": 1}, "x_prec": 64,
        "coeffs": bits}))
    res2 = run_cli("series", "rationality", "--in", str(irr),
                   "--degree-cap", "8")
    assert res2.returncode == 2
    assert report_of(res2)["kind"] == "irrational_at_budget"


def test_rationality_h10_oracle_route(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({
        "ring": {"kind": "z"}, "x_prec": 40,
        "oracle": {"kind": "h10", "poly": "x-3", "a0": "2",
                   "bit_budget": 10 ** 6}}))
    res = run_cli("series", "rationality", "--in", str(path))
    assert res.returncode == 0
    rep = report_of(res)
    assert rep["offset"] == "1"
    assert rep["kind"] == "rational" and rep["d"] == "1"


def _readme_fib_mod7(tmp_path):
    fib = [1, 1]
    for _ in range(18):
        fib.append((fib[-1] + fib[-2]) % 7)
    path = tmp_path / "fib.json"
    path.write_text(json.dumps({"ring": {"kind": "zp", "p": 7, "prec": 1},
                                "coeffs": [str(c) for c in fib]}))
    return str(path)


def test_rationality_budget_on_recurrence_route(tmp_path):
    fib = _readme_fib_mod7(tmp_path)
    whole = report_of(run_cli("series", "rationality", "--in", fib))
    assert (whole["d"], whole["budget"]) == ("2", "20")

    res = run_cli("series", "rationality", "--in", fib, "--budget", "4")
    assert res.returncode == 2
    rep = report_of(res)
    assert (rep["kind"], rep["budget"]) == ("irrational_at_budget", "4")
    assert rep["route"] == "recurrence" and rep["config"]["budget"] == "4"

    res = run_cli("series", "rationality", "--in", fib, "--budget", "6")
    assert res.returncode == 0
    rep = report_of(res)
    assert (rep["kind"], rep["d"], rep["budget"]) == ("rational", "2", "6")
    assert rep["q"] == ["1", "6", "6"]

    res = run_cli("series", "rationality", "--in", fib, "--budget", "0")
    assert res.returncode == 1
    assert json.loads(res.stderr)["error"]["type"] == "UsageError"


def test_in_process_calls_match_fresh_processes(tmp_path, capsys):
    # main() builds its parser once per process; later calls with other
    # verbs must still print exactly what a fresh process prints
    f = tmp_path / "f.json"
    f.write_text("[5,1,1]")
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "f": {"ring": {"kind": "z"}, "coeffs": ["1", "0", "1"]},
        "g": {"ring": {"kind": "z"}, "coeffs": ["-1", "1"]}}))
    fib = _readme_fib_mod7(tmp_path)
    runs = [
        ["prepare", "--ring", "zp:5:3", "--in", str(f)],
        ["series", "rationality", "--in", fib, "--budget", "4"],
        ["resultant", "compute", "--in", str(pair)],
        ["h10", "theta", "--N", "9", "--d", "2"],
        ["prepare", "--ring", "zp:5:3", "--in", str(f), "--frob", "1"],
        ["gap", "root", "--spec", "zero", "--K", "20"],
        ["series", "rationality", "--in", fib],
        ["strong-factor", "--ring", "zp:5:3", "--in", str(f)],
    ]
    for argv in runs:
        code = cli.main(argv)
        got = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout,
                                            fresh.stderr), argv


def test_resultant_verbs(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "f": {"ring": {"kind": "z"}, "coeffs": ["1", "0", "1"]},
        "g": {"ring": {"kind": "z"}, "coeffs": ["-1", "1"]}}))
    res = run_cli("resultant", "compute", "--in", str(pair))
    assert res.returncode == 0
    assert report_of(res)["B"] == "2"
    res2 = run_cli("resultant", "hadamard", "--in", str(pair))
    rep2 = report_of(res2)
    assert (rep2["lhs"], rep2["rhs"], rep2["bound_ok"]) == ("4", "8", True)


BIG_P = 4294967311  # (p - 1)^2 is past 2^63


def test_fpt_products_past_int64(tmp_path):
    q = BIG_P - 1
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"f": [[q, q], [1, 0]], "g": [[q, q], [1, 0]]}))
    res = run_cli("series", "mul", "--ring", "fpt:%d:2" % BIG_P,
                  "--in", str(pair))
    assert (res.returncode, res.stderr) == (0, "")
    # (-1 - t)^2 = 1 + 2t + t^2 and 2 * (-1 - t) = -2 - 2t, mod t^2
    assert res.stdout == (
        '{"coeffs":[[1,2],[4294967309,4294967309]],"config":'
        '{"flag_grammar":"kind:p:prec","in":%s,"op":"mul",'
        '"ring":"fpt:4294967311:2","verb":"series"},"ring":'
        '{"kind":"fpt","p":4294967311,"prec":2},"x_prec":2}\n'
        % json.dumps(str(pair)))

    # a size-5 Sylvester matrix takes the subresultant PRS of F_p[t]
    f = [[q, q], [1], [q, 1]]
    g = [[1, q], [q], [0, q], [q, q]]
    pair.write_text(json.dumps({"f": f, "g": g}))
    res = run_cli("resultant", "compute", "--ring", "fpt_exact:%d" % BIG_P,
                  "--in", str(pair))
    assert (res.returncode, res.stderr) == (0, "")
    B = report_of(res)["B"]
    assert res.stdout == (
        '{"B":%s,"config":{"flag_grammar":"kind:p:prec","in":%s,'
        '"op":"compute","ring":"fpt_exact:4294967311","verb":"resultant"},'
        '"ring":{"kind":"fpt_exact","p":4294967311}}\n'
        % (json.dumps(B, separators=(",", ":")), json.dumps(str(pair))))

    # B(s) is the integer resultant of f and g at t = s, mod p
    def at(poly, s):
        return [sum(d * s ** i for i, d in enumerate(c)) for c in poly]

    for s in range(2, 8):
        want = oracles.res_int(at(f, s), at(g, s)) % BIG_P
        assert sum(d * s ** i for i, d in enumerate(B)) % BIG_P == want


def test_unexpected_exception_is_one_json_line(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_run_h10", broken)
    assert cli.main(["h10", "theta", "--N", "3"]) == 1
    got = capsys.readouterr()
    assert got.out == ""
    lines = got.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": {"type": "RuntimeError", "message": "boom"}}


def test_hensel_verb(tmp_path):
    h = tmp_path / "h.json"
    h.write_text('{"poly":["-6","0","1"],"x0":"1"}')
    res = run_cli("hensel", "--ring", "zp:5:3", "--in", str(h))
    assert res.returncode == 0
    rep = report_of(res)
    assert rep["root"] == "16"
    assert rep["trace"] == ["1", "66", "16"]
    h2 = tmp_path / "h2.json"
    h2.write_text('{"poly":["-2","0","1"],"x0":"1"}')
    res2 = run_cli("hensel", "--ring", "zp:5:3", "--in", str(h2))
    assert res2.returncode == 1
    assert json.loads(res2.stderr)["error"]["type"] == "HenselConditionFails"


@pytest.mark.parametrize("ring, payload, root, trace", [
    # x^2 - 17 over Z_2: f'(1) = 2 has valuation 1, so each Newton step
    # divides f(x) by 2 before the unit inverse
    ("zp:2:12", {"poly": ["-17", "0", "1"], "x0": "1"}, "3817",
     ["1", "2057", "233", "3817"]),
    # x^2 + t x + t^3 over F_2[[t]]: f'(0) = t, again valuation 1
    ("fpt:2:12", {"poly": [[0, 0, 0, 1], [0, 1], [1]], "x0": [0]},
     [0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0],
     [[0] * 12, [0, 0, 1] + [0] * 9, [0, 0, 1, 1] + [0] * 8,
      [0, 0, 1, 1, 0, 1] + [0] * 6, [0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0]]),
], ids=["zp", "fpt"])
def test_hensel_golden_with_non_unit_derivative(tmp_path, ring, payload,
                                                root, trace):
    h = tmp_path / "h.json"
    h.write_text(json.dumps(payload))
    res = run_cli("hensel", "--ring", ring, "--in", str(h))
    assert res.returncode == 0, res.stderr
    rep = report_of(res)
    assert (rep["root"], rep["trace"]) == (root, trace)


def test_gap_spec_digits_are_polynomials(tmp_path):
    # [1, 0, 0, 0, 0, 0] is the same element of F_2[t] as [1]: padding
    # digits count for neither the growth cap nor the root, and the
    # config still echoes each spec as given
    reports = {}
    for rest in ([1], [1, 0, 0, 0, 0, 0]):
        spec = {"char": "p", "p": 2, "b": {"kind": "pow2_nsq"}, "C": "2",
                "kappa": "2",
                "a": {"kind": "const_after", "a0": [0, 1], "rest": rest}}
        path = tmp_path / ("spec%d.json" % len(rest))
        path.write_text(json.dumps(spec))
        got = []
        for argv in (["root", "--K", "8"],
                     ["sweep", "--N", "1", "--K", "40", "--degree-cap", "1",
                      "--height-cap", "1"]):
            res = run_cli("gap", *argv, "--spec", str(path))
            assert res.returncode == 0, res.stderr
            rep = report_of(res)
            assert rep["config"]["spec"]["a"]["rest"] == rest
            del rep["config"]
            got.append(rep)
        reports[len(rest)] = got
    assert reports[1] == reports[6]
    root, sweep = reports[1]
    assert root["lam"] == [0, 1, 1, 0, 1, 0, 0, 0]
    assert (sweep["route"], sweep["certified"], sweep["total"]) == (
        "structural", "12", "12")


@pytest.mark.parametrize("char, a0, rest", [
    ("p", "01", "12"),       # a string is not a digit array
    ("zero", [1, 2], 1),     # nor is a digit array an integer
])
def test_gap_spec_coefficient_shape_is_usage_error(tmp_path, char, a0, rest):
    spec = {"char": char, "p": 2, "b": {"kind": "pow2_nsq"}, "C": "2",
            "kappa": "2", "a": {"kind": "const_after", "a0": a0, "rest": rest}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    res = run_cli("gap", "root", "--spec", str(path), "--K", "6")
    assert res.returncode == 1 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "UsageError"


# prepkit as a shell function: each call leaves its exit code, stdout
# and stderr in numbered files
_PREPKIT_SHIM = """set -e
n=0
prepkit() {
  n=$((n + 1))
  "$PY" -m prepkit "$@" > out$n 2> err$n && echo 0 > code$n || echo $? > code$n
}
"""


def test_readme_cli_examples_run(tmp_path):
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    calls = sum(line.startswith("prepkit ") for line in block.splitlines())
    src = os.path.dirname(os.path.dirname(os.path.abspath(prepkit.__file__)))
    env = dict(os.environ, PY=sys.executable, PYTHONPATH=src)
    res = subprocess.run(["bash", "-c", _PREPKIT_SHIM + block], cwd=tmp_path,
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert calls == len(list(tmp_path.glob("code*"))) > 0
    for i in range(1, calls + 1):
        code = (tmp_path / ("code%d" % i)).read_text().strip()
        assert code == "0", (i, (tmp_path / ("err%d" % i)).read_text())
        lines = (tmp_path / ("out%d" % i)).read_text().splitlines()
        assert len(lines) == 1
        assert "config" in json.loads(lines[0])


def test_gap_phi_budget_exit(tmp_path):
    res = run_cli("gap", "phi", "--spec", "zero", "--N", "5")
    assert res.returncode == 1
    assert json.loads(res.stderr)["error"]["type"] == "BudgetExceeded"
    res2 = run_cli("gap", "phi", "--spec", "zero", "--N", "1")
    assert res2.returncode == 0
    assert report_of(res2)["coeffs"] == ["2", "1", "1"]


@pytest.mark.parametrize("argv, error", [
    # Phi_1 needs degree 2, past a budget of 1
    (["certify", "--N", "1", "--K", "17", "--in", "cand.json"],
     "BudgetExceeded"),
    (["sweep", "--N", "1", "--K", "17", "--degree-cap", "1",
      "--height-cap", "1"], "BudgetExceeded"),
    # root and bound build no Phi_N
    # Phi_5 needs degree 2^25, and the sweep's margin would hold
    # 2^(2^37): the budget is checked first, for an empty family too
    (["sweep", "--N", "5", "--K", "40"], "BudgetExceeded"),
    (["sweep", "--N", "5", "--K", "40", "--degree-cap", "0"],
     "BudgetExceeded"),
    (["root", "--K", "17"], "UsageError"),
    (["bound", "--N", "1", "--K", "17"], "UsageError"),
], ids=["certify", "sweep", "sweep-N5", "sweep-N5-empty", "root", "bound"])
def test_gap_budget_bounds_phi_or_is_refused(tmp_path, argv, error):
    (tmp_path / "cand.json").write_text('{"coeffs":["-2","1"]}')
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    # a child that runs out of memory fails with MemoryError, not the host
    res = subprocess.run(
        [sys.executable, "-m", "prepkit", "gap", *argv, "--spec", "zero",
         "--budget", "1"], capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space)
    assert (res.returncode, res.stdout) == (1, "")
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == error


@pytest.mark.parametrize("spec, caps, flag", [
    ("p", ["--degree-cap", "1", "--height-cap", "-2"], "--height-cap"),
    ("zero", ["--degree-cap", "1", "--height-cap", "-1"], "--height-cap"),
    ("p", ["--degree-cap", "-1", "--height-cap", "1"], "--degree-cap"),
    ("zero", ["--degree-cap", "-1"], "--degree-cap"),
], ids=["p-height", "zero-height", "p-degree", "zero-degree"])
def test_negative_sweep_cap_is_usage_error(spec, caps, flag):
    res = run_cli("gap", "sweep", "--spec", spec, "--N", "1", "--K", "40",
                  *caps)
    assert (res.returncode, res.stdout) == (1, "")
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "UsageError" and flag in err["message"]


def test_decimals_past_the_int_str_digit_limit(tmp_path):
    # Python converts at most 4,300 digits between int and str directly
    f = tmp_path / "f.json"
    f.write_text('["3","1"]')
    res = run_cli("series", "invert", "--ring", "zp:2:15000", "--in", str(f))
    assert res.returncode == 0, res.stderr
    rep = report_of(res)
    assert max(map(len, rep["coeffs"])) > 4300
    g = tmp_path / "g.json"
    g.write_text(json.dumps({k: rep[k] for k in ("ring", "coeffs", "x_prec")}))
    back = run_cli("series", "invert", "--in", str(g))
    assert back.returncode == 0, back.stderr
    assert report_of(back)["coeffs"] == ["3", "1"]

    res = run_cli("gap", "root", "--spec", "zero", "--K", "14300")
    assert res.returncode == 0, res.stderr
    lam = report_of(res)["lam"]
    assert len(lam) > 4300 and jsonio.dec_str(jsonio.dec_int(lam)) == lam
    # the root mod 2^20 is the root at K = 20
    assert jsonio.dec_int(lam) % 2 ** 20 == 1007706


def test_decimal_helpers_past_the_digit_limit():
    n = -7 ** 6000
    assert jsonio.dec_int(jsonio.dec_str(n)) == n
    assert jsonio.dec_int(" +" + "9" * 5000 + "\n") == 10 ** 5000 - 1
    assert jsonio.dec_int("1_0" * 3000) == jsonio.dec_int("10" * 3000)
    for bad in ("1x" * 3000, "1" * 5000 + ".5", "1" * 5000 + "e5",
                "1__0" * 2000):
        with pytest.raises(ValueError):
            jsonio.dec_int(bad)


def test_gap_root_and_bound(tmp_path):
    res = run_cli("gap", "root", "--spec", "zero", "--K", "20")
    assert res.returncode == 0
    assert report_of(res)["lam"] == "1007706"
    res2 = run_cli("gap", "bound", "--spec", "zero", "--N", "1", "--K", "40")
    rep2 = report_of(res2)
    assert (rep2["phi_val"], rep2["equality"]) == ("16", True)


def test_gap_certify_exit_codes(tmp_path):
    cand = tmp_path / "cand.json"
    cand.write_text('{"coeffs":["-2","1"]}')
    res = run_cli("gap", "certify", "--spec", "zero", "--N", "1", "--K", "64",
                  "--in", str(cand))
    assert res.returncode == 0
    assert report_of(res)["verdict"] == "certified_not_root"
    res2 = run_cli("gap", "certify", "--spec", "zero", "--N", "0", "--K", "64",
                   "--in", str(cand))
    assert res2.returncode == 2
    assert report_of(res2)["verdict"] == "inconclusive"


def test_gap_raised_budget_fails_fast_at_the_gate(tmp_path):
    # a budget past b(5) = 2^25 lets Phi_5 through, but K = 40 fails the
    # precision gate of N = 5 and the empty family needs no power of
    # b(6) = 2^36: both runs end at once, well inside 1 GiB
    cand = tmp_path / "c.json"
    cand.write_text('{"coeffs":["1","2"]}')

    def run(op, *args):
        return subprocess.run(
            [sys.executable, "-m", "prepkit", "gap", op, "--spec", "zero",
             "--N", "5", "--K", "40", "--budget", "40000000", *args],
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (1 << 30, 1 << 30)))

    res = run("certify", "--in", str(cand))
    assert (res.returncode, res.stdout) == (1, "")
    assert len(res.stderr.splitlines()) == 1
    assert json.loads(res.stderr)["error"]["type"] == "PrecisionTooLow"
    res = run("sweep", "--degree-cap", "0")
    assert res.returncode == 0, res.stdout + res.stderr
    rep = report_of(res)
    assert (rep["route"], rep["total"], rep["margin"]["flipped"]) == (
        "empty", "0", True)


def test_gap_spec_file_roundtrip(tmp_path):
    from prepkit.padic_analysis import reference_spec
    spec = reference_spec("p")
    path = tmp_path / "spec.json"
    path.write_text(jsonio.dumps(jsonio.gapspec_to_json(spec)))
    res = run_cli("gap", "root", "--spec", str(path), "--K", "8")
    assert res.returncode == 0
    rep = report_of(res)
    assert rep["ring"]["kind"] == "fpt"
    assert rep["lam"][:3] == [0, 1, 1]


def test_probe_exit_codes():
    res = run_cli("gap", "probe", "x-3")
    assert res.returncode == 0
    assert report_of(res)["verdict"] == "rational_certified"
    res2 = run_cli("h10", "probe", "x^2+1")
    assert res2.returncode == 0
    assert report_of(res2)["verdict"] == "gap_growth_evidence"
    res3 = run_cli("h10", "probe", "x-1000")
    assert res3.returncode == 2
    assert report_of(res3)["verdict"] == "inconclusive"


def test_h10_theta_and_bp():
    res = run_cli("h10", "theta", "--N", "9", "--d", "2")
    assert res.returncode == 0
    assert report_of(res)["point"] == ["2", "-1"]
    res2 = run_cli("h10", "bp", "x^2+1", "--N", "2")
    rep2 = report_of(res2)
    assert rep2["values"][1] == "2"
    assert rep2["over"] is None
    assert int(rep2["values"][2]) == 2 + 2 ** 800


def test_h10_bp_env_budget():
    import os
    env = dict(os.environ)
    env["PREPKIT_BUDGET_BITS"] = "100"
    res = run_cli("h10", "bp", "x^2+1", "--N", "5", env=env)
    assert res.returncode == 0
    rep = report_of(res)
    assert rep["values"] == ["1", "2"]
    assert rep["over"] == {"n": "2", "predicted_bits": "800"}


def test_h10_encode(tmp_path):
    res = run_cli("h10", "encode", "x^2+1", "--N", "8")
    rep = report_of(res)
    assert rep["coeffs"] == ["2", "0", "1", "0", "0", "0", "0", "0"]
    assert rep["a0"] == "2"


@pytest.mark.parametrize("optimize", [[], ["-O"]])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_h10_encode_empty_window_is_json_error(optimize, n):
    # the window check is a real check, so python -O keeps it
    res = subprocess.run([sys.executable, *optimize, "-m", "prepkit", "h10",
                          "encode", "x^2+1", "--N", n],
                         capture_output=True, text=True)
    assert (res.returncode, res.stdout) == (1, "")
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "BadPrecision"
    assert err["message"] == "series needs x_prec >= 1, got %s" % n


@pytest.mark.parametrize("argv, env, flag", [
    (["h10", "probe", "x^2+1", "--N", "-5"], None, "--N"),
    (["gap", "probe", "x-3", "--N", "-1"], None, "--N"),
    (["gap", "bound", "--spec", "zero", "--N", "-1", "--K", "40"], None,
     "--N"),
    (["gap", "sweep", "--spec", "zero", "--N", "-1", "--K", "40",
      "--degree-cap", "1", "--height-cap", "1"], None, "--N"),
    (["gap", "phi", "--spec", "zero", "--N", "-1"], None, "--N"),
    (["gap", "certify", "--spec", "zero", "--N", "-1", "--K", "40",
      "--in", "cand.json"], None, "--N"),
    (["h10", "theta", "--N", "-1"], None, "--N"),
    (["h10", "bp", "x^2+1", "--N", "-1"], None, "--N"),
    (["h10", "theta", "--N", "3", "--d", "0"], None, "--d"),
    (["series", "rationality", "--ring", "zp:7:1", "--in", "r.json",
      "--degree-cap", "0"], None, "--degree-cap"),
    (["h10", "bp", "x^2+1", "--N", "2"], "abc", "PREPKIT_BUDGET_BITS"),
    (["h10", "bp", "x^2+1", "--N", "2"], "-5", "PREPKIT_BUDGET_BITS"),
    (["h10", "bp", "x^2+1", "--N", "2", "--budget", "0"], None, "--budget"),
    # rationality reads at least 4 coefficients on either route
    (["series", "rationality", "--in", "per8.json", "--budget", "3"], None,
     "--budget"),
    (["series", "rationality", "--in", "per3.json"], None, "window"),
    (["series", "rationality", "--ring", "zp:7:1", "--in", "r.json",
      "--budget", "3"], None, "--budget"),
    (["series", "rationality", "--ring", "zp:7:1", "--in", "r3.json"], None,
     "window"),
    (["series", "rationality", "--in", "h4.json"], None, "window"),
    # recurrence detection needs a field or exact domain
    (["series", "rationality", "--ring", "zp:3:4", "--in", "r.json"], None,
     "--ring zp:3:4"),
    # malformed decimal fields name the field
    (["series", "invert", "--in", "xprec.json"], None, "x_prec"),
    (["series", "invert", "--in", "prec.json"], None, "ring prec"),
    (["series", "invert", "--in", "prefix.json"], None, "prefix"),
    (["series", "invert", "--in", "cycle.json"], None, "cycle"),
    # a polynomial term that is not [[e, ...], c]
    (["h10", "probe", "--in", "terms.json"], None, "terms"),
    # C and kappa are ints or fraction strings
    (["gap", "root", "--K", "10", "--spec", "c_abc.json"], None, "spec C"),
    (["gap", "root", "--K", "10", "--spec", "c_float.json"], None, "spec C"),
    (["gap", "root", "--K", "10", "--spec", "kappa_zero.json"], None,
     "spec kappa"),
    # a float digit of a char-p spec coefficient
    (["gap", "root", "--K", "10", "--spec", "digit.json"], None, "digit 1.5"),
    # a list field given as a string or an object, which would be read
    # one character or key at a time
    (["hensel", "--ring", "zp:2:10", "--in", "hpoly.json"], None,
     "hensel poly"),
    (["series", "invert", "--in", "ocoeffs.json"], None, "oracle coeffs"),
    (["resultant", "compute", "--ring", "z", "--in", "rcoeffs.json"], None,
     "polynomial coeffs"),
    (["series", "rationality", "--in", "sprefix.json"], None, "prefix"),
    (["series", "rationality", "--in", "scycle.json"], None, "cycle"),
    (["gap", "root", "--K", "10", "--spec", "bvalues.json"], None,
     "spec b.values"),
    (["gap", "root", "--K", "10", "--spec", "avalues.json"], None,
     "spec a.values"),
    # a gap-spec rule that is not an object, or lacks a field
    (["gap", "root", "--K", "10", "--spec", "norest.json"], None,
     "spec a.rest"),
    (["gap", "root", "--K", "10", "--spec", "nobvalues.json"], None,
     "spec b.values"),
    (["gap", "root", "--K", "10", "--spec", "astr.json"], None, "spec a"),
    (["gap", "root", "--K", "10", "--spec", "bint.json"], None, "spec b"),
    # a polynomial file that starts with { is read as JSON
    (["h10", "bp", "--in", "bad.json", "--N", "2"], None,
     "bad.json is not JSON"),
    (["h10", "encode", "--in", "bad.json"], None, "bad.json is not JSON"),
    (["h10", "probe", "--in", "bad.json"], None, "bad.json is not JSON"),
    (["gap", "probe", "--in", "bad.json"], None, "bad.json is not JSON"),
    # a cap the coefficients read cannot decide, through --budget or
    # the window alone, is refused before detection runs
    (["series", "rationality", "--ring", "zp:7:1", "--in", "r20.json",
      "--budget", "6", "--degree-cap", "5"], None,
     "--degree-cap 5 needs at least 12 coefficients, and rationality "
     "reads 6"),
    (["series", "rationality", "--ring", "zp:7:1", "--in", "r.json",
      "--degree-cap", "3"], None,
     "--degree-cap 3 needs at least 8 coefficients, and rationality "
     "reads 6"),
    # more coefficients than the window, plain or through an oracle
    (["series", "invert", "--in", "many.json"], None,
     "got 3 coefficients for x_prec 2"),
    (["series", "invert", "--in", "omany.json"], None,
     "got 3 coefficients for x_prec 2"),
    # a gap spec that GapSpec refuses
    (["gap", "root", "--K", "8", "--spec", "char_q.json"], None,
     "spec: characteristic must be 'zero' or 'p'"),
    (["gap", "root", "--K", "8", "--spec", "budget0.json"], None,
     "spec: budget must be positive"),
    (["gap", "root", "--K", "8", "--spec", "p4.json"], None,
     "spec: base 4 is not prime"),
    (["gap", "root", "--K", "8", "--spec", "c_one.json"], None,
     "spec: growth constants must exceed 1"),
], ids=["argv%d" % i for i in range(51)])
def test_negative_probe_points_is_usage_error(tmp_path, argv, env, flag):
    (tmp_path / "cand.json").write_text('{"coeffs":["-2","1"]}')
    zp = {"kind": "zp", "p": 3, "prec": 2}
    for name, payload in (
            ("xprec", {"ring": zp, "coeffs": ["1"], "x_prec": "ab"}),
            ("prec", {"ring": dict(zp, prec="q"), "coeffs": ["1"]}),
            ("prefix", {"ring": zp, "x_prec": 4, "oracle": {
                "kind": "periodic", "prefix": ["x"], "cycle": ["1"]}}),
            ("cycle", {"ring": zp, "x_prec": 4, "oracle": {
                "kind": "periodic", "prefix": [], "cycle": [[1]]}})):
        (tmp_path / (name + ".json")).write_text(json.dumps(payload))
    periodic = {"kind": "periodic", "prefix": ["1"], "cycle": ["0", "1"]}
    for name, payload in (
            ("hpoly", {"poly": {"-17": 1, "1": 2}, "x0": "1"}),
            ("ocoeffs", {"ring": zp, "x_prec": 2, "oracle": {
                "kind": "explicit", "coeffs": "12"}}),
            ("rcoeffs", {"f": {"coeffs": "12"}, "g": {"coeffs": "12"}}),
            ("sprefix", {"ring": zp, "x_prec": 8,
                         "oracle": dict(periodic, prefix="1")}),
            ("scycle", {"ring": zp, "x_prec": 8,
                        "oracle": dict(periodic, cycle="01")}),
            ("many", {"ring": zp, "x_prec": 2, "coeffs": ["1", "2", "3"]}),
            ("omany", {"ring": zp, "x_prec": 2, "oracle": {
                "kind": "explicit", "coeffs": ["1", "2", "3"]}})):
        (tmp_path / (name + ".json")).write_text(json.dumps(payload))
    (tmp_path / "terms.json").write_text('{"d":1,"terms":[[1]]}')
    (tmp_path / "bad.json").write_text('{"d":1,"terms":')
    ref = {"char": "zero", "p": 2, "b": {"kind": "pow2_nsq"},
           "a": {"kind": "const_after", "a0": "2", "rest": "1"}}
    for name, spec in (("c_abc", dict(ref, C="abc")),
                       ("c_float", dict(ref, C=1.5)),
                       ("kappa_zero", dict(ref, kappa="1/0")),
                       ("digit", dict(ref, char="p", a={
                           "kind": "const_after", "a0": [0, 1],
                           "rest": [1.5]})),
                       ("bvalues", dict(ref, b={"kind": "explicit",
                                                "values": "1234"})),
                       ("avalues", dict(ref, a={"kind": "explicit",
                                                "values": "12"})),
                       ("norest", dict(ref, a={"kind": "const_after",
                                               "a0": "2"})),
                       ("nobvalues", dict(ref, b={"kind": "explicit"})),
                       ("astr", dict(ref, a="x")),
                       ("bint", dict(ref, b=5)),
                       ("char_q", dict(ref, char="q")),
                       ("budget0", dict(ref, budget=0)),
                       ("p4", dict(ref, p=4)),
                       ("c_one", dict(ref, C="1"))):
        (tmp_path / (name + ".json")).write_text(json.dumps(spec))
    (tmp_path / "r.json").write_text('["1","2","3","4","5","6"]')
    (tmp_path / "r3.json").write_text('["1","2","3"]')
    (tmp_path / "r20.json").write_text(json.dumps([str(n) for n in
                                                   range(1, 21)]))
    for n in (3, 8):
        (tmp_path / ("per%d.json" % n)).write_text(json.dumps({
            "ring": {"kind": "zp", "p": 3, "prec": 4}, "x_prec": n,
            "oracle": {"kind": "periodic", "prefix": ["1"],
                       "cycle": ["0", "1"]}}))
    # h10 skips the constant term, so a window of 4 gives 3 coefficients
    (tmp_path / "h4.json").write_text(json.dumps({
        "x_prec": 4, "oracle": {"kind": "h10", "poly": "x-3"}}))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    environ = dict(os.environ)
    if env is not None:
        environ["PREPKIT_BUDGET_BITS"] = env
    res = run_cli(*argv, env=environ)
    assert (res.returncode, res.stdout) == (1, "")
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "UsageError" and flag in err["message"]


def test_h10_infile_text_format(tmp_path):
    path = tmp_path / "p.dio"
    path.write_text("1:2\n1:0\n")
    res = run_cli("h10", "probe", "--in", str(path))
    assert res.returncode == 0
    assert report_of(res)["verdict"] == "gap_growth_evidence"


def test_elem_json_guards():
    ring = make_ring("zp", 5, 3)
    T = make_ring("fpt", 2, 4)

    def elem(R, v):
        return R.canon(R.decode([v], "element")[0])

    with pytest.raises(UsageError):
        elem(ring, 1.5)
    with pytest.raises(UsageError):
        elem(ring, True)
    with pytest.raises(UsageError):
        elem(T, "3")
    with pytest.raises(UsageError):
        elem(T, [1, [0]])
    with pytest.raises(UsageError):
        elem(T, [1, "1x"])
    with pytest.raises(UsageError):
        elem(ring, [1])
    # a float or bool digit is refused, not truncated by int()
    for digit in (1.7, True):
        with pytest.raises(UsageError, match="digit %s " % digit):
            elem(T, [digit, 0])
    assert elem(T, [1, 0, 1]) == (1, 0, 1, 0)
    assert elem(T, ["1", 0, "01"]) == (1, 0, 1, 0)
    # a list of elements must be a JSON array, which the error names
    for R, vs in ((ring, "12"), (ring, {"1": 2}), (T, "12"), (T, {"1": [1]})):
        with pytest.raises(UsageError, match="^coeffs must be an array$"):
            R.decode(vs, "coeffs")


def test_size_cap_is_budget_exceeded(tmp_path):
    # a window or ring precision past rings.SIZE_CAP fails before any
    # padding or p^prec, with one error type whether the ring comes in
    # the payload or from --ring
    cases = (("prepare", {"ring": {"kind": "zp", "p": 7, "prec": 1},
                          "coeffs": ["0"], "x_prec": 3000000}, "x_prec"),
             ("series invert", {"ring": {"kind": "zp", "p": 3,
                                         "prec": 3000000},
                                "coeffs": ["1"]}, "prec"),
             ("series invert --ring zp:3:3000000", {"coeffs": ["1"]},
              "prec"))
    for verb, payload, what in cases:
        f = tmp_path / "f.json"
        f.write_text(json.dumps(payload))
        res = run_cli(*verb.split(), "--in", str(f))
        assert (res.returncode, res.stdout) == (1, "")
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "BudgetExceeded"
        assert err["message"].endswith("needs %s <= 1048576, got 3000000"
                                       % what)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_series_digit_budget_is_budget_exceeded(tmp_path, flags):
    # x_prec * precision past series.SERIES_CAP = 2^22 fails before any
    # coefficient is padded: 2^32 digits (which ran out of 1.5 GiB
    # before the budget), one past the cap at 2048 * 2049, and the same
    # through --ring; a child that runs out of memory fails with
    # MemoryError, not the host
    cases = (("", {"ring": {"kind": "fpt", "p": 2, "prec": 65536},
                   "x_prec": 65536, "coeffs": [[1, 1], [1]]},
              "65536 * 65536 = 4294967296"),
             ("", {"ring": {"kind": "zp", "p": 2, "prec": 2049},
                   "x_prec": 2048, "coeffs": ["1"]}, "2048 * 2049 = 4196352"),
             ("--ring fpt:2:65536", {"x_prec": 65536,
                                     "coeffs": [[1, 1], [1]]},
              "65536 * 65536 = 4294967296"))
    for ring, payload, sizes in cases:
        f = tmp_path / "f.json"
        f.write_text(json.dumps(payload))
        res = subprocess.run(
            [sys.executable, *flags, "-m", "prepkit", "series", "invert",
             *ring.split(), "--in", str(f)], capture_output=True, text=True,
            timeout=60, preexec_fn=lambda: _limit_address_space(3 << 29))
        assert (res.returncode, res.stdout) == (1, ""), res.stderr
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err == {"type": "BudgetExceeded",
                       "message": "series needs x_prec * precision <= "
                                  "4194304 digits, got " + sizes}


_PHI_TOO_LONG = "Phi_%s needs degree of %d bits, budget is 65536"
_PHI_118 = "Phi_118 needs degree %d, budget is 65536" % 2 ** (118 ** 2)


@pytest.mark.parametrize("argv, error, message, at_118", [
    (["phi", "--N", "120"], "BudgetExceeded",
     _PHI_TOO_LONG % (120, 120 ** 2 + 1), _PHI_118),
    (["bound", "--N", "119", "--K", "40"], "PrecisionTooLow",
     "need precision of %d bits for a sound comparison, have 40"
     % (120 ** 2 + 1), "need precision %d for a sound comparison, have 40"
     % (2 ** (119 ** 2) + 1)),
    (["certify", "--N", "200", "--K", "40", "--in", "cand.json"],
     "BudgetExceeded", _PHI_TOO_LONG % (200, 200 ** 2 + 1), _PHI_118),
    (["sweep", "--N", "200", "--K", "40", "--degree-cap", "1",
      "--height-cap", "1"], "BudgetExceeded",
     _PHI_TOO_LONG % (200, 200 ** 2 + 1), _PHI_118),
    (["phi", "--N", "100000"], "BudgetExceeded",
     _PHI_TOO_LONG % (100000, 100000 ** 2 + 1), _PHI_118)],
    ids=["phi", "bound", "certify", "sweep", "phi-N100000"])
def test_gap_errors_past_the_int_str_digit_limit(tmp_path, argv, error,
                                                 message, at_118):
    # b(N) = 2^(N^2) passes 4,300 digits at N = 120. Each op gives the
    # error it gives at N = 118, with the number by its bit length, and
    # decides it without building b(N) (2^(10^10) at N = 100000), within
    # 1 s under a 1 GiB address-space limit; at N = 118 the number
    # still prints in decimal
    (tmp_path / "cand.json").write_text('{"coeffs":["-2","1"]}')
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    for N, want in ((argv[2], message), ("118", at_118)):
        t0 = time.perf_counter()
        res = subprocess.run(
            [sys.executable, "-m", "prepkit", "gap", argv[0], "--spec",
             "zero", "--N", N, *argv[3:]], capture_output=True, text=True,
            timeout=60, preexec_fn=_limit_address_space)
        took = time.perf_counter() - t0
        assert (res.returncode, res.stdout) == (1, ""), res.stderr
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {"type": error,
                                                 "message": want}
        if N == argv[2]:
            assert took < 1


@pytest.mark.parametrize("optimize", [[], ["-O"]])
@pytest.mark.parametrize("spec", ["zero", "p"])
def test_gap_bound_at_huge_N_settles_the_growth_cap_first(spec, optimize):
    # a_(N+1)'s growth cap holds once b(N+1) passes a bound that a_(N+1)
    # fixes, so b_past settles it and the precision gate refuses K = 40
    # without building b(100001) = 2^(10^10)
    res = subprocess.run(
        [sys.executable, *optimize, "-m", "prepkit", "gap", "bound",
         "--spec", spec, "--N", "100000", "--K", "40"],
        capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space)
    assert (res.returncode, res.stdout) == (1, ""), res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == {
        "type": "PrecisionTooLow",
        "message": "need precision of %d bits for a sound comparison, "
                   "have 40" % (100001 ** 2 + 1)}


@pytest.mark.parametrize("ring, flag, message", [
    ({"kind": "zq", "p": 3, "prec": 2}, "zq:3:2",
     "unknown ring kind 'zq'; expected one of zp, fpt, zmodpk, z, "
     "fpt_exact"),
    ({"kind": "zp", "prec": 2}, "zp", "kind zp needs a prime base"),
    ({"kind": "z", "p": 3, "prec": 2}, "z:3:2",
     "kind z is exact; prec does not apply"),
    ({"kind": "zp", "p": 3, "prec": 0}, "zp:3:0",
     "kind zp needs prec >= 1, got 0")])
def test_payload_ring_fails_as_ring_flag_does(tmp_path, ring, flag, message):
    # make_ring's refusal is a UsageError naming the payload's ring field,
    # as it names --ring for the flag
    for read, name, field in ((jsonio.ring_from_json, ring, "ring"),
                              (jsonio.parse_ring_flag, flag,
                               "--ring " + flag)):
        with pytest.raises(UsageError) as ei:
            read(name)
        assert type(ei.value) is UsageError
        assert str(ei.value) == "%s: %s" % (field, message)
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"ring": ring, "coeffs": ["1", "1"]}))
    res = run_cli("series", "invert", "--in", str(f))
    assert (res.returncode, res.stdout) == (1, "")
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == {"type": "UsageError",
                                             "message": "ring: " + message}


def test_malformed_decimal_element_is_usage_error(tmp_path):
    f = tmp_path / "f.json"
    f.write_text('{"ring":{"kind":"zp","p":3,"prec":2},"coeffs":["1x","1"]}')
    res = run_cli("series", "invert", "--in", str(f))
    assert (res.returncode, res.stdout) == (1, "")
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "UsageError" and "'1x'" in err["message"]

    f.write_text('{"x_prec":10,"oracle":[1]}')
    res = run_cli("series", "rationality", "--in", str(f))
    assert (res.returncode, res.stdout) == (1, "")
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "UsageError" and "oracle" in err["message"]


def test_series_json_oracle_kinds(tmp_path, capsys):
    d = {"ring": {"kind": "z"}, "x_prec": 12,
         "oracle": {"kind": "periodic", "prefix": [], "cycle": ["1", "0"]}}
    f, kind = jsonio.series_from_json(d)
    assert kind == "periodic"
    assert f.window(5) == [1, 0, 1, 0, 1]
    with pytest.raises(UsageError):
        jsonio.series_from_json({"ring": {"kind": "z"}, "x_prec": 4,
                                 "oracle": {"kind": "periodic",
                                            "prefix": [], "cycle": []}})
    with pytest.raises(UsageError):
        jsonio.series_from_json({"ring": {"kind": "z"}, "x_prec": 4,
                                 "oracle": {"kind": "wat"}})

    # every verb but rationality reads an oracle's whole declared window,
    # so it reports what the equivalent coeffs payload reports; the exit
    # codes pin which verbs apply (prepare needs a finite ring, invert a
    # unit constant term, comp-inverse f = x + O(x^2) up to a unit)
    zp = {"kind": "zp", "p": 3, "prec": 4}
    gap = jsonio.gapspec_to_json(prepkit.reference_spec("zero"))
    cases = [
        ({"ring": zp, "x_prec": 8, "oracle": {
            "kind": "periodic", "prefix": ["1"], "cycle": ["0", "1"]}},
         [0, 0, 0, 1, 0, 0]),
        ({"ring": zp, "x_prec": 8, "oracle": {
            "kind": "periodic", "prefix": ["0", "1"], "cycle": ["2"]}},
         [0, 0, 1, 0, 0, 0]),
        ({"x_prec": 8, "oracle": {"kind": "h10", "poly": "x^2+1"}},
         [1, 1, 1, 1, 0, 0]),
        ({"x_prec": 8, "oracle": {"kind": "gap", "spec": gap}},
         [1, 1, 1, 1, 0, 0]),
    ]
    verbs = [["prepare"], ["strong-factor"], ["series", "invert"],
             ["series", "comp-inverse"], ["series", "mul"],
             ["series", "compose"]]
    path = tmp_path / "s.json"
    for orc, want_codes in cases:
        explicit = jsonio.series_to_json(jsonio.series_from_json(orc)[0])
        inner = {"ring": explicit["ring"], "x_prec": 8,
                 "coeffs": ["0", "1", "1"]}
        results = []
        for src in (orc, explicit):
            got = []
            for verb in verbs:
                payload = ({"f": src, "g": src if verb[-1] == "mul" else inner}
                           if verb[-1] in ("mul", "compose") else src)
                path.write_text(json.dumps(payload))
                code = cli.main(verb + ["--in", str(path)])
                out, err = capsys.readouterr()
                rep = json.loads(out) if out else None
                if rep:
                    del rep["config"]
                got.append((code, rep, err))
            results.append(got)
        assert results[0] == results[1], orc
        assert [r[0] for r in results[0]] == want_codes, orc


@pytest.mark.parametrize("payload", [
    {"ring": {"kind": "zp", "p": 7, "prec": 1}, "coeffs": [], "x_prec": 0},
    {"ring": {"kind": "zp", "p": 7, "prec": 1}, "coeffs": []},
    {"ring": {"kind": "zp", "p": 7, "prec": 1}, "coeffs": ["1"],
     "x_prec": -2},
    {"ring": {"kind": "z"}, "x_prec": 0,
     "oracle": {"kind": "periodic", "prefix": [], "cycle": ["1"]}},
])
def test_empty_window_is_json_error(tmp_path, payload):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    for verb in (["series", "rationality"], ["prepare"]):
        res = run_cli(*verb, "--in", str(path))
        assert res.returncode == 1 and res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "BadPrecision"


_NUMPY_FREE_CODE = """
import contextlib, io, json, sys
from prepkit import cli
seen = ["numpy" in sys.modules]
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
seen.append("numpy" in sys.modules)
print(json.dumps([codes, seen]))
"""


def test_gap_and_rationality_never_load_numpy(tmp_path):
    # numpy is imported by the product lanes that use it; for small p
    # none of them lies on the gap or F_p[t] rationality paths (the
    # F_p[t] product takes its int64 numpy lane once
    # (p - 1)^2 * min(len) >= 2^32, e.g. for p = 65537)
    c3 = tmp_path / "c3.json"
    c3.write_text(json.dumps(
        {"char": "p", "p": 3, "b": {"kind": "pow2_nsq"}, "C": "2",
         "kappa": "2",
         "a": {"kind": "const_after", "a0": [0, 2], "rest": [1, 1]}}))
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"coeffs": [[1, 1], [0, 2], [2, 1]]}))
    window = tmp_path / "window.json"
    rng = random.Random(3)
    window.write_text(json.dumps(
        {"ring": {"kind": "fpt_exact", "p": 3},
         "coeffs": [[rng.randrange(3) for _ in range(3)]
                    for _ in range(24)]}))
    argvs = []
    for spec in ("p", str(c3)):
        argvs += [["gap", "root", "--spec", spec, "--K", "600"],
                  ["gap", "bound", "--spec", spec, "--N", "2", "--K", "560"],
                  ["gap", "certify", "--spec", spec, "--N", "1", "--K", "60",
                   "--in", str(cand)],
                  ["gap", "sweep", "--spec", spec, "--N", "1", "--K", "40",
                   "--degree-cap", "1", "--height-cap", "1"]]
    argvs.append(["series", "rationality", "--in", str(window)])
    res = subprocess.run([sys.executable, "-c", _NUMPY_FREE_CODE,
                          json.dumps(argvs)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    codes, seen = json.loads(res.stdout)
    assert all(c in (0, 2) for c in codes), codes
    assert seen == [False, False]


# ------------------------------------------------ flag checks and config

def _in_process(capsys, argv):
    code = cli.main(argv)
    got = capsys.readouterr()
    return code, got.out, got.err


@pytest.mark.parametrize("argv, message", [
    (["prepare"], "prepare needs --in"),
    (["strong-factor", "--ring", "zp:5:3"], "strong-factor needs --in"),
    (["series", "invert"], "series needs --in"),
    (["series", "rationality", "--ring", "zp:7:1"], "series needs --in"),
    (["resultant", "compute"], "resultant needs --in"),
    (["hensel", "--ring", "zp:5:3"], "hensel needs --in"),
    (["hensel", "--in", "h.json"], "hensel needs --ring"),
    (["gap", "root", "--K", "20"], "gap root needs --spec"),
    (["gap", "phi", "--N", "1"], "gap phi needs --spec"),
    (["gap", "bound", "--N", "1", "--K", "40"], "gap bound needs --spec"),
    (["gap", "certify", "--N", "1", "--K", "40", "--in", "cand.json"],
     "gap certify needs --spec"),
    (["gap", "sweep", "--N", "1", "--K", "40"], "gap sweep needs --spec"),
    (["gap", "root", "--spec", "zero"], "gap root needs --K"),
    (["gap", "root", "--spec", "zero", "--N", "1"], "gap root needs --K"),
    (["gap", "phi", "--spec", "zero", "--K", "40"], "gap phi needs --N"),
    (["gap", "bound", "--spec", "zero", "--K", "40"],
     "gap bound needs --N and --K"),
    (["gap", "bound", "--spec", "zero", "--N", "1"],
     "gap bound needs --N and --K"),
    (["gap", "certify", "--spec", "zero", "--K", "40", "--in", "cand.json"],
     "gap certify needs --N and --K"),
    (["gap", "certify", "--spec", "zero", "--N", "1", "--in", "cand.json"],
     "gap certify needs --N and --K"),
    (["gap", "certify", "--spec", "zero", "--N", "1", "--K", "40"],
     "gap certify needs --in with a candidate"),
    (["gap", "sweep", "--spec", "zero", "--K", "40"],
     "gap sweep needs --N and --K"),
    (["gap", "sweep", "--spec", "p", "--N", "1", "--degree-cap", "1"],
     "gap sweep needs --N and --K"),
    (["h10", "theta"], "h10 theta needs --N"),
    (["h10", "theta", "--d", "2"], "h10 theta needs --N"),
    (["h10", "bp", "x^2+1"], "h10 bp needs --N"),
    (["h10", "bp", "--N", "2"], "give a polynomial inline or via --in"),
    (["h10", "bp"], "give a polynomial inline or via --in"),
    (["h10", "encode", "--N", "4"], "give a polynomial inline or via --in"),
    (["h10", "probe"], "give a polynomial inline or via --in"),
    (["gap", "probe", "--spec", "zero"],
     "give a polynomial inline or via --in"),
    # each op's own input checks come before its missing flags
    (["gap", "bound", "--spec", "zero", "--N", "-1"],
     "--N must be at least 0, got -1"),
    (["gap", "root", "--spec", "zero", "--budget", "9"],
     "gap root builds no Phi_N, so --budget does not apply"),
    (["gap", "bound", "--spec", "zero", "--budget", "9"],
     "gap bound builds no Phi_N, so --budget does not apply"),
    (["gap", "sweep", "--spec", "zero", "--N", "1", "--K", "40",
      "--height-cap", "-1"], "--height-cap must be at least 0, got -1"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_each_flag_check_is_one_usage_error(tmp_path, capsys, argv,
                                            message):
    (tmp_path / "h.json").write_text('{"poly":["-6","0","1"],"x0":"1"}')
    (tmp_path / "cand.json").write_text('{"coeffs":["-2","1"]}')
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = _in_process(capsys, argv)
    assert (code, out) == (1, "")
    assert err == jsonio.dumps(
        {"error": {"type": "UsageError", "message": message}})


def _spec_echo(name):
    return json.loads(jsonio.dumps(jsonio.gapspec_to_json(
        prepkit.padic_analysis.reference_spec(name))))


@pytest.mark.parametrize("argv, extra", [
    (["prepare", "--ring", "zp:5:3", "--in", "f.json"],
     {"ring": "zp:5:3", "in": "f.json"}),
    (["strong-factor", "--ring", "zmodpk:2:3", "--in", "g.json"],
     {"ring": "zmodpk:2:3", "in": "g.json"}),
    (["series", "mul", "--ring", "zp:7:2", "--in", "fg.json"],
     {"op": "mul", "ring": "zp:7:2", "in": "fg.json"}),
    (["series", "invert", "--in", "s.json", "--budget", "7"],
     {"op": "invert", "in": "s.json", "budget": "7"}),
    (["series", "compose", "--ring", "zp:7:2", "--in", "fg.json"],
     {"op": "compose", "ring": "zp:7:2", "in": "fg.json"}),
    (["series", "comp-inverse", "--ring", "zp:7:2", "--in", "g.json"],
     {"op": "comp-inverse", "ring": "zp:7:2", "in": "g.json"}),
    (["series", "rationality", "--in", "fib.json", "--degree-cap", "3"],
     {"op": "rationality", "in": "fib.json", "degree-cap": "3"}),
    (["resultant", "compute", "--in", "pair.json"],
     {"op": "compute", "in": "pair.json"}),
    (["resultant", "hadamard", "--ring", "z", "--in", "pair.json"],
     {"op": "hadamard", "ring": "z", "in": "pair.json"}),
    (["resultant", "tdegree", "--in", "tpair.json"],
     {"op": "tdegree", "in": "tpair.json"}),
    (["hensel", "--ring", "zp:5:3", "--in", "h.json", "--K", "2"],
     {"ring": "zp:5:3", "in": "h.json", "K": "2"}),
    (["gap", "root", "--spec", "zero", "--K", "20"],
     {"op": "root", "spec": "zero", "K": "20"}),
    (["gap", "phi", "--spec", "zero", "--N", "1", "--budget", "5"],
     {"op": "phi", "spec": "zero", "N": "1", "budget": "5"}),
    (["gap", "bound", "--spec", "p", "--N", "1", "--K", "40"],
     {"op": "bound", "spec": "p", "N": "1", "K": "40"}),
    (["gap", "certify", "--spec", "zero", "--N", "1", "--K", "64",
      "--in", "cand.json"],
     {"op": "certify", "spec": "zero", "N": "1", "K": "64",
      "in": "cand.json"}),
    (["gap", "sweep", "--spec", "zero", "--N", "1", "--K", "40",
      "--degree-cap", "1", "--height-cap", "1"],
     {"op": "sweep", "spec": "zero", "N": "1", "K": "40",
      "degree-cap": "1", "height-cap": "1"}),
    # a probe loads no spec, so none is echoed
    (["gap", "probe", "x-3", "--spec", "zero", "--N", "5"],
     {"op": "probe", "N": "5"}),
    (["h10", "theta", "--N", "9", "--d", "2"],
     {"op": "theta", "N": "9", "d": "2"}),
    (["h10", "bp", "x^2+1", "--N", "2", "--budget", "1000"],
     {"op": "bp", "N": "2", "budget": "1000"}),
    (["h10", "encode", "x^2+1", "--N", "6", "--base-prime", "3"],
     {"op": "encode", "N": "6", "base-prime": "3"}),
    (["h10", "probe", "--in", "p.dio", "--N", "10"],
     {"op": "probe", "in": "p.dio", "N": "10"}),
], ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else None)
def test_config_echoes_the_parsed_flags(tmp_path, capsys, argv, extra):
    for name, text in (
            ("f.json", "[5,1,1]"), ("g.json", '["0","1","3"]'),
            ("fg.json", '{"f":["1","2","3"],"g":["0","1","5"]}'),
            ("s.json", '{"ring":{"kind":"zp","p":7,"prec":2},'
                       '"coeffs":["1","3","2","6"]}'),
            ("fib.json", '{"ring":{"kind":"zp","p":7,"prec":1},"coeffs":'
                         '["1","1","2","3","5","1","6","0","6","6"]}'),
            ("pair.json", '{"f":{"ring":{"kind":"z"},"coeffs":["1","0","1"]},'
                          '"g":{"ring":{"kind":"z"},"coeffs":["-1","1"]}}'),
            ("tpair.json", '{"f":{"ring":{"kind":"fpt_exact","p":2},'
                           '"coeffs":[[0,1],[1]]},"g":{"ring":{"kind":'
                           '"fpt_exact","p":2},"coeffs":[[0,0,1],[1]]}}'),
            ("h.json", '{"poly":["-6","0","1"],"x0":"1"}'),
            ("cand.json", '{"coeffs":["-2","1"]}'), ("p.dio", "1:2\n1:0\n")):
        (tmp_path / name).write_text(text)
    if argv[0] == "strong-factor":
        (tmp_path / "g.json").write_text("[4,2,0,0,0]")
    argv = [str(tmp_path / a) if a.endswith((".json", ".dio")) else a
            for a in argv]
    out_path = tmp_path / "report.json"
    code, out, err = _in_process(capsys, argv + ["--out", str(out_path)])
    assert code in (0, 2) and (out, err) == ("", "")
    want = {"verb": argv[0], "flag_grammar": "kind:p:prec"}
    want.update(extra)
    if "in" in want:
        want["in"] = str(tmp_path / want["in"])
    if "spec" in want:
        want["spec"] = _spec_echo(want["spec"])
    assert json.loads(out_path.read_text())["config"] == want


@pytest.mark.parametrize("argv, code", [
    # 67,100,672 candidates, past the family budget of 2^24
    (["--spec", "p", "--N", "1", "--K", "40", "--degree-cap", "1",
      "--height-cap", "12"], 1),
    # an empty family builds no candidate list, however high
    (["--spec", "p", "--N", "1", "--K", "40", "--degree-cap", "0",
      "--height-cap", "26"], 0),
], ids=["p-past-cap", "p-empty-H26"])
def test_sweeps_past_a_budget_fail_fast(argv, code):
    res = subprocess.run([sys.executable, "-m", "prepkit", "gap", "sweep",
                          *argv], capture_output=True, text=True,
                         timeout=60, preexec_fn=_limit_address_space)
    assert res.returncode == code
    if code == 0:
        rep = report_of(res)
        assert (rep["route"], rep["total"]) == ("empty", "0")
        return
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "BudgetExceeded"

