"""End-to-end command contract: one canonical JSON report per run,
numeric fields as decimal strings, deterministic bytes, and the
documented exit codes (0 conclusive, 2 inconclusive at budget,
1 errors)."""

import json
import os
import random
import subprocess
import sys

import pytest

import oracles
import prepkit
from prepkit import cli, jsonio, make_ring, make_series
from prepkit.errors import UsageError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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

    # a size-5 Sylvester matrix takes the generic F_p[t] Bareiss lane
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


def test_h10_infile_text_format(tmp_path):
    path = tmp_path / "p.dio"
    path.write_text("1:2\n1:0\n")
    res = run_cli("h10", "probe", "--in", str(path))
    assert res.returncode == 0
    assert report_of(res)["verdict"] == "gap_growth_evidence"


def test_elem_json_guards():
    ring = make_ring("zp", 5, 3)
    with pytest.raises(UsageError):
        jsonio.elem_from_json(ring, 1.5)
    with pytest.raises(UsageError):
        jsonio.elem_from_json(ring, True)
    T = make_ring("fpt", 2, 4)
    with pytest.raises(UsageError):
        jsonio.elem_from_json(T, "3")
    assert jsonio.elem_from_json(T, [1, 0, 1]) == (1, 0, 1, 0)


def test_series_json_oracle_kinds(tmp_path):
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
    # numpy is imported by the product lanes that use it, and none of
    # them lies on the gap or F_p[t] rationality paths
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
