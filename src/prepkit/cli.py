"""Command-line entry point.

Every successful run prints one canonical JSON report (sorted keys, no
floating point, unbounded numbers as decimal strings) that embeds the
resolved configuration, so identical commands give byte-identical
output. Exit codes: 0 for success or a certified/conclusive verdict,
2 for inconclusive-at-budget verdicts, 1 for every error, which is
reported as one JSON line on stderr.

main turns parsed flags into a report: it checks --in and --spec, loads
the gap spec, runs the verb and attaches the config echo, _config. The
flags each gap and h10 op needs live in one table, _NEEDS.
"""

import argparse
import functools
import json
import os
import sys

from . import jsonio
from .errors import IoError, UsageError
from .h10 import (DEFAULT_BIT_BUDGET, FPOracle, Inconclusive, LazyBP,
                  OverBudget, decision_probe, theta)
from .padic_analysis import (bound_check_prime, certify_family,
                             certify_not_root, hensel_lift, phi_truncation,
                             reference_spec, small_root_of_gap,
                             VERDICT_INCONCLUSIVE)
from .resultant import hadamard_check, make_poly, resultant, tdegree_check
from .series import (comp_inverse, compose, detect_periodic_01,
                     detect_recurrence, series_invert, series_mul)
from .weierstrass import prepare, strong_factor

FLAG_GRAMMAR = "kind:p:prec"


def _at_least(flag, value, least):
    """value, or a UsageError naming flag when value is below least."""
    if value < least:
        raise UsageError("%s must be at least %d, got %d"
                         % (flag, least, value))
    return value


def _bit_budget(args):
    if args.budget is not None:
        return _at_least("--budget", args.budget, 1)
    raw = os.environ.get("PREPKIT_BUDGET_BITS", "")
    if not raw.strip():
        return DEFAULT_BIT_BUDGET
    try:
        bits = int(raw)
    except ValueError:
        raise UsageError("PREPKIT_BUDGET_BITS must be an integer, got %r"
                         % raw) from None
    return _at_least("PREPKIT_BUDGET_BITS", bits, 1)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_text(path):
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as e:
        raise IoError("cannot read %s: %s" % (path, e), path=path)


def _read_json(path, text=None):
    """The JSON value in the file at path, or in text already read from
    it; a UsageError naming the file when it is not JSON."""
    if text is None:
        text = _read_text(path)
    try:
        return json.loads(text)
    except ValueError as e:
        raise UsageError("input %s is not JSON: %s" % (path, e))


def _load_spec(value):
    if value in ("zero", "p"):
        return reference_spec(value)
    if os.path.exists(value):
        return jsonio.gapspec_from_json(_read_json(value))
    raise UsageError("--spec %s: no such file (or use 'zero'/'p' for the "
                     "reference description)" % value)


def _load(decode, payload, ring):
    """decode(payload) for a series or polynomial payload: a bare list
    takes its ring from --ring and an object without a ring gets it.
    decode returns a pair whose head carries the ring, which must agree
    with --ring."""
    if isinstance(payload, list):
        if ring is None:
            raise UsageError("bare coefficient lists need --ring")
        payload = {"coeffs": payload}
    if isinstance(payload, dict) and "ring" not in payload and ring is not None:
        payload = dict(payload, ring=jsonio.ring_to_json(ring))
    out = decode(payload)
    if ring is not None and out[0].ring != ring:
        raise UsageError("--ring disagrees with the input's embedded ring")
    return out


def _poly_pair(d):
    return jsonio.poly_from_json(d), None


def _load_dio(args):
    if args.expr:
        return jsonio.dio_from_json(args.expr)
    if not args.infile:
        raise UsageError("give a polynomial inline or via --in")
    text = _read_text(args.infile)
    if text.lstrip().startswith("{"):
        return jsonio.dio_from_json(_read_json(args.infile, text))
    return jsonio.dio_from_json(text)


# The flags each gap and h10 op needs, checked after the op's own input
# checks: "gap bound needs --N and --K".
_NEEDS = {"root": ("K",), "phi": ("N",), "bound": ("N", "K"),
          "certify": ("N", "K"), "sweep": ("N", "K"), "theta": ("N",),
          "bp": ("N",), "encode": ()}


def _need(args, what, *flags):
    if any(getattr(args, flag) is None for flag in flags):
        raise UsageError("%s needs %s"
                         % (what, " and ".join("--" + f for f in flags)))


def _config(args, spec):
    """The resolved configuration every report echoes: the verb and op,
    --ring, --in, the loaded gap spec and each integer flag given, as a
    string. --out is never echoed, so the bytes do not depend on it."""
    cfg = {"verb": args.verb, "flag_grammar": FLAG_GRAMMAR}
    for key, value in (("op", getattr(args, "op", None)),
                       ("ring", getattr(args, "ring", None)),
                       ("in", args.infile)):
        if value:
            cfg[key] = value
    if spec is not None:
        cfg["spec"] = jsonio.gapspec_to_json(spec)
    for name in ("N", "K", "budget", "degree_cap", "height_cap",
                 "base_prime", "d"):
        v = getattr(args, name, None)
        if v is not None:
            cfg[name.replace("_", "-")] = str(v)
    return cfg


# ------------------------------------------------------------------ verbs

def _run_prepare(args, strong):
    ring = jsonio.parse_ring_flag(args.ring) if args.ring else None
    f, _ = _load(jsonio.series_from_json, _read_json(args.infile), ring)
    wf = strong_factor(f) if strong else prepare(f)
    return jsonio.wfact_to_json(wf), 0


def _run_series(args):
    ring = jsonio.parse_ring_flag(args.ring) if args.ring else None
    payload = _read_json(args.infile)
    op = args.op
    if op in ("mul", "compose"):
        if not isinstance(payload, dict) or "f" not in payload or "g" not in payload:
            raise UsageError("series %s needs {\"f\":..., \"g\":...}" % op)
        f, _ = _load(jsonio.series_from_json, payload["f"], ring)
        g, _ = _load(jsonio.series_from_json, payload["g"], ring)
        out = series_mul(f, g) if op == "mul" else compose(f, g)
        return jsonio.series_to_json(out), 0
    single = payload.get("f", payload) if isinstance(payload, dict) else payload
    f, okind = _load(jsonio.series_from_json, single, ring)
    if op == "rationality":
        return _run_rationality(args, f, okind)
    out = series_invert(f) if op == "invert" else comp_inverse(f)
    return jsonio.series_to_json(out), 0


def _run_rationality(args, f, okind):
    budget = (f.x_prec if args.budget is None
              else _at_least("--budget", args.budget, 4))
    # h10 skips the constant term
    offset = 1 if okind == "h10" else 0
    upto = min(budget + offset, f.x_prec)
    if upto - offset < 4:
        raise UsageError("rationality needs at least 4 coefficients, and "
                         "the window of %d gives %d"
                         % (f.x_prec, upto - offset))
    if okind in ("periodic", "h10"):
        vals = [f.coeff(i) for i in range(offset, upto)]
        verdict = detect_periodic_01(f.ring, vals)
        route = "periodic01"
    else:
        if not (f.ring.is_field or f.ring.is_exact):
            where = "--ring " + args.ring if args.ring else "input"
            raise UsageError("%s: recurrence detection needs zp or zmodpk at "
                             "prec 1, z or fpt_exact, got kind %s with prec %r"
                             % (where, f.ring.kind, f.ring.prec))
        max_order = (_at_least("--degree-cap", args.degree_cap, 1)
                     if args.degree_cap is not None else (upto - 2) // 2)
        if 2 * max_order + 2 > upto:
            raise UsageError("--degree-cap %d needs at least %d coefficients, "
                             "and rationality reads %d"
                             % (max_order, 2 * max_order + 2, upto))
        verdict = detect_recurrence(f.truncate(upto), max_order)
        route = "recurrence"
    rep = jsonio.rationality_to_json(verdict)
    rep["route"] = route
    rep["offset"] = str(offset)
    return rep, 0 if verdict.is_rational else 2


def _run_resultant(args):
    ring = jsonio.parse_ring_flag(args.ring) if args.ring else None
    payload = _read_json(args.infile)
    if not isinstance(payload, dict) or "f" not in payload or "g" not in payload:
        raise UsageError("resultant needs {\"f\":..., \"g\":...}")
    f, _ = _load(_poly_pair, payload["f"], ring)
    g, _ = _load(_poly_pair, payload["g"], ring)
    if args.op == "compute":
        return jsonio.resultant_to_json(f.ring, resultant(f, g)), 0
    check = hadamard_check if args.op == "hadamard" else tdegree_check
    return jsonio.bound_report_to_json(f.ring, check(f, g)), 0


def _run_hensel(args):
    if not args.ring:
        raise UsageError("hensel needs --ring")
    ring = jsonio.parse_ring_flag(args.ring)
    if ring.prec is None:
        raise UsageError("hensel needs a finite-precision ring")
    payload = _read_json(args.infile)
    if not isinstance(payload, dict) or "poly" not in payload or "x0" not in payload:
        raise UsageError("hensel needs {\"poly\":[...], \"x0\":...}")
    exact = ring.exact()
    P = make_poly(exact, exact.decode(payload["poly"], "hensel poly"))
    # hensel_lift canonicalizes x0
    x0, = ring.decode([payload["x0"]], "hensel x0")
    K = args.K if args.K is not None else ring.prec
    root, trace = hensel_lift(P, x0, K, ring=ring, with_trace=True)
    work = ring.at_prec(K)
    return {"ring": jsonio.ring_to_json(work), "root": work.encode(root),
            "trace": list(map(work.encode, trace))}, 0


def _run_gap(args, spec):
    op = args.op
    if op == "probe":
        return _run_probe(args)
    if op in ("root", "bound") and args.budget is not None:
        raise UsageError("gap %s builds no Phi_N, so --budget does not "
                         "apply" % op)
    if args.N is not None and op != "root":
        _at_least("--N", args.N, 0)
    _need(args, "gap " + op, *_NEEDS[op])
    if op == "phi":
        P = phi_truncation(spec, args.N, args.budget)
        return jsonio.poly_to_json(P), 0
    if op == "certify":
        if not args.infile:
            raise UsageError("gap certify needs --in with a candidate")
        payload = _read_json(args.infile)
        has_ring = isinstance(payload, dict) and "ring" in payload
        P, _ = _load(_poly_pair, payload,
                     None if has_ring else spec.exact_ring())
    if op == "sweep":
        D = args.degree_cap if args.degree_cap is not None else 2
        H = args.height_cap if args.height_cap is not None else 5
        _at_least("--degree-cap", D, 0)
        _at_least("--height-cap", H, 0)
    # every op from here starts from the small root of the gap series
    ring = spec.work_ring(args.K)
    lam = small_root_of_gap(spec, args.K)
    if op == "root":
        return {"ring": jsonio.ring_to_json(ring), "lam": ring.encode(lam)}, 0
    if op == "bound":
        rep = jsonio.bound_check_to_json(
            bound_check_prime(spec, lam, args.N, ring))
        rep["lam"] = ring.encode(lam)
        return rep, 0
    if op == "certify":
        cert = certify_not_root(spec, lam, P, args.N, ring, args.budget)
        return (jsonio.cert_report_to_json(spec, cert),
                0 if cert.verdict != VERDICT_INCONCLUSIVE else 2)
    summary = certify_family(spec, lam, D, H, args.N, ring, args.budget)
    return (jsonio.family_summary_to_json(spec, summary),
            0 if summary.n_inconclusive == 0 else 2)


def _run_probe(args):
    P = _load_dio(args)
    points = 100 if args.N is None else _at_least("--N", args.N, 0)
    verdict = decision_probe(P, points=points, bits=_bit_budget(args))
    rep = jsonio.probe_to_json(verdict)
    rep["poly"] = jsonio.dio_to_json(P)
    return rep, 2 if isinstance(verdict, Inconclusive) else 0


def _run_h10(args):
    op = args.op
    if op == "probe":
        return _run_probe(args)
    P = _load_dio(args) if op != "theta" else None
    _need(args, "h10 " + op, *_NEEDS[op])
    if op == "theta":
        d = _at_least("--d", args.d, 1) if args.d is not None else 2
        pt = theta(_at_least("--N", args.N, 0), d)
        return {"n": str(args.N), "d": str(d),
                "point": [str(c) for c in pt]}, 0
    if op == "bp":
        bp = LazyBP(P, _bit_budget(args))
        res = bp.value(_at_least("--N", args.N, 0))
        values, over = bp.exact_prefix()
        if not isinstance(res, OverBudget):
            over = None
        rep = jsonio.bp_to_json(values[:args.N + 1], over)
    else:
        count = args.N if args.N is not None else 32
        a0 = args.base_prime if args.base_prime is not None else 2
        orc = FPOracle(P, a0, _bit_budget(args))
        rep = jsonio.series_to_json(orc.series(count))
        rep["a0"] = str(a0)
    rep["poly"] = jsonio.dio_to_json(P)
    return rep, 0


# ------------------------------------------------------------------ wiring

@functools.cache
def build_parser():
    """The argparse tree, built on first use and shared by every later
    main() call in the process; parsing leaves it unchanged."""
    top = _Parser(prog="prepkit", description=__doc__)
    sub = top.add_subparsers(dest="verb")
    sub.required = True

    def common(p, ring=True):
        if ring:
            p.add_argument("--ring", help="ring flag, grammar %s" % FLAG_GRAMMAR)
        p.add_argument("--in", dest="infile", help="input file")
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("prepare")
    common(p)
    p = sub.add_parser("strong-factor")
    common(p)

    p = sub.add_parser("series")
    p.add_argument("op", choices=["mul", "invert", "compose", "comp-inverse",
                                  "rationality"])
    common(p)
    p.add_argument("--budget", type=int)
    p.add_argument("--degree-cap", dest="degree_cap", type=int)

    p = sub.add_parser("resultant")
    p.add_argument("op", choices=["compute", "hadamard", "tdegree"])
    common(p)

    p = sub.add_parser("hensel")
    common(p)
    p.add_argument("--K", type=int)

    p = sub.add_parser("gap")
    p.add_argument("op", choices=["root", "phi", "bound", "certify", "sweep",
                                  "probe"])
    p.add_argument("expr", nargs="?", help="inline polynomial (probe only)")
    common(p)
    p.add_argument("--spec", help="gap description file, or 'zero'/'p'")
    p.add_argument("--N", type=int)
    p.add_argument("--K", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--degree-cap", dest="degree_cap", type=int)
    p.add_argument("--height-cap", dest="height_cap", type=int)

    p = sub.add_parser("h10")
    p.add_argument("op", choices=["theta", "bp", "encode", "probe"])
    p.add_argument("expr", nargs="?", help="inline polynomial")
    common(p, ring=False)
    p.add_argument("--N", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--base-prime", dest="base_prime", type=int)

    return top


def _emit(text, out):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise IoError("cannot write %s: %s" % (out, e), path=out)
    else:
        sys.stdout.write(text)


def main(argv=None):
    """Parse argv, run its verb and write the report with its config
    echo; every failure leaves as one JSON line on stderr."""
    try:
        args = build_parser().parse_args(argv)
        verb, op = args.verb, getattr(args, "op", None)
        if not args.infile and verb not in ("gap", "h10"):
            raise UsageError("%s needs --in" % verb)
        spec = None
        if verb == "gap" and op != "probe":
            if not args.spec:
                raise UsageError("gap %s needs --spec" % op)
            spec = _load_spec(args.spec)
        if verb in ("prepare", "strong-factor"):
            report, code = _run_prepare(args, verb == "strong-factor")
        elif verb == "series":
            report, code = _run_series(args)
        elif verb == "resultant":
            report, code = _run_resultant(args)
        elif verb == "hensel":
            report, code = _run_hensel(args)
        elif verb == "gap":
            report, code = _run_gap(args, spec)
        else:
            report, code = _run_h10(args)
        report["config"] = _config(args, spec)
        _emit(jsonio.dumps(report), args.out)
        return code
    except Exception as e:  # every failure leaves as one JSON line
        err = {"error": {"type": type(e).__name__, "message": str(e)}}
        sys.stderr.write(jsonio.dumps(err))
        return 1


if __name__ == "__main__":
    sys.exit(main())
