"""Command-line entry point.

Every successful run prints one canonical JSON report (sorted keys, no
floating point, unbounded numbers as decimal strings) that embeds the
resolved configuration, so identical commands give byte-identical
output. Exit codes: 0 for success or a certified/conclusive verdict,
2 for inconclusive-at-budget verdicts, 1 for every error, which is
reported as one JSON line on stderr.
"""

import argparse
import functools
import json
import os
import sys

from . import jsonio
from .errors import IoError, PrepkitError, UsageError
from .h10 import FPOracle, Inconclusive, LazyBP, OverBudget, decision_probe, theta
from .padic_analysis import (bound_check_prime, certify_family,
                             certify_not_root, hensel_lift, phi_truncation,
                             reference_spec, small_root_of_gap,
                             VERDICT_INCONCLUSIVE)
from .resultant import hadamard_check, make_poly, resultant, tdegree_check
from .rings import make_ring
from .series import (Series, comp_inverse, compose, detect_periodic_01,
                     detect_recurrence, series_invert, series_mul)
from .weierstrass import prepare, strong_factor

FLAG_GRAMMAR = "kind:p:prec"
DEFAULT_BIT_BUDGET = 10 ** 6


def _bit_budget(args):
    if getattr(args, "budget", None) is not None:
        return args.budget
    raw = os.environ.get("PREPKIT_BUDGET_BITS", "")
    return int(raw) if raw.strip() else DEFAULT_BIT_BUDGET


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_text(path):
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as e:
        raise IoError("cannot read %s: %s" % (path, e), path=path)


def _read_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except ValueError as e:
        raise UsageError("input %s is not JSON: %s" % (path, e))


def _ring_flag(value):
    try:
        return jsonio.parse_ring_flag(value)
    except UsageError:
        raise
    except PrepkitError as e:
        raise UsageError("--ring %s: %s" % (value, e))
    except ValueError as e:
        raise UsageError("--ring %s: %s" % (value, e))


def _load_spec(value):
    if value in ("zero", "p"):
        return reference_spec(value)
    if os.path.exists(value):
        return jsonio.gapspec_from_json(_read_json(value))
    raise UsageError("--spec %s: no such file (or use 'zero'/'p' for the "
                     "reference description)" % value)


def _inject_ring(payload, ring):
    if isinstance(payload, dict) and "ring" not in payload and ring is not None:
        payload = dict(payload)
        payload["ring"] = jsonio.ring_to_json(ring)
    return payload


def _load_series(payload, ring):
    if isinstance(payload, list):
        if ring is None:
            raise UsageError("bare coefficient lists need --ring")
        payload = {"ring": jsonio.ring_to_json(ring), "coeffs": payload}
    f, okind = jsonio.series_from_json(_inject_ring(payload, ring))
    if ring is not None and f.ring != ring:
        raise UsageError("--ring disagrees with the input's embedded ring")
    return f, okind


def _load_poly(payload, ring):
    if isinstance(payload, list):
        if ring is None:
            raise UsageError("bare coefficient lists need --ring")
        payload = {"ring": jsonio.ring_to_json(ring), "coeffs": payload}
    P = jsonio.poly_from_json(_inject_ring(payload, ring))
    if ring is not None and P.ring != ring:
        raise UsageError("--ring disagrees with the input's embedded ring")
    return P


def _load_dio(args):
    if getattr(args, "expr", None):
        return jsonio.dio_from_json(args.expr)
    if getattr(args, "infile", None):
        text = _read_text(args.infile)
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return jsonio.dio_from_json(json.loads(text))
        return jsonio.dio_from_json(text)
    raise UsageError("give a polynomial inline or via --in")


def _config(verb, op, args, spec=None, extra=None):
    cfg = {"verb": verb, "flag_grammar": FLAG_GRAMMAR}
    if op:
        cfg["op"] = op
    if getattr(args, "ring", None):
        cfg["ring"] = args.ring
    if getattr(args, "infile", None):
        cfg["in"] = args.infile
    if spec is not None:
        cfg["spec"] = jsonio.gapspec_to_json(spec)
    for name in ("N", "K", "budget", "degree_cap", "height_cap",
                 "base_prime", "d"):
        v = getattr(args, name, None)
        if v is not None:
            cfg[name.replace("_", "-")] = str(v)
    if extra:
        cfg.update(extra)
    return cfg


# ------------------------------------------------------------------ verbs

def _run_prepare(args, strong):
    ring = _ring_flag(args.ring) if args.ring else None
    f, _ = _load_series(_read_json(args.infile), ring)
    wf = strong_factor(f) if strong else prepare(f)
    rep = jsonio.wfact_to_json(wf)
    rep["config"] = _config("strong-factor" if strong else "prepare",
                            None, args)
    return rep, 0


def _run_series(args):
    ring = _ring_flag(args.ring) if args.ring else None
    payload = _read_json(args.infile)
    op = args.op
    if op in ("mul", "compose"):
        if not isinstance(payload, dict) or "f" not in payload or "g" not in payload:
            raise UsageError("series %s needs {\"f\":..., \"g\":...}" % op)
        f, _ = _load_series(payload["f"], ring)
        g, _ = _load_series(payload["g"], ring)
        out = series_mul(f, g) if op == "mul" else compose(f, g)
        rep = jsonio.series_to_json(out)
        rep["config"] = _config("series", op, args)
        return rep, 0
    single = payload.get("f", payload) if isinstance(payload, dict) else payload
    f, okind = _load_series(single, ring)
    if op == "invert":
        rep = jsonio.series_to_json(series_invert(f))
    elif op == "comp-inverse":
        rep = jsonio.series_to_json(comp_inverse(f))
    elif op == "rationality":
        return _run_rationality(args, f, okind)
    else:
        raise UsageError("unknown series op %r" % op)
    rep["config"] = _config("series", op, args)
    return rep, 0


def _run_rationality(args, f, okind):
    budget = args.budget if args.budget is not None else f.x_prec
    if okind in ("periodic", "h10"):
        offset = 1 if okind == "h10" else 0
        upto = min(budget + offset, f.x_prec)
        vals = [f.coeff(i) for i in range(offset, upto)]
        verdict = detect_periodic_01(vals, len(vals))
        route = "periodic01"
    else:
        upto = min(budget, f.x_prec)
        if upto < 1:
            raise UsageError("--budget must be at least 1, got %d" % budget)
        head = Series(f.ring, upto, tuple(f.window(upto)))
        max_order = (args.degree_cap if args.degree_cap is not None
                     else (upto - 2) // 2)
        verdict = detect_recurrence(head, max_order)
        route = "recurrence"
        offset = 0
    rep = jsonio.rationality_to_json(verdict)
    rep["route"] = route
    rep["offset"] = str(offset)
    rep["config"] = _config("series", "rationality", args)
    return rep, 0 if verdict.is_rational else 2


def _run_resultant(args):
    ring = _ring_flag(args.ring) if args.ring else None
    payload = _read_json(args.infile)
    if not isinstance(payload, dict) or "f" not in payload or "g" not in payload:
        raise UsageError("resultant needs {\"f\":..., \"g\":...}")
    f = _load_poly(payload["f"], ring)
    g = _load_poly(payload["g"], ring)
    if args.op == "compute":
        rep = jsonio.resultant_to_json(f.ring, resultant(f, g))
    elif args.op == "hadamard":
        rep = jsonio.bound_report_to_json(f.ring, hadamard_check(f, g))
    elif args.op == "tdegree":
        rep = jsonio.bound_report_to_json(f.ring, tdegree_check(f, g))
    else:
        raise UsageError("unknown resultant op %r" % args.op)
    rep["config"] = _config("resultant", args.op, args)
    return rep, 0


def _run_hensel(args):
    if not args.ring:
        raise UsageError("hensel needs --ring")
    ring = _ring_flag(args.ring)
    if ring.prec is None:
        raise UsageError("hensel needs a finite-precision ring")
    payload = _read_json(args.infile)
    if not isinstance(payload, dict) or "poly" not in payload or "x0" not in payload:
        raise UsageError("hensel needs {\"poly\":[...], \"x0\":...}")
    exact = make_ring("fpt_exact" if ring.kind == "fpt" else "z", ring.p)
    P = make_poly(exact, [jsonio.elem_from_json(exact, c)
                          for c in payload["poly"]])
    x0 = jsonio.elem_from_json(ring, payload["x0"])
    K = args.K if args.K is not None else ring.prec
    root, trace = hensel_lift(P, x0, K, ring=ring, with_trace=True)
    work = make_ring(ring.kind, ring.p, K)
    rep = {"ring": jsonio.ring_to_json(work),
           "root": jsonio.elem_to_json(work, root),
           "trace": [jsonio.elem_to_json(work, t) for t in trace],
           "config": _config("hensel", None, args)}
    return rep, 0


def _run_gap(args):
    spec = _load_spec(args.spec) if args.op != "probe" else None
    if args.op == "probe":
        return _run_probe(args, "gap")
    if args.op == "root":
        if args.K is None:
            raise UsageError("gap root needs --K")
        ring = spec.work_ring(args.K)
        lam = small_root_of_gap(spec, args.K)
        rep = {"ring": jsonio.ring_to_json(ring),
               "lam": jsonio.elem_to_json(ring, lam),
               "config": _config("gap", "root", args, spec)}
        return rep, 0
    if args.op == "phi":
        if args.N is None:
            raise UsageError("gap phi needs --N")
        P = phi_truncation(spec, args.N, args.budget)
        rep = jsonio.poly_to_json(P)
        rep["config"] = _config("gap", "phi", args, spec)
        return rep, 0
    if args.op == "bound":
        if args.N is None or args.K is None:
            raise UsageError("gap bound needs --N and --K")
        ring = spec.work_ring(args.K)
        lam = small_root_of_gap(spec, args.K)
        bc = bound_check_prime(spec, lam, args.N, ring)
        rep = jsonio.bound_check_to_json(bc)
        rep["lam"] = jsonio.elem_to_json(ring, lam)
        rep["config"] = _config("gap", "bound", args, spec)
        return rep, 0
    if args.op == "certify":
        if args.N is None or args.K is None:
            raise UsageError("gap certify needs --N and --K")
        if not args.infile:
            raise UsageError("gap certify needs --in with a candidate")
        payload = _read_json(args.infile)
        has_ring = isinstance(payload, dict) and "ring" in payload
        P = _load_poly(payload, None if has_ring else spec.exact_ring())
        ring = spec.work_ring(args.K)
        lam = small_root_of_gap(spec, args.K)
        rep_obj = certify_not_root(spec, lam, P, args.N, ring)
        rep = jsonio.cert_report_to_json(spec, rep_obj)
        rep["config"] = _config("gap", "certify", args, spec)
        return rep, 0 if rep_obj.verdict != VERDICT_INCONCLUSIVE else 2
    if args.op == "sweep":
        if args.N is None or args.K is None:
            raise UsageError("gap sweep needs --N and --K")
        D = args.degree_cap if args.degree_cap is not None else 2
        H = args.height_cap if args.height_cap is not None else 5
        ring = spec.work_ring(args.K)
        lam = small_root_of_gap(spec, args.K)
        summary = certify_family(spec, lam, D, H, args.N, ring)
        rep = jsonio.family_summary_to_json(spec, summary)
        rep["config"] = _config("gap", "sweep", args, spec)
        return rep, 0 if summary.n_inconclusive == 0 else 2
    raise UsageError("unknown gap op %r" % args.op)


def _run_probe(args, verb):
    P = _load_dio(args)
    points = args.N if getattr(args, "N", None) is not None else 100
    verdict = decision_probe(P, points=points, bits=_bit_budget(args))
    rep = jsonio.probe_to_json(verdict)
    rep["poly"] = jsonio.dio_to_json(P)
    rep["config"] = _config(verb, "probe", args)
    return rep, 2 if isinstance(verdict, Inconclusive) else 0


def _run_h10(args):
    if args.op == "probe":
        return _run_probe(args, "h10")
    if args.op == "theta":
        if args.N is None:
            raise UsageError("h10 theta needs --N")
        d = args.d if args.d is not None else 2
        pt = theta(args.N, d)
        rep = {"n": str(args.N), "d": str(d),
               "point": [str(c) for c in pt],
               "config": _config("h10", "theta", args)}
        return rep, 0
    P = _load_dio(args)
    if args.op == "bp":
        if args.N is None:
            raise UsageError("h10 bp needs --N")
        bp = LazyBP(P, _bit_budget(args))
        res = bp.value(args.N)
        values, over = bp.exact_prefix()
        if not isinstance(res, OverBudget):
            over = None
        rep = jsonio.bp_to_json(values[:args.N + 1], over)
        rep["poly"] = jsonio.dio_to_json(P)
        rep["config"] = _config("h10", "bp", args)
        return rep, 0
    if args.op == "encode":
        count = args.N if args.N is not None else 32
        a0 = args.base_prime if args.base_prime is not None else 2
        orc = FPOracle(P, a0, _bit_budget(args))
        rep = jsonio.series_to_json(orc.series(count))
        rep["a0"] = str(a0)
        rep["poly"] = jsonio.dio_to_json(P)
        rep["config"] = _config("h10", "encode", args)
        return rep, 0
    raise UsageError("unknown h10 op %r" % args.op)


# ------------------------------------------------------------------ wiring

@functools.cache
def build_parser():
    """The argparse tree, built on first use and shared by every later
    main() call in the process; parsing leaves it unchanged."""
    top = _Parser(prog="prepkit", description=__doc__)
    sub = top.add_subparsers(dest="verb")
    sub.required = True

    def common(p, ring=True, infile=True, out=True):
        if ring:
            p.add_argument("--ring", help="ring flag, grammar %s" % FLAG_GRAMMAR)
        if infile:
            p.add_argument("--in", dest="infile", help="input file")
        if out:
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


def run(args):
    if args.verb == "prepare":
        return _run_prepare(args, strong=False)
    if args.verb == "strong-factor":
        return _run_prepare(args, strong=True)
    if args.verb == "series":
        return _run_series(args)
    if args.verb == "resultant":
        return _run_resultant(args)
    if args.verb == "hensel":
        return _run_hensel(args)
    if args.verb == "gap":
        return _run_gap(args)
    if args.verb == "h10":
        return _run_h10(args)
    raise UsageError("unknown verb %r" % args.verb)


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
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if not getattr(args, "infile", None) and args.verb in (
                "prepare", "strong-factor", "series", "resultant", "hensel"):
            raise UsageError("%s needs --in" % args.verb)
        if args.verb == "gap" and args.op != "probe" and not args.spec:
            raise UsageError("gap %s needs --spec" % args.op)
        report, code = run(args)
        _emit(jsonio.dumps(report), getattr(args, "out", None))
        return code
    except Exception as e:  # every failure leaves as one JSON line
        err = {"error": {"type": type(e).__name__, "message": str(e)}}
        sys.stderr.write(jsonio.dumps(err))
        return 1


if __name__ == "__main__":
    sys.exit(main())
