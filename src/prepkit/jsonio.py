"""Canonical JSON for every CLI payload.

Emission rules: keys sorted, compact separators, one trailing newline,
no floating point anywhere. Unbounded numbers (element values, counts,
valuations, margins) are exact decimal strings; t-digit expansions are
arrays of small ints per the element schema; structural sizes that the
input schemas fix as ints (precision, window, budget) stay ints.
"""

import json
from fractions import Fraction

from .errors import BadPrecision, UsageError
from .h10 import FPOracle, make_dio, parse_dio_inline, parse_dio_text
from .padic_analysis import GapSpec, build_gap_series
from .resultant import make_poly
from .rings import make_ring
from .series import OracleSeries, make_series


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _is_tuple_kind(ring):
    return ring.kind in ("fpt", "fpt_exact")


# ---------------------------------------------------------------- rings

def ring_to_json(ring):
    out = {"kind": ring.kind}
    if ring.p is not None:
        out["p"] = ring.p
    if ring.prec is not None:
        out["prec"] = ring.prec
    return out


def ring_from_json(d):
    if not isinstance(d, dict) or "kind" not in d:
        raise UsageError("ring descriptor must be an object with a kind")
    p = d.get("p")
    prec = d.get("prec")
    return make_ring(d["kind"],
                     None if p is None else int(p),
                     None if prec is None else int(prec))


def parse_ring_flag(text):
    """Inline grammar kind[:p[:prec]], e.g. zp:5:12 or z or z:2."""
    parts = text.split(":")
    kind = parts[0]
    try:
        p = int(parts[1]) if len(parts) > 1 else None
        prec = int(parts[2]) if len(parts) > 2 else None
    except ValueError:
        raise UsageError("ring flag %r is not kind[:p[:prec]]" % text)
    if len(parts) > 3:
        raise UsageError("ring flag %r is not kind[:p[:prec]]" % text)
    return make_ring(kind, p, prec)


# -------------------------------------------------------------- elements

def elem_to_json(ring, x):
    if _is_tuple_kind(ring):
        return [int(d) for d in x]
    return str(x)


def elem_from_json(ring, v):
    return ring.canon(_elem_value(ring, v))


def _elem_value(ring, v):
    """The element v decodes to, before ring.canon."""
    if _is_tuple_kind(ring):
        if not isinstance(v, (list, tuple)):
            raise UsageError("element of %s must be a digit array" % ring.kind)
        return tuple(map(int, v))
    if isinstance(v, bool) or isinstance(v, float):
        raise UsageError("element must be an integer or decimal string")
    return int(v)


# ---------------------------------------------------------------- series

def series_to_json(f):
    if isinstance(f, OracleSeries):
        f = f.materialize(f.x_prec)
    return {"ring": ring_to_json(f.ring),
            "x_prec": f.x_prec,
            "coeffs": [elem_to_json(f.ring, c) for c in f.coeffs]}


def series_from_json(d):
    """Returns (series, oracle_kind); oracle_kind is None for plain
    coefficient lists and "explicit" oracles."""
    if not isinstance(d, dict):
        raise UsageError("series payload must be an object")
    if "oracle" in d:
        return _series_from_oracle(d)
    ring = ring_from_json(d.get("ring", {}))
    coeffs = d.get("coeffs")
    if not isinstance(coeffs, list):
        raise UsageError("series needs a coeffs array")
    # make_series canonicalizes each value
    vals = [_elem_value(ring, c) for c in coeffs]
    x_prec = _x_prec(int(d["x_prec"]) if "x_prec" in d else len(vals))
    return make_series(ring, vals, x_prec), None


def _x_prec(x_prec):
    if x_prec < 1:
        raise BadPrecision("series needs x_prec >= 1, got %d" % x_prec,
                           x_prec=x_prec)
    return x_prec


def _series_from_oracle(d):
    spec = d["oracle"]
    kind = spec.get("kind")
    if "x_prec" not in d:
        raise UsageError("oracle series needs an explicit x_prec")
    x_prec = _x_prec(int(d["x_prec"]))
    if kind == "explicit":
        ring = ring_from_json(d.get("ring", {}))
        vals = [_elem_value(ring, c) for c in spec.get("coeffs", [])]
        return make_series(ring, vals, x_prec), None
    if kind == "periodic":
        ring = ring_from_json(d.get("ring", {}))
        prefix = [int(c) for c in spec.get("prefix", [])]
        cycle = [int(c) for c in spec.get("cycle", [])]
        if not cycle:
            raise UsageError("periodic oracle needs a nonempty cycle")

        def fn(n):
            if n < len(prefix):
                return ring.from_int(prefix[n])
            return ring.from_int(cycle[(n - len(prefix)) % len(cycle)])

        return OracleSeries(ring, fn, x_prec), "periodic"
    if kind == "gap":
        gspec = gapspec_from_json(spec.get("spec", {}))
        f = build_gap_series(gspec)
        if "ring" in d and ring_from_json(d["ring"]) != f.ring:
            raise UsageError("gap oracle ring does not match its spec")
        return OracleSeries(f.ring, f.coeff, x_prec), "gap"
    if kind == "h10":
        P = dio_from_json(spec.get("poly"))
        a0 = int(spec.get("a0", 2))
        bits = int(spec.get("bit_budget", 10 ** 6))
        orc = FPOracle(P, a0, bits)
        return orc.series(x_prec), "h10"
    raise UsageError("unknown oracle kind %r" % kind)


# ----------------------------------------------------------- polynomials

def poly_to_json(P):
    return {"ring": ring_to_json(P.ring),
            "coeffs": [elem_to_json(P.ring, c) for c in P.coeffs]}


def poly_from_json(d):
    if not isinstance(d, dict) or "coeffs" not in d:
        raise UsageError("polynomial payload needs ring and coeffs")
    ring = ring_from_json(d.get("ring", {}))
    return make_poly(ring, [elem_from_json(ring, c) for c in d["coeffs"]])


# -------------------------------------------------------------- gap specs

def _gap_coeff_from_json(char, v):
    if char == "zero":
        return int(v)
    return tuple(int(x) for x in v)


def gapspec_to_json(spec):
    # coefficients echo as given, padding digits included
    ring = spec.exact_ring()
    a = {"kind": spec.a_rule["kind"]}
    if a["kind"] == "const_after":
        a["a0"] = elem_to_json(ring, spec.a_rule["a0"])
        a["rest"] = elem_to_json(ring, spec.a_rule["rest"])
    else:
        a["values"] = [elem_to_json(ring, v) for v in spec.a_rule["values"]]
        if "rest" in spec.a_rule:
            a["rest"] = elem_to_json(ring, spec.a_rule["rest"])
    b = {"kind": spec.b_rule["kind"]}
    if b["kind"] == "explicit":
        b["values"] = [int(v) for v in spec.b_rule["values"]]
    out = {"char": spec.characteristic, "p": spec.p, "a": a, "b": b,
           "C": str(spec.C), "kappa": str(spec.kappa),
           "budget": spec.budget}
    if spec.witness != 1:
        out["witness"] = spec.witness
    return out


def gapspec_from_json(d):
    if not isinstance(d, dict) or "char" not in d:
        raise UsageError("gap spec needs a char field")
    char = d["char"]
    araw = d.get("a", {})
    a = {"kind": araw.get("kind")}
    if a["kind"] == "const_after":
        a["a0"] = _gap_coeff_from_json(char, araw["a0"])
        a["rest"] = _gap_coeff_from_json(char, araw["rest"])
    elif a["kind"] == "explicit":
        a["values"] = [_gap_coeff_from_json(char, v) for v in araw["values"]]
        if "rest" in araw:
            a["rest"] = _gap_coeff_from_json(char, araw["rest"])
    else:
        raise UsageError("unknown coefficient rule %r" % a["kind"])
    braw = d.get("b", {})
    b = {"kind": braw.get("kind")}
    if b["kind"] == "explicit":
        b["values"] = [int(v) for v in braw["values"]]
    elif b["kind"] != "pow2_nsq":
        raise UsageError("unknown exponent rule %r" % b["kind"])
    return GapSpec(char, int(d.get("p", 2)), a, b,
                   Fraction(d.get("C", "2")), Fraction(d.get("kappa", "2")),
                   int(d.get("budget", 65536)), int(d.get("witness", 1)))


# ------------------------------------------------------------- h10 inputs

def dio_from_json(v):
    """Accepts the inline grammar (string), the sparse line format
    (string containing ':'), or {"d":…, "terms":[[[e,…],c],…]}."""
    if isinstance(v, str):
        if ":" in v:
            return parse_dio_text(v)
        return parse_dio_inline(v)
    if isinstance(v, dict) and "terms" in v:
        terms = [(tuple(int(e) for e in exps), int(c))
                 for exps, c in v["terms"]]
        return make_dio(int(v.get("d", 1)), terms)
    raise UsageError("cannot read a polynomial from %r" % (v,))


def dio_to_json(P):
    return {"d": P.d,
            "terms": [[[int(e) for e in exps], str(c)]
                      for exps, c in P.terms]}


# ---------------------------------------------------------------- reports

def wfact_to_json(wf):
    """Report of a factorization that prepare or strong_factor has
    already checked against its input."""
    return {"v": str(wf.v), "n": str(wf.n),
            "P": [elem_to_json(wf.ring, c) for c in wf.P],
            "U": series_to_json(wf.U),
            "check": "ok"}


def resultant_to_json(ring, B):
    return {"ring": ring_to_json(ring), "B": elem_to_json(ring, B)}


def bound_report_to_json(ring, rep):
    return {"which": rep.which,
            "B": elem_to_json(ring, rep.B),
            "lhs": str(rep.lhs), "rhs": str(rep.rhs),
            "bound_ok": rep.bound_ok}


def margin_to_json(m):
    return {"kind": m.kind,
            "lhs_factors": [[b, e] for b, e in m.lhs_factors],
            "rhs_factors": [[b, e] for b, e in m.rhs_factors],
            "flipped": m.flipped}


def bound_check_to_json(bc):
    return {"N": str(bc.N), "phi_val": str(bc.phi_val),
            "lower": str(bc.lower), "required": str(bc.required),
            "lam_val": str(bc.lam_val), "equality": bc.equality}


def cert_report_to_json(spec, rep):
    ring = spec.exact_ring()
    return {"candidate": [elem_to_json(ring, c) for c in rep.candidate],
            "N": str(rep.N), "b_next": str(rep.b_next),
            "phi_val": str(rep.phi_val),
            "B": elem_to_json(ring, rep.B),
            "B_val": None if rep.B_val is None else str(rep.B_val),
            "p_at_lam_val": (None if rep.p_at_lam_val is None
                             else str(rep.p_at_lam_val)),
            "verdict": rep.verdict,
            "margin": margin_to_json(rep.margin)}


def family_summary_to_json(spec, s):
    return {"total": str(s.total),
            "certified": str(s.n_certified),
            "shared_factor": str(s.n_shared),
            "inconclusive": str(s.n_inconclusive),
            "route": s.route,
            "pl_checked": str(s.pl_checked),
            "max_pl_val": None if s.max_pl_val is None else str(s.max_pl_val),
            "max_B_val": None if s.max_B_val is None else str(s.max_B_val),
            "samples": [cert_report_to_json(spec, r) for r in s.samples],
            "margin": margin_to_json(s.margin)}


def _q_entry(c):
    # recurrence witnesses live over ints, Fractions, F_p, F_p[t]
    # digit tuples, or (numerator, denominator) digit-tuple pairs
    if isinstance(c, tuple):
        if c and isinstance(c[0], tuple):
            return [[int(x) for x in c[0]], [int(x) for x in c[1]]]
        return [int(x) for x in c]
    return str(c)


def rationality_to_json(v):
    out = {"kind": v.kind, "budget": str(v.budget)}
    if v.is_rational:
        out["d"] = str(v.d)
        out["s"] = None if v.s is None else str(v.s)
        out["q"] = None if v.q is None else [_q_entry(c) for c in v.q]
    return out


def probe_to_json(v):
    from .h10 import GapGrowthEvidence, Inconclusive, RationalCertified
    if isinstance(v, RationalCertified):
        return {"verdict": "rational_certified",
                "zero_index": str(v.zero_index),
                "point": [str(c) for c in v.point]}
    if isinstance(v, GapGrowthEvidence):
        return {"verdict": "gap_growth_evidence",
                "first_n": str(v.first_n),
                "samples": [[str(n), str(E)] for n, E in v.samples],
                "reason": v.zero_free_reason}
    if isinstance(v, Inconclusive):
        return {"verdict": "inconclusive", "points": str(v.points)}
    raise ValueError("not a probe verdict: %r" % (v,))


def bp_to_json(values, over):
    return {"values": [str(b) for b in values],
            "over": None if over is None else
            {"n": str(over.n), "predicted_bits": str(over.predicted_bits)}}
