"""Canonical JSON for every CLI payload.

Emission rules: keys sorted, compact separators, one trailing newline,
no floating point anywhere. Unbounded numbers (element values, counts,
valuations, margins) are exact decimal strings; t-digit expansions are
arrays of small ints per the element schema; structural sizes that the
input schemas fix as ints (precision, window, budget) stay ints.

Every decimal field is read with dec_int and written with dec_str (from
rings, as are the element codecs: ring.decode and ring.encode). A list
field must be a JSON array.
"""

import json
from dataclasses import replace
from fractions import Fraction

from .errors import UsageError
from .h10 import (DEFAULT_BIT_BUDGET, FPOracle, make_dio, parse_dio_inline,
                  parse_dio_text)
from .padic_analysis import GapSpec, build_gap_series
from .resultant import make_poly
from .rings import _array, _decimal, dec_int, dec_str, make_ring
from .series import OracleSeries, check_x_prec, make_series


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _decimals(what, vs):
    """The ints of the JSON array vs of decimal values named what."""
    return [_decimal(what, v) for v in _array(what, vs)]


def _fraction(what, v):
    """Fraction(v) for the payload value named what, which must be an
    int or a string that Fraction reads; a UsageError naming what
    otherwise."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise UsageError("%s must be an integer or fraction string" % what)
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError("%s %.40r does not decode: %s"
                         % (what, v, e)) from None


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
                     None if p is None else _decimal("ring p", p),
                     None if prec is None else _decimal("ring prec", prec))


def parse_ring_flag(text):
    """Inline grammar kind[:p[:prec]], e.g. zp:5:12 or z or z:2."""
    parts = text.split(":")
    kind = parts[0]
    try:
        p = dec_int(parts[1]) if len(parts) > 1 else None
        prec = dec_int(parts[2]) if len(parts) > 2 else None
    except ValueError:
        raise UsageError("ring flag %r is not kind[:p[:prec]]" % text)
    if len(parts) > 3:
        raise UsageError("ring flag %r is not kind[:p[:prec]]" % text)
    return make_ring(kind, p, prec)


# ---------------------------------------------------------------- series

def series_to_json(f):
    return {"ring": ring_to_json(f.ring),
            "x_prec": f.x_prec,
            "coeffs": list(map(f.ring.encode, f.coeffs))}


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
    vals = ring.decode(coeffs, "series coeffs")
    x_prec = check_x_prec(_decimal("x_prec", d["x_prec"]) if "x_prec" in d
                          else len(vals), ring)
    return make_series(ring, vals, x_prec), None


def _series_from_oracle(d):
    spec = d["oracle"]
    if not isinstance(spec, dict):
        raise UsageError("series oracle must be an object")
    kind = spec.get("kind")
    if "x_prec" not in d:
        raise UsageError("oracle series needs an explicit x_prec")
    x_prec = check_x_prec(_decimal("x_prec", d["x_prec"]))
    if kind == "explicit":
        ring = ring_from_json(d.get("ring", {}))
        vals = ring.decode(spec.get("coeffs", []), "oracle coeffs")
        return make_series(ring, vals, x_prec), None
    if kind == "periodic":
        ring = ring_from_json(d.get("ring", {}))
        prefix = _decimals("prefix", spec.get("prefix", []))
        cycle = _decimals("cycle", spec.get("cycle", []))
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
        a0 = _decimal("h10 a0", spec.get("a0", 2))
        bits = _decimal("h10 bit_budget",
                        spec.get("bit_budget", DEFAULT_BIT_BUDGET))
        orc = FPOracle(P, a0, bits)
        return orc.series(x_prec), "h10"
    raise UsageError("unknown oracle kind %r" % kind)


# ----------------------------------------------------------- polynomials

def poly_to_json(P):
    return {"ring": ring_to_json(P.ring),
            "coeffs": list(map(P.ring.encode, P.coeffs))}


def poly_from_json(d):
    if not isinstance(d, dict) or "coeffs" not in d:
        raise UsageError("polynomial payload needs ring and coeffs")
    ring = ring_from_json(d.get("ring", {}))
    return make_poly(ring, ring.decode(d["coeffs"], "polynomial coeffs"))


# -------------------------------------------------------------- gap specs

def gapspec_to_json(spec):
    # coefficients echo as given, padding digits included
    ring = spec.exact_ring()
    a = {"kind": spec.a_rule["kind"]}
    if a["kind"] == "const_after":
        a["a0"] = ring.encode(spec.a_rule["a0"])
        a["rest"] = ring.encode(spec.a_rule["rest"])
    else:
        a["values"] = list(map(ring.encode, spec.a_rule["values"]))
        if "rest" in spec.a_rule:
            a["rest"] = ring.encode(spec.a_rule["rest"])
    b = {"kind": spec.b_rule["kind"]}
    if b["kind"] == "explicit":
        b["values"] = [int(v) for v in spec.b_rule["values"]]
    out = {"char": spec.characteristic, "p": spec.p, "a": a, "b": b,
           "C": str(spec.C), "kappa": str(spec.kappa),
           "budget": spec.budget}
    if spec.witness != 1:
        out["witness"] = spec.witness
    return out


def _rule(d, name):
    """The rule object of the gap spec d named name, {} when absent."""
    rule = d.get(name, {})
    if not isinstance(rule, dict):
        raise UsageError("spec %s must be an object" % name)
    return rule


def _field(rule, name, key):
    """rule[key] of the gap-spec rule named name; a UsageError naming
    the field when it is absent."""
    if key not in rule:
        raise UsageError("spec %s.%s is missing" % (name, key))
    return rule[key]


def gapspec_from_json(d):
    if not isinstance(d, dict) or "char" not in d:
        raise UsageError("gap spec needs a char field")
    braw = _rule(d, "b")
    b = {"kind": braw.get("kind")}
    if b["kind"] == "explicit":
        b["values"] = _decimals("spec b.values", _field(braw, "b", "values"))
    elif b["kind"] != "pow2_nsq":
        raise UsageError("unknown exponent rule %r" % b["kind"])
    spec = GapSpec(d["char"], _decimal("spec p", d.get("p", 2)), {}, b,
                   _fraction("spec C", d.get("C", "2")),
                   _fraction("spec kappa", d.get("kappa", "2")),
                   _decimal("spec budget", d.get("budget", 65536)),
                   _decimal("spec witness", d.get("witness", 1)))
    # coefficients decode as elements of the spec's exact ring, kept as
    # given (before canon) so that the report echoes them
    ring = spec.exact_ring()
    araw = _rule(d, "a")
    a = {"kind": araw.get("kind")}
    if a["kind"] == "const_after":
        a["a0"], a["rest"] = ring.decode([_field(araw, "a", "a0"),
                                          _field(araw, "a", "rest")], "spec a")
    elif a["kind"] == "explicit":
        a["values"] = ring.decode(_field(araw, "a", "values"),
                                  "spec a.values")
        if "rest" in araw:
            a["rest"], = ring.decode([araw["rest"]], "spec a.rest")
    else:
        raise UsageError("unknown coefficient rule %r" % a["kind"])
    return replace(spec, a_rule=a)


# ------------------------------------------------------------- h10 inputs

def dio_from_json(v):
    """Accepts the inline grammar (string), the sparse line format
    (string containing ':'), or {"d":…, "terms":[[[e,…],c],…]}."""
    if isinstance(v, str):
        if ":" in v:
            return parse_dio_text(v)
        return parse_dio_inline(v)
    if isinstance(v, dict) and "terms" in v:
        terms = v["terms"]
        if not isinstance(terms, list) or not all(
                isinstance(t, list) and len(t) == 2 and isinstance(t[0], list)
                for t in terms):
            raise UsageError("polynomial terms must be a list of "
                             "[[e, ...], c] pairs")
        terms = [(tuple(_decimal("exponent", e) for e in exps),
                  _decimal("coefficient", c)) for exps, c in terms]
        return make_dio(_decimal("polynomial d", v.get("d", 1)), terms)
    raise UsageError("cannot read a polynomial from %r" % (v,))


def dio_to_json(P):
    return {"d": P.d,
            "terms": [[[int(e) for e in exps], dec_str(c)]
                      for exps, c in P.terms]}


# ---------------------------------------------------------------- reports

def wfact_to_json(wf):
    """Report of a factorization that prepare or strong_factor has
    already checked against its input."""
    return {"v": dec_str(wf.v), "n": dec_str(wf.n),
            "P": list(map(wf.ring.encode, wf.P)),
            "U": series_to_json(wf.U),
            "check": "ok"}


def resultant_to_json(ring, B):
    return {"ring": ring_to_json(ring), "B": ring.encode(B)}


def bound_report_to_json(ring, rep):
    return {"which": rep.which,
            "B": ring.encode(rep.B),
            "lhs": dec_str(rep.lhs), "rhs": dec_str(rep.rhs),
            "bound_ok": rep.bound_ok}


def margin_to_json(m):
    return {"kind": m.kind,
            "lhs_factors": [[b, e] for b, e in m.lhs_factors],
            "rhs_factors": [[b, e] for b, e in m.rhs_factors],
            "flipped": m.flipped}


def bound_check_to_json(bc):
    return {"N": dec_str(bc.N), "phi_val": dec_str(bc.phi_val),
            "lower": dec_str(bc.lower), "required": dec_str(bc.required),
            "lam_val": dec_str(bc.lam_val), "equality": bc.equality}


def cert_report_to_json(spec, rep):
    ring = spec.exact_ring()
    return {"candidate": list(map(ring.encode, rep.candidate)),
            "N": dec_str(rep.N), "b_next": dec_str(rep.b_next),
            "phi_val": dec_str(rep.phi_val),
            "B": ring.encode(rep.B),
            "B_val": None if rep.B_val is None else dec_str(rep.B_val),
            "p_at_lam_val": (None if rep.p_at_lam_val is None
                             else dec_str(rep.p_at_lam_val)),
            "verdict": rep.verdict,
            "margin": margin_to_json(rep.margin)}


def family_summary_to_json(spec, s):
    return {"total": dec_str(s.total),
            "certified": dec_str(s.n_certified),
            "shared_factor": dec_str(s.n_shared),
            "inconclusive": dec_str(s.n_inconclusive),
            "route": s.route,
            "pl_checked": dec_str(s.pl_checked),
            "max_pl_val": (None if s.max_pl_val is None
                           else dec_str(s.max_pl_val)),
            "max_B_val": None if s.max_B_val is None else dec_str(s.max_B_val),
            "samples": [cert_report_to_json(spec, r) for r in s.samples],
            "margin": margin_to_json(s.margin)}


def rationality_to_json(v):
    out = {"kind": v.kind, "budget": dec_str(v.budget)}
    if v.is_rational:
        out["d"] = dec_str(v.d)
        out["s"] = None if v.s is None else dec_str(v.s)
        out["q"] = None if v.q is None else list(map(v.q_ring.encode, v.q))
    return out


def probe_to_json(v):
    from .h10 import GapGrowthEvidence, Inconclusive, RationalCertified
    if isinstance(v, RationalCertified):
        return {"verdict": "rational_certified",
                "zero_index": dec_str(v.zero_index),
                "point": [dec_str(c) for c in v.point]}
    if isinstance(v, GapGrowthEvidence):
        return {"verdict": "gap_growth_evidence",
                "first_n": dec_str(v.first_n),
                "samples": [[dec_str(n), dec_str(E)] for n, E in v.samples],
                "reason": v.zero_free_reason}
    if isinstance(v, Inconclusive):
        return {"verdict": "inconclusive", "points": dec_str(v.points)}
    raise ValueError("not a probe verdict: %r" % (v,))


def bp_to_json(values, over):
    return {"values": [dec_str(b) for b in values],
            "over": None if over is None else
            {"n": dec_str(over.n),
             "predicted_bits": dec_str(over.predicted_bits)}}
