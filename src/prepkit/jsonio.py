"""Canonical JSON for every CLI payload.

Emission rules: keys sorted, compact separators, one trailing newline,
no floating point anywhere. Unbounded numbers (element values, counts,
valuations, margins) are exact decimal strings; t-digit expansions are
arrays of small ints per the element schema; structural sizes that the
input schemas fix as ints (precision, window, budget) stay ints.

Every decimal field is read with dec_int and written with dec_str:
str and int for as many digits as Python converts directly (4,300 by
default), and the decimal module, which has no such limit, past that.
"""

import json
import re
from dataclasses import replace
from fractions import Fraction
from itertools import chain

from .errors import UsageError
from .h10 import (DEFAULT_BIT_BUDGET, FPOracle, make_dio, parse_dio_inline,
                  parse_dio_text)
from .padic_analysis import GapSpec, build_gap_series
from .resultant import make_poly
from .rings import make_ring
from .series import OracleSeries, check_x_prec, make_series


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# the text int() reads in base 10, ASCII digits only
_DECIMAL = re.compile(r"\s*[+-]?[0-9]+(?:_[0-9]+)*\s*")


def dec_str(n):
    """The decimal string of the int n."""
    try:
        return str(n)
    except ValueError:  # past Python's int/str digit limit
        import decimal
        return str(decimal.Decimal(n))


def dec_int(s):
    """The int that s, an int or a decimal string, names. Raises
    ValueError on malformed text, as int does."""
    try:
        return int(s)
    except ValueError:
        if not (isinstance(s, str) and _DECIMAL.fullmatch(s)):
            raise
        import decimal
        return int(decimal.Decimal(s))


def _decimal(what, v):
    """dec_int(v) for the payload value named what, which must be an int
    or a decimal string; a UsageError naming what otherwise."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise UsageError("%s must be an integer or decimal string" % what)
    try:
        return dec_int(v)
    except ValueError as e:
        raise UsageError("%s %.40r does not decode: %s"
                         % (what, v, e)) from None


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


# -------------------------------------------------------------- elements

def elem_to_json(ring, x):
    if _is_tuple_kind(ring):
        return [int(d) for d in x]
    return dec_str(x)


def elem_from_json(ring, v):
    return ring.canon(_elem_values(ring, [v])[0])


def _elem_values(ring, vs):
    """The values of the JSON elements vs, before ring.canon: ints for
    the integer kinds (JSON ints or decimal strings), digit tuples for
    the digit kinds (arrays of ints or decimal strings). One scan of
    the element types, and of the digit types, decodes the whole list;
    when it refuses, _elem_error names the first bad element."""
    try:
        if _is_tuple_kind(ring):
            if set(map(type, vs)) <= {list, tuple}:
                digit_types = set(map(type, chain.from_iterable(vs)))
                if digit_types <= {int}:
                    return list(map(tuple, vs))
                if digit_types <= {int, str}:
                    return [tuple(map(int, v)) for v in vs]
        elif set(map(type, vs)) <= {int, str}:
            return list(map(dec_int, vs))
    except ValueError:  # a malformed decimal string
        pass
    for v in vs:
        _elem_error(ring, v)
    raise UsageError("elements of %s must be integers, decimal strings or "
                     "digit arrays" % ring.kind)


def _elem_error(ring, v):
    """A UsageError naming v, or its first bad digit, when v does not
    decode as an element of ring; None when it does."""
    if not _is_tuple_kind(ring):
        _decimal("element", v)
    elif not isinstance(v, (list, tuple)):
        raise UsageError("element of %s must be a digit array" % ring.kind)
    else:
        for d in v:
            if isinstance(d, bool) or not isinstance(d, (int, str)):
                raise UsageError("digit %.40r of a %s element is not an "
                                 "integer or decimal string" % (d, ring.kind))
            try:
                int(d)
            except ValueError:
                raise UsageError("digits of a %s element must be integers"
                                 % ring.kind) from None


# ---------------------------------------------------------------- series

def series_to_json(f):
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
    vals = _elem_values(ring, coeffs)
    x_prec = check_x_prec(_decimal("x_prec", d["x_prec"]) if "x_prec" in d
                          else len(vals))
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
        vals = _elem_values(ring, spec.get("coeffs", []))
        return make_series(ring, vals, x_prec), None
    if kind == "periodic":
        ring = ring_from_json(d.get("ring", {}))
        prefix = [_decimal("prefix", c) for c in spec.get("prefix", [])]
        cycle = [_decimal("cycle", c) for c in spec.get("cycle", [])]
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
            "coeffs": [elem_to_json(P.ring, c) for c in P.coeffs]}


def poly_from_json(d):
    if not isinstance(d, dict) or "coeffs" not in d:
        raise UsageError("polynomial payload needs ring and coeffs")
    ring = ring_from_json(d.get("ring", {}))
    return make_poly(ring, _elem_values(ring, d["coeffs"]))


# -------------------------------------------------------------- gap specs

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
    braw = d.get("b", {})
    b = {"kind": braw.get("kind")}
    if b["kind"] == "explicit":
        b["values"] = [_decimal("spec b value", v) for v in braw["values"]]
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
    araw = d.get("a", {})
    a = {"kind": araw.get("kind")}
    if a["kind"] == "const_after":
        a["a0"], a["rest"] = _elem_values(ring, [araw["a0"], araw["rest"]])
    elif a["kind"] == "explicit":
        a["values"] = _elem_values(ring, araw["values"])
        if "rest" in araw:
            a["rest"], = _elem_values(ring, [araw["rest"]])
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
            "P": [elem_to_json(wf.ring, c) for c in wf.P],
            "U": series_to_json(wf.U),
            "check": "ok"}


def resultant_to_json(ring, B):
    return {"ring": ring_to_json(ring), "B": elem_to_json(ring, B)}


def bound_report_to_json(ring, rep):
    return {"which": rep.which,
            "B": elem_to_json(ring, rep.B),
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
    return {"candidate": [elem_to_json(ring, c) for c in rep.candidate],
            "N": dec_str(rep.N), "b_next": dec_str(rep.b_next),
            "phi_val": dec_str(rep.phi_val),
            "B": elem_to_json(ring, rep.B),
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


def _q_entry(c):
    # an int over F_p and on the periodic route; a FractionField
    # (num, den) pair over Z or F_p[t]
    if not isinstance(c, tuple):
        return dec_str(c)
    num, den = c
    if isinstance(num, tuple):
        return [list(num), list(den)]
    return dec_str(num) if den == 1 else dec_str(num) + "/" + dec_str(den)


def rationality_to_json(v):
    out = {"kind": v.kind, "budget": dec_str(v.budget)}
    if v.is_rational:
        out["d"] = dec_str(v.d)
        out["s"] = None if v.s is None else dec_str(v.s)
        out["q"] = None if v.q is None else [_q_entry(c) for c in v.q]
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
