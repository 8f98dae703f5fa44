"""Per-layer spans around prepkit's public functions, from outside it.

Tracer.installed() wraps each function in SPANS, in every prepkit module
that imported it by name (methods on their defining class), and restores
the originals on exit. A span records its name, start, end, parent span
and a size. A layer's self time is its spans' time minus the time of
their child spans. Self times are normalised with the kernel time
adjacent to their job (clock.py), like the end-to-end figures.
"""

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import clock

KINDS = ("zp", "zmodpk", "fpt", "z")
DECODE, ENCODE = "cli.decode", "cli.encode"
DIVIDE = "weierstrass.divide"


def _poly_dims(args, result):
    f, g = args[:2]
    return max(len(f.coeffs) - 1, 0) + max(len(g.coeffs) - 1, 0)


# (module, function or Class.method, span name, size of the call)
SPANS = [
    ("rings", "Ring.convolve", lambda a: "rings.convolve." + a[0].kind,
     lambda a, r: a[3]),
    ("rings", "IntModRing.convolve", lambda a: "rings.convolve." + a[0].kind,
     lambda a, r: a[3]),
    ("rings", "FpTRing.convolve", "rings.convolve.fpt", lambda a, r: a[3]),
    ("rings", "ExactZRing.convolve", "rings.convolve.z", lambda a, r: a[3]),
    ("rings", "Ring.convolve_ref", "rings.convolve_ref", None),
    ("series", "series_mul", "series.mul", None),
    ("series", "series_invert", "series.invert", None),
    ("series", "compose", "series.compose", None),
    ("series", "comp_inverse", "series.comp_inverse", None),
    ("series", "detect_recurrence", "series.recurrence", None),
    ("weierstrass", "weierstrass_divide", DIVIDE, None),
    ("weierstrass", "prepare", "weierstrass.prepare", None),
    ("weierstrass", "strong_factor", "weierstrass.strong_factor", None),
    ("weierstrass", "WFactorization.verify", "weierstrass.verify", None),
    ("resultant", "resultant", "resultant", _poly_dims),
    ("padic_analysis", "small_root_of_gap", "padic_analysis.root", None),
    ("padic_analysis", "bound_check_prime", "padic_analysis.bound", None),
    ("padic_analysis", "certify_not_root", "padic_analysis.certify", None),
    ("padic_analysis", "phi_truncation", "padic_analysis.phi", None),
    ("padic_analysis", "enumerate_family", "padic_analysis.enumerate", None),
    ("padic_analysis", "certify_family", "padic_analysis.family",
     lambda a, r: r.total),
    ("cli", "main", "cli.main", None),
    ("cli", "_read_json", DECODE, None),
    ("jsonio", "parse_ring_flag", DECODE, None),
    ("jsonio", "series_from_json", DECODE, None),
    ("jsonio", "poly_from_json", DECODE, None),
    ("jsonio", "gapspec_from_json", DECODE, None),
    ("jsonio", "dumps", ENCODE, None),
    ("jsonio", "series_to_json", ENCODE, None),
    ("jsonio", "poly_to_json", ENCODE, None),
    ("jsonio", "wfact_to_json", ENCODE, None),
    ("jsonio", "rationality_to_json", ENCODE, None),
    ("jsonio", "bound_check_to_json", ENCODE, None),
    ("jsonio", "cert_report_to_json", ENCODE, None),
    ("jsonio", "family_summary_to_json", ENCODE, None),
    ("jsonio", "gapspec_to_json", ENCODE, None),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, size]
        self.stack = []
        self.job_spans = []  # (job index, spans) of the current pass
        self.last_pass = []
        self._agg = self._new_agg()

    @staticmethod
    def _new_agg():
        return {"calls": defaultdict(int), "size": defaultdict(int),
                "self_ms": defaultdict(float), "incl_ms": defaultdict(float),
                "conv_in_divide": 0}

    def _wrap(self, fn, name, size):
        spans, stack = self.spans, self.stack
        clock_ = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            span = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                    stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock_()
            try:
                result = fn(*args, **kw)
            finally:
                span[2] = clock_()
                stack.pop()
            if size is not None:
                span[4] = size(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every function of SPANS while the block runs."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "prepkit" or n.startswith("prepkit.")]
        undo = []
        try:
            for modname, qual, name, size in SPANS:
                mod = sys.modules["prepkit." + modname]
                if "." in qual:
                    owner_name, attr = qual.split(".")
                    owner = getattr(mod, owner_name)
                    orig = owner.__dict__[attr]
                    undo.append((owner, attr, orig))
                    setattr(owner, attr, self._wrap(orig, name, size))
                    continue
                orig = getattr(mod, qual)
                wrapper = self._wrap(orig, name, size)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            undo.append((m, attr, orig))
                            setattr(m, attr, wrapper)
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def end_job(self, index, kernel_s):
        """Fold the spans of one job into the pass totals."""
        spans = list(self.spans)
        del self.spans[:]
        scale = clock.KERNEL_REF_MS / kernel_s  # raw s -> normalised ms
        child = [0.0] * len(spans)
        in_divide = [False] * len(spans)
        agg = self._agg
        for i, (name, t0, t1, parent, size) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                in_divide[i] = in_divide[parent] or spans[parent][0] == DIVIDE
        for i, (name, t0, t1, parent, size) in enumerate(spans):
            agg["calls"][name] += 1
            agg["size"][name] += size
            agg["self_ms"][name] += (t1 - t0 - child[i]) * scale
            agg["incl_ms"][name] += (t1 - t0) * scale
            if in_divide[i] and name.startswith("rings.convolve."):
                agg["conv_in_divide"] += 1
        self.job_spans.append((index, spans))

    def end_pass(self):
        agg, self._agg = self._agg, self._new_agg()
        self.last_pass, self.job_spans = self.job_spans, []
        return agg

    def write(self, path, jobs):
        """The spans of the last traced pass, one JSON object a line."""
        with open(path, "w") as fh:
            for index, spans in self.last_pass:
                for i, (name, t0, t1, parent, size) in enumerate(spans):
                    fh.write(json.dumps({
                        "job": index, "class": jobs[index].cls, "span": i,
                        "name": name, "start": t0, "end": t1,
                        "parent": parent, "size": size}) + "\n")


def layer_metrics(aggs):
    """Per-layer metrics from the totals of each traced pass: counts
    from one pass (they repeat exactly), times as medians over passes."""
    first = aggs[0]
    for a in aggs[1:]:
        if (a["calls"], a["size"], a["conv_in_divide"]) != (
                first["calls"], first["size"], first["conv_in_divide"]):
            print("WARNING: call or size counts differ between traced passes")

    def count(name):
        return first["calls"].get(name, 0)

    def ms(*names, field="self_ms"):
        return statistics.median(sum(a[field].get(n, 0.0) for n in names)
                                 for a in aggs)

    out = {}
    for kind in KINDS:
        name = "rings.convolve." + kind
        out["rings.convolve_calls." + kind] = (count(name), "count")
        out["rings.convolve_coeffs." + kind] = (first["size"].get(name, 0),
                                                "count")
        out["rings.convolve_ms." + kind] = (ms(name), "ms")
    out["rings.convolve_ref_calls"] = (count("rings.convolve_ref"), "count")
    out["rings.convolve_ref_ms"] = (ms("rings.convolve_ref"), "ms")
    divides = count(DIVIDE)
    out["weierstrass.divide_calls"] = (divides, "count")
    out["weierstrass.divide_ms"] = (ms(DIVIDE), "ms")
    out["weierstrass.convolve_per_divide"] = (
        first["conv_in_divide"] / divides if divides else 0.0, "count")
    out["weierstrass.verify_calls"] = (count("weierstrass.verify"), "count")
    out["weierstrass.verify_ms"] = (ms("weierstrass.verify"), "ms")
    out["series.invert_calls"] = (count("series.invert"), "count")
    for short, name in (("invert", "series.invert"), ("mul", "series.mul"),
                        ("compose", "series.compose"),
                        ("comp_inverse", "series.comp_inverse")):
        out["series.%s_ms" % short] = (ms(name), "ms")
    out["series.recurrence_calls"] = (count("series.recurrence"), "count")
    out["series.recurrence_ms"] = (ms("series.recurrence"), "ms")
    out["resultant.calls"] = (count("resultant"), "count")
    out["resultant.ms"] = (ms("resultant"), "ms")
    out["resultant.matrix_dim_sum"] = (first["size"].get("resultant", 0),
                                       "count")
    for short in ("root", "bound"):
        out["padic_analysis.%s_ms" % short] = (
            ms("padic_analysis." + short), "ms")
    out["padic_analysis.certify_calls"] = (count("padic_analysis.certify"),
                                           "count")
    for short in ("certify", "enumerate", "family"):
        out["padic_analysis.%s_ms" % short] = (
            ms("padic_analysis." + short), "ms")
    family_ms = ms("padic_analysis.family", field="incl_ms")
    out["padic_analysis.candidates_per_s"] = (
        first["size"].get("padic_analysis.family", 0) / family_ms * 1000
        if family_ms else 0.0, "1/s")
    out["cli.decode_ms"] = (ms(DECODE), "ms")
    out["cli.encode_ms"] = (ms(ENCODE), "ms")
    out["cli.self_ms"] = (ms("cli.main"), "ms")
    return out
