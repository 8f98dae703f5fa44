"""The four workloads: seeded job lists of prepkit CLI runs.

Job shapes (ring, precision, window, reduction index, order, degree) are
fixed by a job's place in its list, so every seed has the same cost
profile; the seed picks only the coefficients and the job order.

Each list has 120 jobs in five cost bands, cheapest first:

    48 varied jobs | 24-job p50 block | 26 varied jobs | 16-job p90 block | 6 heavy

A block is one job shape with seeded inputs, so p50 (rank 59.5 of 0..119)
and p90 (rank 107.1) each fall inside a block of near-equal costs, at
least eight ranks from its edge, instead of on a step between two
classes of job. The bands were sized from single-job timings to be at
least a factor 1.25 apart in cost.
"""

import functools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks
from checks import GapChecker, GapSeries, require

WORKLOADS = ("prepare-deep", "series-wide", "rationality", "gap")


@dataclass
class Job:
    cls: str  # job class, e.g. "prepare zp:2"
    argv: list
    check: Callable  # check(report, exit_code) raises CheckFailed


def spread(lo, hi, count):
    """count ints evenly covering [lo, hi]."""
    if count == 1:
        return [lo]
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir
        self.n = 0
        os.makedirs(workdir, exist_ok=True)

    def __call__(self, payload):
        path = os.path.join(self.workdir, "in%03d.json" % self.n)
        self.n += 1
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        return path


# ------------------------------------------------------------ series data

def ring_desc(kind, p=None, prec=None):
    d = {"kind": kind}
    if p is not None:
        d["p"] = p
    if prec is not None:
        d["prec"] = prec
    return d


def _elem(rng, kind, p, K, v=0, unit=None):
    """Random element of valuation >= v; unit=True forces valuation
    exactly v, unit=False forces valuation > v."""
    if kind == "fpt":
        digits = [0] * v + [rng.randrange(p) for _ in range(K - v)]
        if unit is True:
            digits[v] = rng.randrange(1, p)
        elif unit is False and v < K:
            digits[v] = 0
        return digits
    if kind == "z":
        return str(rng.randint(-3, 3))
    mod = p ** K
    u = rng.randrange(p ** (K - v))
    if unit is True:
        u = u - u % p + rng.randrange(1, p)
    elif unit is False:
        u -= u % p
    return str(u * p ** v % mod)


def series_payload(rng, kind, p, K, m, n=0, v=0):
    """Window of m coefficients with least valuation v, first reached at
    index n (the reduction index after dividing out pi^v)."""
    coeffs = [_elem(rng, kind, p, K, v, unit=(i == n) if i <= n else None)
              for i in range(m)]
    return {"ring": ring_desc(kind, p, K), "coeffs": coeffs}


def _with(payload, index, value):
    payload["coeffs"][index] = value
    return payload


def _unit_one(kind, K):
    return [1] + [0] * (K - 1) if kind == "fpt" else "1"


def _zero(kind, K):
    return [0] * K if kind == "fpt" else "0"


# ---------------------------------------------------------------- prepare

def _prepare_jobs(rng, write, verb, kind, p, Ks, windows=None, vs=(0,),
                  ns=(0, 1, 2, 3, 4), label=None):
    jobs = []
    for i, K in enumerate(Ks):
        m = windows[i] if windows else K
        n = ns[i % len(ns)]
        v = vs[i % len(vs)]
        payload = series_payload(rng, kind, p, K, m, n, v)
        path = write(payload)

        def check(report, code, payload=payload):
            require(code == 0, "exit %d" % code)
            checks.check_wfact(report, payload)

        name = label or "%s %s:%d%s" % (verb, kind, p, " v>0" if max(vs) else "")
        jobs.append(Job(name, [verb, "--in", path], check))
    return jobs


def prepare_deep(rng, write):
    """Window = precision, so the K+2 full-precision division passes
    dominate."""
    P = functools.partial(_prepare_jobs, rng, write)
    J = []
    # below p50: 4-15 ms
    J += P("prepare", "zp", 2, spread(32, 48, 8))
    J += P("prepare", "zp", 3, spread(24, 40, 8))
    J += P("prepare", "zp", 1000003, spread(12, 18, 6))
    J += P("strong-factor", "zmodpk", 2, spread(32, 52, 8), vs=(1, 2, 3, 0))
    J += P("strong-factor", "zmodpk", 3, spread(24, 36, 6), vs=(1, 2, 0))
    J += P("prepare", "fpt", 2, spread(10, 15, 4))
    J += P("prepare", "fpt", 3, spread(10, 15, 4))
    # past the 2^32 packing bound of F_p[[t]] convolution
    J += P("prepare", "fpt", 65537, spread(6, 8, 4))
    # p50 block: ~20 ms
    J += P("prepare", "zp", 2, [64] * 24, ns=(2,), label="prepare zp:2 K=64")
    # between the blocks: 25-65 ms
    J += P("prepare", "zp", 2, spread(76, 100, 5))
    J += P("prepare", "zp", 3, spread(64, 80, 4))
    J += P("prepare", "zp", 1000003, spread(28, 32, 3))
    J += P("strong-factor", "zmodpk", 2, spread(84, 100, 4), vs=(1, 2, 3, 0))
    J += P("prepare", "fpt", 2, spread(24, 30, 3))
    J += P("strong-factor", "fpt", 3, spread(24, 30, 4), vs=(1, 2, 3))
    J += P("prepare", "fpt", 65537, spread(12, 14, 3))
    # p90 block: ~80 ms
    J += P("prepare", "fpt", 3, [34] * 16, ns=(2,), label="prepare fpt:3 K=34")
    # heavy: 130-200 ms
    J += P("prepare", "zp", 2, [128, 140])
    J += P("prepare", "fpt", 2, [40])
    J += P("prepare", "fpt", 65537, [20])
    J += P("strong-factor", "fpt", 3, [40], vs=(1,))
    J += P("prepare", "zp", 3, [110])
    return J


# ------------------------------------------------------------ series-wide

def _series_job(rng, write, op, kind, p, K, m):
    if op in ("mul", "compose"):
        f = series_payload(rng, kind, p, K, m)
        g = series_payload(rng, kind, p, K, m)
        if op == "compose":
            _with(g, 0, _zero(kind, K))
        inputs = {"f": f, "g": g}
        path = write(inputs)
    else:
        f = series_payload(rng, kind, p, K, m)
        if op == "invert":
            _with(f, 0, _elem(rng, kind, p, K, 0, unit=True))
        else:  # comp-inverse needs f = x + higher terms
            _with(_with(f, 0, _zero(kind, K)), 1, _unit_one(kind, K))
        inputs = {"f": f}
        path = write(f)

    def check(report, code, inputs=inputs):
        require(code == 0, "exit %d" % code)
        checks.check_series(op, report, inputs)

    label = "series %s %s" % (op, kind if kind == "z" else "%s:%d" % (kind, p))
    return Job(label, ["series", op, "--in", path], check)


def series_wide(rng, write):
    """Long windows at shallow precision (K <= 8): the same convolution
    and division code as prepare-deep in the opposite shape."""
    S = functools.partial(_series_job, rng, write)
    P = functools.partial(_prepare_jobs, rng, write)
    J = []
    bands = (
        # below p50: 3-15 ms
        [("invert", "zp", 2, 8, spread(256, 2048, 8)),
         ("invert", "zp", 7, 4, spread(256, 1536, 5)),
         ("mul", "zp", 5, 8, spread(256, 2048, 8)),
         ("mul", "z", None, None, spread(256, 1024, 6)),
         ("compose", "zp", 2, 8, spread(48, 128, 6)),
         ("compose", "z", None, None, spread(16, 40, 5)),
         ("comp-inverse", "zp", 3, 4, spread(48, 112, 5))],
        # between the blocks: 30-60 ms
        [("mul", "fpt", 2, 8, spread(1024, 1536, 4)),
         ("invert", "fpt", 3, 4, spread(896, 1024, 3)),
         ("compose", "zp", 2, 8, spread(192, 240, 3)),
         ("compose", "fpt", 3, 2, spread(88, 112, 3)),
         ("comp-inverse", "zp", 3, 4, spread(192, 240, 3)),
         ("comp-inverse", "fpt", 2, 4, spread(60, 72, 3)),
         # past the 2^32 packing bound of F_p[[t]] convolution
         ("invert", "fpt", 65537, 1, spread(56, 72, 3))],
        # heavy: 110-200 ms
        [("comp-inverse", "fpt", 2, 4, [128]),
         ("compose", "fpt", 3, 2, [192]),
         ("invert", "fpt", 65537, 1, [112])])
    J += [S(op, kind, p, K, m) for op, kind, p, K, ms in bands[0] for m in ms]
    J += P("prepare", "zp", 2, [8] * 5, windows=spread(256, 512, 5))
    # p50 block: ~20 ms
    J += P("strong-factor", "zmodpk", 3, [6] * 24, windows=[768] * 24,
           vs=(1,), ns=(2,), label="strong-factor zmodpk:3 m=768")
    J += [S(op, kind, p, K, m) for op, kind, p, K, ms in bands[1] for m in ms]
    J += P("prepare", "fpt", 65537, [2] * 2, windows=[28, 32])
    J += P("prepare", "zp", 2, [8] * 2, windows=[1024, 1536])
    # p90 block: ~80 ms
    J += P("prepare", "fpt", 3, [4] * 16, windows=[512] * 16, ns=(2,),
           label="prepare fpt:3 m=512")
    J += [S(op, kind, p, K, m) for op, kind, p, K, ms in bands[2] for m in ms]
    J += P("prepare", "fpt", 3, [4] * 2, windows=[768, 1024])
    J += P("prepare", "fpt", 65537, [2], windows=[48])
    return J


# ------------------------------------------------------------ rationality

def _field_elem(rng, kind, p, small=False):
    if kind == "zp":
        return rng.randrange(p)
    if kind == "z":
        return rng.randint(-2, 2) if small else rng.randint(-50, 50)
    return tuple(rng.randrange(p) for _ in range(2 if small else 3))


def _window(rng, kind, p, M, order):
    """order > 0: a window of the recurrence s[n] = sum c_j s[n-j] with
    c_order != 0; order 0: a random window."""
    if kind == "fpt_exact":
        P = checks.FpPoly(p)
        add, mul, trim = P.add, P.mul, P.trim
    elif kind == "zp":
        add, mul, trim = (lambda a, b: (a + b) % p), (lambda a, b: a * b % p), int
    else:
        add, mul, trim = (lambda a, b: a + b), (lambda a, b: a * b), int
    if order == 0:
        s = [trim(_field_elem(rng, kind, p)) for _ in range(M)]
    else:
        c = [trim(_field_elem(rng, kind, p, small=True)) for _ in range(order)]
        while not c[-1] or c[-1] == 0:
            c[-1] = trim(_field_elem(rng, kind, p, small=True))
        s = [trim(_field_elem(rng, kind, p)) for _ in range(order)]
        for n in range(order, M):
            acc = () if kind == "fpt_exact" else 0
            for j in range(1, order + 1):
                acc = add(acc, mul(c[j - 1], s[n - j]))
            s.append(acc)
    if kind == "fpt_exact":
        return [list(x) for x in s]
    return [str(x) for x in s]


def _rationality_job(rng, write, kind, p, M, order, max_order=None,
                     label=None):
    if max_order is None:
        max_order = (M - 2) // 2
    desc = (ring_desc("zp", p, 1) if kind == "zp" else
            ring_desc("z") if kind == "z" else ring_desc("fpt_exact", p))
    while True:
        payload = {"ring": desc, "coeffs": _window(rng, kind, p, M, order)}
        rational, d, _ = checks.rationality_expectation(payload, max_order)
        # a random window must have no recurrence up to max_order; a
        # recurrence window must have exactly the order it was built with
        if (not rational) if order == 0 else d == order:
            break
    path = write(payload)

    def check(report, code, payload=payload):
        rational = checks.rationality_expectation(payload, max_order)[0]
        require(code == (0 if rational else 2), "exit %d" % code)
        checks.check_rationality(report, payload, max_order)

    name = kind if kind == "z" else "%s:%d" % (kind, p)
    label = label or "rationality %s %s" % (name,
                                            "recurrence" if order else "none")
    argv = ["series", "rationality", "--in", path,
            "--degree-cap", str(max_order)]
    return Job(label, argv, check)


def rationality(rng, write):
    """Half the windows follow a recurrence of known order, which stops
    the per-order scan early; half have none up to max_order and force
    the full scan. max_order is (M - 2) // 2 throughout."""
    R = functools.partial(_rationality_job, rng, write)

    def rec(kind, p, Ms, frac):
        # recurrence order at a fraction of max_order
        return [R(kind, p, M, max(1, round(frac * ((M - 2) // 2))))
                for M in Ms]

    def none(kind, p, Ms, label=None):
        return [R(kind, p, M, 0, label=label) for M in Ms]

    J = []
    # below p50: 3-13 ms; 42 recurrence windows, 6 without
    J += rec("zp", 7, spread(24, 56, 16), 0.3)
    J += rec("zp", 101, spread(24, 48, 8), 0.3)
    J += rec("z", None, spread(16, 24, 8), 0.3)
    J += rec("fpt_exact", 2, spread(10, 14, 6), 0.4)
    J += rec("fpt_exact", 3, spread(10, 12, 4), 0.4)
    J += none("zp", 7, spread(24, 32, 3))
    J += none("zp", 101, spread(24, 28, 3))
    # p50 block: ~19 ms
    J += none("zp", 7, [40] * 24, label="rationality zp:7 none M=40")
    # between the blocks: 25-60 ms; 12 recurrence windows, 14 without
    J += rec("zp", 7, spread(56, 64, 6), 0.8)
    J += rec("z", None, spread(24, 26, 3), 0.85)
    J += rec("fpt_exact", 2, [14] * 3, 0.85)
    J += none("zp", 7, spread(44, 52, 5))
    J += none("zp", 101, spread(42, 46, 3))
    J += none("z", None, spread(22, 24, 3))
    J += none("fpt_exact", 2, [13, 14])
    J += none("fpt_exact", 3, [13])
    # p90 block: ~75 ms
    J += none("zp", 7, [58] * 16, label="rationality zp:7 none M=58")
    # heavy: recurrence orders near max_order on long windows
    J += rec("zp", 7, spread(66, 70, 4), 0.95)
    J += rec("zp", 101, [64, 66], 0.95)
    return J


# -------------------------------------------------------------------- gap

SPEC_ZERO = GapSeries("zero", 2, 2, 1)
SPEC_P = GapSeries("p", 2, (0, 1), (1,))
SPEC_C3 = GapSeries("p", 3, (0, 2), (1, 1))
C3_FILE = {"char": "p", "p": 3, "a": {"kind": "const_after", "a0": [0, 2],
                                      "rest": [1, 1]},
           "b": {"kind": "pow2_nsq"}, "C": "2", "kappa": "2"}


def _candidate(rng, G, deg, H):
    if G.char == "zero":
        c = [rng.randint(-H, H) for _ in range(deg)] + [rng.randint(1, H)]
        return c
    c = [tuple(rng.randrange(G.p) for _ in range(rng.randint(0, H + 1)))
         for _ in range(deg + 1)]
    while not any(c[-1]):
        c[-1] = tuple(rng.randrange(G.p) for _ in range(H + 1))
    return [list(x) for x in c]


def gap(rng, write):
    """Roots, bounds, certificates and sweeps on the reference specs and
    a characteristic-3 spec file; no Weierstrass division. Precision K
    must exceed b(N+1) = 16 for N = 1 and 512 for N = 2."""
    spec_path = write(C3_FILE)
    checkers = {"zero": GapChecker(SPEC_ZERO), "p": GapChecker(SPEC_P),
                "c3": GapChecker(SPEC_C3)}
    spec_arg = {"zero": "zero", "p": "p", "c3": spec_path}
    J = []

    def ok(code):
        require(code == 0, "exit %d" % code)

    def root(tag, Ks):
        C = checkers[tag]
        for K in Ks:
            J.append(Job("root " + tag, ["gap", "root", "--spec", spec_arg[tag],
                                         "--K", str(K)],
                         lambda r, c, C=C, K=K: (ok(c), C.check_root(r, K))))

    def bound(tag, N, Ks):
        C = checkers[tag]
        for K in Ks:
            J.append(Job("bound %s N=%d" % (tag, N),
                         ["gap", "bound", "--spec", spec_arg[tag],
                          "--N", str(N), "--K", str(K)],
                         lambda r, c, C=C, K=K: (ok(c),
                                                 C.check_bound(r, N, K))))

    def certify(tag, N, Ks, degs, label=None):
        C = checkers[tag]
        G = C.G
        for i, K in enumerate(Ks):
            cand = _candidate(rng, G, degs[i % len(degs)],
                              3 if G.char == "zero" else 2)
            path = write({"coeffs": [str(x) for x in cand]} if G.char == "zero"
                         else {"coeffs": cand})
            cand = [tuple(x) if isinstance(x, list) else x for x in cand]

            def check(r, c, C=C, K=K, cand=cand):
                inconclusive = r.get("verdict") == "inconclusive"
                require(c == (2 if inconclusive else 0), "exit %d" % c)
                C.check_cert(r, cand, N, K)

            J.append(Job(label or "certify %s N=%d" % (tag, N),
                         ["gap", "certify", "--spec", spec_arg[tag],
                          "--N", str(N), "--K", str(K), "--in", path], check))

    def sweep(tag, N, shapes, route):
        C = checkers[tag]
        for K, D, H in shapes:
            def check(r, c, C=C, K=K, D=D, H=H):
                inconclusive = int(r.get("inconclusive", "0")) > 0
                require(c == (2 if inconclusive else 0), "exit %d" % c)
                C.check_sweep(r, N, K, D, H, route)

            J.append(Job("sweep %s %s" % (tag, route),
                         ["gap", "sweep", "--spec", spec_arg[tag],
                          "--N", str(N), "--K", str(K), "--degree-cap", str(D),
                          "--height-cap", str(H)], check))

    # below p50: 2-5 ms
    root("zero", spread(20, 600, 10))
    bound("zero", 1, spread(17, 200, 6))
    bound("zero", 2, [520, 600])
    certify("zero", 1, spread(17, 120, 14), (1, 2, 3))
    certify("zero", 2, spread(513, 600, 8), (1, 2, 3))
    sweep("zero", 1, [(17, 1, 1), (24, 1, 2), (20, 2, 1), (30, 1, 3)],
          "per_candidate")
    root("p", [20, 24])
    root("c3", [20, 24])
    # p50 block: ~6 ms, the generic F_p[t] Bareiss lane (Sylvester size 5)
    certify("c3", 1, [24] * 24, (3,), label="certify c3 N=1 K=24 deg=3")
    # between the blocks: 8-30 ms
    certify("p", 1, spread(60, 160, 5), (1, 2, 3))
    certify("c3", 1, spread(60, 120, 5), (1, 2, 3))
    bound("p", 1, spread(60, 160, 4))
    bound("c3", 1, spread(60, 140, 3))
    root("p", spread(100, 160, 3))
    root("c3", spread(100, 140, 3))
    sweep("zero", 1, [(30, 2, 2), (36, 2, 3)], "per_candidate")
    sweep("p", 1, [(40, 1, 4)], "structural")
    # p90 block: ~50 ms, dominated by the root at K = 200
    certify("c3", 1, [200] * 16, (2,), label="certify c3 N=1 K=200")
    # heavy: 200-450 ms, every char-p root past K = 512
    bound("p", 2, [520])
    bound("c3", 2, [560])
    certify("p", 2, [520], (2,))
    certify("c3", 2, [520], (3,))
    sweep("p", 2, [(520, 1, 1), (540, 2, 1)], "structural")
    return J


BUILDERS = {"prepare-deep": prepare_deep, "series-wide": series_wide,
            "rationality": rationality, "gap": gap}


def build(name, seed, workdir):
    """The job list of one workload for one seed; writes its input
    files under workdir. The order of jobs is shuffled by the seed."""
    rng = random.Random("%s/%d" % (name, seed))
    jobs = BUILDERS[name](rng, _Writer(workdir))
    rng.shuffle(jobs)
    return jobs
