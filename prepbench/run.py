"""prepkit benchmark: CLI jobs run in-process through prepkit.cli.main.

    python3 prepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of prepare-deep, series-wide, rationality, gap, or all. The
command runs from the root of a source checkout and imports prepkit
from src/. It writes the workload's input files under .prepbench_work/,
checks every job's report once with prepbench/checks.py, then runs
whole passes over the job list, one job at a time, for about S seconds.
The last line of stdout is one JSON object with the fields correct,
attempted, failed and metrics; with --workload all there is one such
line per workload.

--trace 0 reports the end-to-end metrics. --trace 1 alternates traced
and untraced passes and reports the per-layer metrics of tracing.py,
with the tracing overhead. See prepbench/README.md.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock
import workloads
from checks import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ".prepbench_work"
MIN_PASSES = 3
SETUP_SAMPLES = 5


def quantile(values, q):
    """Linear-interpolation quantile (as numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_job(main, argv):
    """(exit code, seconds, stdout, error text) of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception as e:  # an escaped exception fails the job
            code, err = 1, io.StringIO("%s: %s" % (type(e).__name__, e))
        dt = time.perf_counter() - t0
    return code, dt, out.getvalue(), err.getvalue()


_IMPORT_CHILD = """
import sys, time
sys.path.insert(0, %r)
t0 = time.perf_counter()
import {modules}
print(time.perf_counter() - t0)
"""


def _import_seconds(modules):
    code = _IMPORT_CHILD.format(modules=modules) % str(ROOT / "src")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True)
    return float(out.stdout)


def measure_setup():
    """Seconds for a fresh interpreter to import prepkit.cli, normalised
    like the job times but with clock.REFERENCE_IMPORT in place of the
    kernel: median over SETUP_SAMPLES imports, each between two
    reference imports in fresh interpreters."""
    ref_prev = _import_seconds(clock.REFERENCE_IMPORT)
    ratios = []
    for _ in range(SETUP_SAMPLES):
        t = _import_seconds("prepkit.cli")
        ref_next = _import_seconds(clock.REFERENCE_IMPORT)
        ratios.append(t / ((ref_prev + ref_next) / 2))
        ref_prev = ref_next
    return statistics.median(ratios) * clock.REFERENCE_IMPORT_S


class Pass:
    """One pass over the job list: per-job raw seconds and normalised
    ms, with the kernel timed before the first job and after each."""

    def __init__(self, cli, jobs, on_done=None):
        self.raw, self.norm, self.outputs, self.kernel = [], [], [], []
        gc.collect()
        k_prev = clock.time_kernel()
        for i, job in enumerate(jobs):
            code, dt, out, err = run_job(cli.main, job.argv)
            k_next = clock.time_kernel()
            kmean = (k_prev + k_next) / 2
            self.kernel.append(k_next)
            self.raw.append(dt)
            self.norm.append(clock.normalise(dt, kmean))
            self.outputs.append((code, out, err))
            if on_done is not None:
                on_done(i, kmean)
            k_prev = k_next


def check_pass(jobs, p):
    """Check the first pass: (indices of failed jobs, whether a report
    that exited 0 or 2 was wrong, one message per failed job)."""
    bad, wrong, messages = set(), False, []
    for j, (job, (code, out, err)) in enumerate(zip(jobs, p.outputs)):
        if code not in (0, 2):
            problem = "exit %d: %s" % (code, err.strip()[:300])
        else:
            try:
                job.check(json.loads(out), code)
                continue
            except (CheckFailed, ValueError, KeyError, TypeError) as e:
                wrong, problem = True, e
        bad.add(j)
        messages.append("%s | %s | %s" % (job.cls, " ".join(job.argv), problem))
    return bad, wrong, messages


def failures(first, bad, p):
    """Failed jobs of pass p: those that failed their check in the
    first pass, and those whose exit code or report bytes differ from
    it."""
    return sum(1 for j, (a, b) in enumerate(zip(first.outputs, p.outputs))
               if j in bad or a[:2] != b[:2])


def run_workload(name, seed, seconds, trace):
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from prepkit import cli
    import tracing

    t0 = time.perf_counter()
    jobs = workloads.build(name, seed, os.path.join(WORKDIR, name))
    t1 = time.perf_counter()
    setup_s = measure_setup()
    tracer = tracing.Tracer() if trace else None
    t2 = time.perf_counter()
    first = Pass(cli, jobs)
    t3 = time.perf_counter()
    bad, wrong, messages = check_pass(jobs, first)
    print("phases: inputs %.1f s, setup %.1f s, first pass %.1f s, checks "
          "%.1f s" % (t1 - t0, t2 - t1, t3 - t2, time.perf_counter() - t3))
    for line in messages[:20]:
        print("FAILED", line)
    failed, attempted = len(bad), len(jobs)

    # Whole passes while more than half a pass is left, so the timed
    # region lasts `seconds` on average, and at least MIN_PASSES.
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    pass_s = 0.0
    while (len(plain) + len(traced) < MIN_PASSES
           or time.perf_counter() + pass_s / 2 < t_end):
        t_pass = time.perf_counter()
        if tracer is not None and len(traced) <= len(plain):
            with tracer.installed():
                p = Pass(cli, jobs, on_done=tracer.end_job)
            p.layers = tracer.end_pass()
            traced.append(p)
        else:
            p = Pass(cli, jobs)
            plain.append(p)
        failed += failures(first, bad, p)
        attempted += len(jobs)
        pass_s = time.perf_counter() - t_pass

    def per_job(passes, field):
        return [statistics.median(getattr(p, field)[j] for p in passes)
                for j in range(len(jobs))]

    norm = per_job(plain, "norm")
    raw = per_job(plain, "raw")
    summary = {
        "jobs_per_s": (len(jobs) / (sum(norm) / 1000), "1/s"),
        "job_ms_p50": (quantile(norm, 0.5), "ms"),
        "job_ms_p90": (quantile(norm, 0.9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
    }
    print("workload %s seed %d: %d jobs, %d untraced timed passes%s"
          % (name, seed, len(jobs), len(plain),
             ", %d traced" % len(traced) if trace else ""))
    print("  raw wall: jobs/s %.2f  p50 %.3f ms  p90 %.3f ms  "
          "kernel median %.4f ms"
          % (len(jobs) / sum(raw), quantile(raw, 0.5) * 1000,
             quantile(raw, 0.9) * 1000,
             statistics.median(k for p in plain for k in p.kernel) * 1000))
    print("  " + "  ".join("%s %.4g %s" % (k, v, u)
                           for k, (v, u) in summary.items()))
    _print_classes(jobs, norm)
    if trace:
        metrics = tracing.layer_metrics([p.layers for p in traced])
        tsum = per_job(traced, "norm")
        metrics["bench.trace_overhead"] = (sum(tsum) / sum(norm), "x")
        tracer.write(os.path.join(WORKDIR, "trace-%s.jsonl" % name), jobs)
    else:
        metrics = summary
    return {"correct": not wrong, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def _print_classes(jobs, norm):
    """Job classes with their count and median, and the classes at and
    around p50 and p90."""
    by = {}
    for job, t in zip(jobs, norm):
        by.setdefault(job.cls, []).append(t)
    for cls, ts in sorted(by.items(), key=lambda kv: statistics.median(kv[1])):
        print("  %-34s n=%3d  median %9.3f ms  max %9.3f ms"
              % (cls, len(ts), statistics.median(ts), max(ts)))
    order = sorted(range(len(jobs)), key=lambda j: norm[j])
    for q in (0.5, 0.9):
        at = round(q * (len(jobs) - 1))
        near = order[max(at - 2, 0):at + 3]
        print("  p%d neighbourhood: %s" % (q * 100, ", ".join(
            "%s %.2f" % (jobs[j].cls, norm[j]) for j in near)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "prepkit" / "cli.py").is_file():
        print("prepbench: no prepkit sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
