"""Drift-cancelled timing.

Wall time on a shared machine drifts by tens of percent over seconds,
and CPU time drifts with it. A fixed, stdlib-only calibration kernel is
therefore timed right next to every measured job, and a job's figure is
its time divided by the adjacent kernel time, scaled by the kernel's
reference time KERNEL_REF_MS. Figures are thus milliseconds at the
reference speed: the speed at which the kernel takes KERNEL_REF_MS.

The kernel mixes what prepkit spends its time on: interpreter-bound
loops over small ints, Kronecker-style packing of ints into bytes with
big-int multiplication, and allocation of many small tuples, lists and
dict entries. Over 12 runs of the p50 and p90 blocks of all four
workloads, this mix tracked the job times better than any of its three
parts alone (run-to-run CV of the normalised block medians 1.7% on
average, against 2.4-2.8% for each part and 15% for raw time).
"""

import time

# Median kernel time on the reference machine (2 cores, Python 3.11.7,
# numpy 2.4.6), rounded; README.md gives the measured medians.
KERNEL_REF_MS = 3.5

_BIG_A = int.from_bytes(bytes((i * 37 + 11) % 256 for i in range(1536)), "little")
_BIG_B = int.from_bytes(bytes((i * 101 + 7) % 256 for i in range(1536)), "little")
_WORDS = [(i * 2654435761) & 0xFFFFFFFFFFFF for i in range(150)]


def kernel():
    acc = 0
    for i in range(1200):
        acc = (acc * 31 + i) % 1000003
    x = _BIG_A
    for _ in range(6):
        x = (x * _BIG_B) >> 12000
        acc ^= int.from_bytes(x.to_bytes(2048, "little")[:64], "little")
    a = int.from_bytes(b"".join(w.to_bytes(8, "little") for w in _WORDS), "little")
    c = (a * a).to_bytes(2400, "little")
    acc += sum(int.from_bytes(c[i:i + 8], "little") % 1000003
               for i in range(0, 2400, 8))
    rows = [(i * 7919 % 3001, i % 17, (i, i + 1)) for i in range(3000)]
    counts = {}
    for key, val, _ in rows:
        counts[key] = counts.get(key, 0) + val
    rows.sort()
    return acc + len(counts) + rows[0][0]


# The set-up counterpart of the kernel: a fresh interpreter importing
# numpy and these stdlib modules does the same kind of work as importing
# prepkit.cli (unmarshalling bytecode, running module bodies, loading C
# extensions), so its time tracks the machine's state for imports. It
# imports numpy too: numpy's import time alone swung between 0.09 and
# 0.15 s within half an hour on the reference machine, and only a
# reference that shares it cancels the swing. REFERENCE_IMPORT_S is a
# round figure near the reference import's median time there.
REFERENCE_IMPORT = ("numpy, asyncio, decimal, email.parser, xml.dom.minidom, "
                    "sqlite3, ssl, http.client, unittest, tarfile, zipfile, "
                    "csv, statistics, logging.handlers, concurrent.futures, "
                    "pydoc")
REFERENCE_IMPORT_S = 0.22


def time_kernel():
    """Seconds taken by one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def normalise(seconds, kernel_seconds):
    """A raw duration as milliseconds at the reference speed."""
    return seconds / kernel_seconds * KERNEL_REF_MS
