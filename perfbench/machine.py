"""Machine-speed reference for the benchmark's timed metrics.

On the shared two-core machine the benchmark was sized on, the same code
ran up to 60 % slower for stretches of a fraction of a second to minutes,
so a 20-second run could fall wholly inside a slow stretch.  The benchmark
therefore times a fixed piece of reference work next to the program and
scales each measured time by ``NOMINAL_S / reference time``: a reported
time is what the same run would have taken on a machine where the reference
takes ``NOMINAL_S``.

The speed moved within a single job, so a job is sampled while it runs: a
``SIGALRM`` every ``INTERVAL_S`` runs the reference once in the main thread
(no extra thread or process), and the time spent there is taken off the
job's time.  A job too short to be sampled is scaled by ``EDGE_RUNS``
reference runs just before and just after it.  On that machine the scaled
times of repeated 0.2-0.6 s jobs varied by about half as much as with the
edge runs alone.

The reference is a pure-Python loop of integer arithmetic and dict updates.
Of the candidates tried on that machine (this loop, small numpy element-wise
operations, a LAPACK solve with a Kronecker product, and mixes of them), its
time tracked the slow stretches best on the three frontend workloads and
no worse than the others on the Stein workload.  It does not call lyapcert,
so a change to lyapcert moves the scaled times by the same share as the
measured ones.  The unscaled times are printed beside the metrics.
"""

from __future__ import annotations

import signal
import time

NOMINAL_S = 0.0002  # about the reference's time on the machine above in a quiet stretch
INTERVAL_S = 0.01  # sampling period inside a job
EDGE_RUNS = 5  # reference runs on each side of a job


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference work."""
    start = time.perf_counter()
    acc = 0
    for i in range(2400):
        acc += i * i % 7
    table: dict = {}
    for i in range(600):
        table[i % 13] = table.get(i % 13, 0.0) + float(i)
    return time.perf_counter() - start


def edge() -> list:
    return [reference_seconds() for _ in range(EDGE_RUNS)]


def scale(reference_times: list) -> float:
    """Factor that turns times measured beside these reference runs into nominal-speed times."""
    return NOMINAL_S * len(reference_times) / sum(reference_times)


class Sampler:
    """Reference runs taken every ``INTERVAL_S`` inside a ``with`` block.

    ``spent`` is the wall time the samples took, to be taken off the block's
    time.  A sample can land between the end of the timed job and the end of
    the block; that costs at most one reference run of error.
    """

    def __enter__(self) -> "Sampler":
        self.samples: list = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        self.spent += time.perf_counter() - start
