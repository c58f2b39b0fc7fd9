"""
The host's speed over a run, from a fixed pure-Python kernel timed by
sampler threads, and the factor that scales a timed interval to the
reference speed.

The benchmark's host is a few vCPUs of a shared machine whose speed moves by
up to a factor of two for tens of seconds to minutes at a time, and a whole
run can fall inside a slow phase, so no statistic over one run's raw times
is steady from run to run.  The kernel here does what klhom's inner loops do
(sparse polynomial products over tuple monomials, dict and tuple work) and
imports nothing from klhom, so a change to klhom cannot change its time.
An interval the benchmark times is scaled by ``KERNEL_REF_S`` over the
kernel's time around that interval: on a host running at the reference speed
the scaled time equals the raw one, and a slow phase that slows klhom and the
kernel alike cancels out.

The samples are taken in the process whose work is timed: by a thread of the
benchmark's own process (:class:`HostSpeed`), and, while
:func:`sampling_children` is active, by a thread started in each process
forked from it (the sweep's pool workers), which appends its samples to a
file that :func:`child_samples` reads back.
"""
from __future__ import annotations

import bisect
import contextlib
import os
import statistics
import threading
import time
from pathlib import Path

SAMPLE_EVERY_S = 0.2  # a sampler's pause between kernel runs
HALF_WINDOW_S = 0.5  # samples this close to an interval count towards its factor
# the kernel's time on the reference host (2-vCPU Linux VM, Python 3.11.7)
# in a quiet phase; a constant, so that scaled times stay comparable between
# commits and runs
KERNEL_REF_S = 0.0015

_X = {((v, 1),): c for v, c in zip("abcde", (1, -1, 2, 1, 3))}


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for var, e in m2:
                exps[var] = exps.get(var, 0) + e
            m = tuple(sorted(exps.items()))
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def kernel() -> int:
    """(a - b + 2c + d + 3e)^6 term by term: a fixed amount of interpreter work."""
    y = _X
    for _ in range(5):
        y = _mul(y, _X)
    return len(y)


def kernel_s() -> float:
    """CPU seconds of one :func:`kernel` run in the calling thread.  CPU
    seconds leave out any wait for a vCPU or the GIL, so the sample reads
    the vCPU's speed and nothing else."""
    c0 = time.thread_time()
    kernel()
    return time.thread_time() - c0


class Samples:
    """Kernel runs as (start, end, CPU seconds), in order of start."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.cpu: list[float] = []

    def add(self, start: float, end: float, cpu: float) -> None:
        # ends before starts: a reader that sees a start sees its end
        self.ends.append(end)
        self.cpu.append(cpu)
        self.starts.append(start)

    def sample(self) -> None:
        t0 = time.perf_counter()
        cpu = kernel_s()
        self.add(t0, time.perf_counter(), cpu)

    def factor(self, a: float, b: float) -> float:
        """KERNEL_REF_S over the median kernel time of the samples that
        start within HALF_WINDOW_S of [a, b], or of the nearest sample on
        each side if none does."""
        n = len(self.starts)
        lo = bisect.bisect_left(self.starts, a - HALF_WINDOW_S, 0, n)
        hi = bisect.bisect_right(self.starts, b + HALF_WINDOW_S, 0, n)
        if hi == lo:
            lo, hi = max(lo - 1, 0), min(lo + 1, n)
        if hi == lo:
            raise RuntimeError("no host-speed sample has been taken")
        return KERNEL_REF_S / statistics.median(self.cpu[lo:hi])

    def paused(self, a: float, b: float) -> float:
        """The part of [a, b] the kernel ran in."""
        n = len(self.starts)
        i = max(bisect.bisect_left(self.starts, a, 0, n) - 1, 0)
        out = 0.0
        while i < n and self.starts[i] < b:
            out += max(0.0, min(b, self.ends[i]) - max(a, self.starts[i]))
            i += 1
        return out

    def summary(self) -> dict:
        ms = [c * 1000.0 for c in self.cpu]
        q = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
        return {"kernel_ms_ref": KERNEL_REF_S * 1000.0, "samples": len(ms),
                "kernel_ms_q1": q[0], "kernel_ms_median": statistics.median(ms),
                "kernel_ms_q3": q[2]}


class HostSpeed(Samples):
    """A daemon thread of this process that samples the kernel every
    SAMPLE_EVERY_S seconds.  The kernel holds the GIL for its whole run (it
    is shorter than the interpreter's switch interval), so in a
    single-threaded loop it pauses the timed code for exactly [start, end],
    and :meth:`paused` gives what to take back out of an interval.
    """

    def __init__(self) -> None:
        super().__init__()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def __enter__(self) -> "HostSpeed":
        kernel()  # warm up
        self.sample()  # so that the first interval timed has a sample before it
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.sample()


_child_dir: Path | None = None  # where forked children write their samples, if anywhere


def _sample_in_child() -> None:
    if _child_dir is None:
        return
    path = _child_dir / f"speed-{os.getpid()}.txt"

    def run() -> None:
        with path.open("a") as fh:
            while True:
                time.sleep(SAMPLE_EVERY_S)
                t0 = time.perf_counter()
                cpu = kernel_s()
                fh.write(f"{t0!r} {time.perf_counter()!r} {cpu!r}\n")
                fh.flush()

    threading.Thread(target=run, name="hostspeed", daemon=True).start()


os.register_at_fork(after_in_child=_sample_in_child)


@contextlib.contextmanager
def sampling_children(directory: Path):
    """Every process forked from this one inside the block samples the
    kernel in a thread of its own until it exits, into ``directory``."""
    global _child_dir
    _child_dir = directory
    try:
        yield
    finally:
        _child_dir = None


def child_samples(directory: Path) -> Samples:
    """The samples the children wrote into ``directory``, which are removed.
    A child ended mid-line leaves a last line without its newline, which is
    skipped."""
    rows = []
    for path in directory.glob("speed-*.txt"):
        for line in path.read_text().split("\n")[:-1]:
            rows.append(tuple(map(float, line.split())))
        path.unlink()
    samples = Samples()
    for start, end, cpu in sorted(rows):
        samples.add(start, end, cpu)
    return samples
