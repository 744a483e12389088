"""Host CPU speed sampled inside a timed pass, to report times at a fixed speed.

The benchmark host is a shared virtual machine whose CPU speed flips between
two modes about 2x apart, several times a minute (see README.md, Measurement
limits), so a raw wall time measures the host as much as the program. While a
pass runs, an interval timer interrupts the main thread every INTERVAL_S and
its SIGALRM handler runs a fixed pure-Python edit distance, the same kind of
work as the program's negative selection, timing it in thread CPU time, so
that a wait for another thread's turn at the interpreter lock does not count.
The pass is then converted to the speed at which that kernel takes NOMINAL_S.
Only the process's CPU time is rescaled (all its threads, which share the
VM's cores with the main thread): waiting (on the stub, a sleep, the disk)
does not speed up with the CPU.

This module imports only ``signal`` and ``time``, so that the set-up probe can
use it before importing the program without paying the program's imports.
"""
import signal
import time

INTERVAL_S = 0.025
NOMINAL_S = 0.00017  # about the kernel's time when the README's host runs at its fast speed
_A = "kitaplarımızdakilerden"
_B = "kitaplarımızdanlardaki"


def kernel(prev, cur):
    """Edit distance of two fixed strings in the caller's two rows of
    len(_B) + 1. It creates no container object, so it never sets off the
    garbage collector, whose cost depends on the program's heap."""
    for j in range(len(_B) + 1):
        prev[j] = j
    for i in range(1, len(_A) + 1):
        cur[0] = i
        for j in range(1, len(_B) + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (_A[i - 1] != _B[j - 1]))
        prev, cur = cur, prev
    return prev[len(_B)]


class SpeedSampler:
    """Context manager: kernel samples while the block runs, then normalize()."""

    def __enter__(self):
        self.samples = []  # (wall, thread CPU) seconds of each kernel run
        self._rows = ([0] * (len(_B) + 1), [0] * (len(_B) + 1))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        wall, cpu = time.perf_counter(), time.thread_time()
        kernel(*self._rows)
        self.samples.append((time.perf_counter() - wall, time.thread_time() - cpu))

    def factor(self):
        """Reference-speed seconds per host CPU second: NOMINAL_S times the
        mean kernel rate over the block (1.0 when the block was too short to
        sample)."""
        rates = [1.0 / cpu for _, cpu in self.samples if cpu > 0]
        if not rates:
            return 1.0
        return NOMINAL_S * sum(rates) / len(rates)

    def normalize(self, wall, cpu):
        """The block's time at the reference speed, given its wall seconds and
        the process's CPU seconds; the kernel's own time is taken out of both.
        CPU time beyond the wall time (threads running at once) counts once."""
        wall -= sum(w for w, _ in self.samples)
        cpu = min(wall, max(0.0, cpu - sum(c for _, c in self.samples)))
        return wall - cpu + cpu * self.factor()
