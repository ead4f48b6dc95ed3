"""Machine-speed calibration for timings on a shared, drifting host.

On small shared virtual machines the whole CPU speeds up and slows down by
up to 1.8x within minutes, and between fast and slow states within seconds,
as neighbours load the host. That drift moves every timing alike: a fixed
kernel timed next to a workload varied by 20% between 15-second windows
while the ratio of the two varied by 2%. So while a pass runs, a SIGALRM
handler times a small fixed kernel every INTERVAL_S, and the benchmark
reports the pass scaled to the speed at which the kernel takes REFERENCE_S.
A set-up probe is a fresh process too short to sample, so it times the
kernel itself once its set-up is done.

The kernel is single-threaded and shares no code with fsmac, so a change to
the program scales the reported time by the same factor as the raw time.
It is timed in thread CPU time, so the program's own threads (BLAS, or a
--threads pool) preempting it do not read as a slower machine. The
handler's own time is taken out of the pass.
"""

import signal
import time

import numpy as np

REFERENCE_S = 0.001  # kernel time that defines the reference speed
INTERVAL_S = 0.1

_TABLE = np.linspace(0.0, 1.0, 4096)
_INDEX = (np.arange(16 * 1024) * 7919) % 4096


def _kernel() -> float:
    total = 0
    for i in range(12_000):        # interpreter dispatch
        total += i & 7
    acc = 0.0
    for _ in range(12):            # small numpy calls and a gather
        acc += float(_TABLE[_INDEX].sum())
    return total + acc


def kernel_times(count: int) -> list[float]:
    """Time the kernel back to back, for a process too short to sample."""
    times = []
    for _ in range(count):
        t0 = time.thread_time()
        _kernel()
        times.append(time.thread_time() - t0)
    return times


class Sampler:
    """Context manager: samples the kernel every INTERVAL_S of wall time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        w0, c0, t0 = time.perf_counter(), time.process_time(), time.thread_time()
        _kernel()
        self.samples.append(time.thread_time() - t0)
        self.spent_wall += time.perf_counter() - w0
        self.spent_cpu += time.process_time() - c0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def factor(self) -> float:
        """Multiplier from this interval's speed to the reference speed."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
