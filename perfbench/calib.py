"""Host-speed calibration: a frozen reference kernel and the window clock.

A shared 2-core VM changes speed from second to second, so a raw timing
partly measures the VM.  Between short windows of program work the
benchmark runs a fixed pure-Python kernel and converts every program
timing into *reference-host units*:

    calibrated = raw * REF_KERNEL_NS / kernel_ns_around_the_window

so the number tracks the program, not the VM's speed at that moment.

The kernel runs with the garbage collector paused and allocates no
GC-tracked objects (only ints), so the size of the program's heap cannot
change its time.  It must run only while no program thread is alive:
a worker thread holding the interpreter lock would slow the kernel and
skew the factor.
"""

from __future__ import annotations

import gc
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: The kernel's median time on the reference host (2-core x86-64 VM,
#: CPython 3.11).  Frozen: changing it rescales every reported timing.
REF_KERNEL_NS = 620_000

#: Kernel loop length; frozen with REF_KERNEL_NS.
KERNEL_ITERS = 4_000

#: Kernel repetitions per calibration point; the median is used.
KERNEL_REPS = 3

#: A window closes after this much program work, whatever its request
#: count, so the VM's speed cannot drift far between two kernels.
MAX_WINDOW_NS = 50_000_000

_TABLE = tuple((i * 2654435761) & 0xFFFF for i in range(256))


def reference_kernel(iters: int = KERNEL_ITERS) -> int:
    """Integer hashing over a fixed table: bytecode dispatch, tuple
    indexing and int arithmetic, the same interpreter work the program
    does, with no GC-tracked allocation."""
    table = _TABLE
    x = 12345
    for i in range(iters):
        x = (x * 1103515245 + table[(x ^ i) & 255]) & 0xFFFFFFFF
    return x


def kernel_ns() -> int:
    """Median wall time of KERNEL_REPS kernel runs, GC paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(KERNEL_REPS):
            t0 = time.perf_counter_ns()
            reference_kernel()
            times.append(time.perf_counter_ns() - t0)
    finally:
        if was_enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2]


def factor(before_ns: int, after_ns: int) -> float:
    """Raw-to-reference conversion factor for a window bracketed by two
    kernel measurements."""
    return REF_KERNEL_NS / ((before_ns + after_ns) / 2.0)


class WindowClock:
    """Times program work in short windows with a kernel between them.

    Each :meth:`op` call is one request of the closed loop; its latency
    runs from the previous request's return (or the window start) to its
    own return, so any background step the benchmark ran just before the
    request is charged to it.  Every ``window_ops`` requests, or after
    MAX_WINDOW_NS of program work, the window closes: the kernel runs
    and the window's raw latencies are converted with the factor from
    the kernels on either side.
    """

    def __init__(self, window_ops: int):
        self.window_ops = window_ops
        #: Calibrated latency samples (ns) by request kind.
        self.samples: Dict[str, List[float]] = {}
        #: Raw latency samples (ns) by request kind, for auditing.
        self.raw_samples: Dict[str, List[int]] = {}
        #: Every kernel measurement taken, in order.
        self.kernels: List[int] = []
        #: Program time so far (ns), excluding kernel runs, calibrated
        #: and raw.
        self.calibrated_ns = 0.0
        self.raw_ns = 0
        self._pending: List[Tuple[str, int]] = []
        self._k_prev: Optional[int] = None
        self._t_last = 0
        self._t_start = 0

    def _kernel(self) -> int:
        if threading.active_count() != 1:
            raise RuntimeError(
                "reference kernel must run with no program thread alive"
            )
        k = kernel_ns()
        self.kernels.append(k)
        return k

    def start(self) -> None:
        """Open a window (runs the kernel first)."""
        self._k_prev = self._kernel()
        self._pending = []
        self._t_start = self._t_last = time.perf_counter_ns()

    def elapsed_ns(self) -> float:
        """Calibrated program time so far, the open window converted
        with the factor of the kernel that opened it."""
        if self._k_prev is None:
            return self.calibrated_ns
        open_ns = time.perf_counter_ns() - self._t_start
        return self.calibrated_ns + open_ns * REF_KERNEL_NS / self._k_prev

    def op(self, kind: str, fn: Callable, *args):
        """Issue one request and record its latency."""
        result = fn(*args)
        now = time.perf_counter_ns()
        self._pending.append((kind, now - self._t_last))
        self._t_last = now
        if (
            len(self._pending) >= self.window_ops
            or now - self._t_start >= MAX_WINDOW_NS
        ):
            self.stop()
            self.start()
        return result

    def stop(self) -> None:
        """Close the open window (runs the kernel after it)."""
        if self._k_prev is None:
            return
        raw = self._t_last - self._t_start
        if self._pending:
            k = self._kernel()
            f = factor(self._k_prev, k)
            for kind, lat in self._pending:
                self.samples.setdefault(kind, []).append(lat * f)
                self.raw_samples.setdefault(kind, []).append(lat)
            self.calibrated_ns += raw * f
            self.raw_ns += raw
        self._pending = []
        self._k_prev = None

    def timed(self, fn: Callable, *args):
        """Time one long call on its own, kernel right before and after.

        Returns ``(result, calibrated_ns, raw_ns)``.  Any open window is
        closed first; the caller reopens one with :meth:`start`.
        """
        self.stop()
        before = self._kernel()
        t0 = time.perf_counter_ns()
        result = fn(*args)
        raw = time.perf_counter_ns() - t0
        after = self._kernel()
        return result, raw * factor(before, after), raw

