"""Host-speed probes, and op times scaled to a reference host.

On small shared VMs the CPU flips between speeds far apart (here about
1.65x, switching several times a second, in proportions that drift
from minute to minute), so raw wall times of the same work scatter by
tens of percent between runs.  A fixed, allocation-free integer loop
slows by the same factor as the simulator's pure-Python work, so
timing that loop all through a run and scaling each op's time by
``REFERENCE_MS / probe time`` reports what the op would take on a host
where the probe always takes ``REFERENCE_MS``.  The scaled times hold
steady as the mix of speeds changes; raw times are printed beside them.

Two ways to probe:

* :class:`SpeedSampler` -- a thread that times the loop every
  ``SAMPLE_INTERVAL`` seconds on the CPU the benchmark is pinned to,
  for work in this process and in children on the same CPU;
* :func:`loop_ms` + :func:`scale` around each op, for pool workers.
"""

from __future__ import annotations

import bisect
import threading
import time
from itertools import repeat
from types import TracebackType

__all__ = ["PROBE_LOOPS", "REFERENCE_MS", "SAMPLE_INTERVAL", "loop_ms",
           "scale", "SpeedSampler"]

#: iterations of one probe: about 0.3 ms here, short next to the speed
#: switches and to the ops it scales
PROBE_LOOPS = 8_000

#: the probe time of the reference host the scaled times refer to
REFERENCE_MS = 0.4

#: seconds between two samples of :class:`SpeedSampler` (under 1% of
#: the CPU goes to probing)
SAMPLE_INTERVAL = 0.05


def loop_ms(loops: int = PROBE_LOOPS) -> float:
    """Milliseconds for ``loops`` turns of a fixed integer loop; the
    values stay below 128, so the loop allocates nothing."""
    started = time.perf_counter()
    x = 0
    for _ in repeat(None, loops):
        x = ((x ^ 90) + 1) & 127
    return (time.perf_counter() - started) * 1000.0


def scale(before_ms: float, after_ms: float) -> float:
    """Factor from this host's time to the reference host's, for work
    bracketed by probes of ``before_ms`` and ``after_ms``."""
    return 2 * REFERENCE_MS / (before_ms + after_ms)


class SpeedSampler:
    """Samples host speed in a background thread while in a ``with``.

    Each sample is ``(time, factor)``: the probe's midpoint on the
    ``perf_counter`` clock and ``REFERENCE_MS`` over its duration.  The
    probe holds the interpreter lock for its whole, sub-millisecond
    loop, so it times the CPU, not the lock.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="host-speed", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            started = time.perf_counter()
            ms = loop_ms()
            self.samples.append((started + ms / 2000.0, REFERENCE_MS / ms))

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, kind: type[BaseException] | None,
                 value: BaseException | None,
                 traceback: TracebackType | None) -> None:
        self._stop.set()
        self._thread.join()

    def scaled(self, start: float, end: float) -> float:
        """Reference-host seconds for the ``perf_counter`` interval
        ``[start, end]``: its length times the mean factor of the
        samples inside it and the nearest one on either side."""
        samples = self.samples
        lo = bisect.bisect_left(samples, (start,))
        hi = bisect.bisect_right(samples, (end, float("inf")))
        window = samples[max(lo - 1, 0):hi + 1]
        if not window:
            raise RuntimeError("no host-speed samples were taken")
        return (end - start) * sum(f for _t, f in window) / len(window)
