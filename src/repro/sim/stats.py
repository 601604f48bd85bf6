"""Lightweight statistics primitives used across the simulator.

``Counter`` and ``Histogram`` are intentionally tiny — the hot path of
the simulator increments counters millions of times, so they avoid any
indirection beyond an attribute add.  ``StatsRegistry`` groups them
under dotted names so run results can be serialized/merged uniformly.

Handle binding (the hot-path contract)
--------------------------------------
Components resolve their counters **once, at construction**::

    self._c_hits = stats.counter("proc0.cache.hits")   # wiring time
    ...
    self._c_hits.add()                                 # hot path

``StatsRegistry.bump`` (name-keyed, builds the dotted string per call)
is kept for cold paths and tests, but per-access f-string keys are a
measured hot-path cost (see ``docs/performance.md``) and must not be
reintroduced inside the simulation inner loop.

Counts versus sums
------------------
A ``Counter`` is a plain accumulator; the registry does not distinguish
*event counts* (``tx.commits`` — one ``add()`` per occurrence) from
*cycle/quantity sums* (``tx.wasted_cycles``, ``bus.busy_cycles`` — an
``add(amount)`` per occurrence).  By convention every sum-semantics
counter is paired with an event count in the same namespace (e.g.
``tx.aborts.total`` counts the aborts whose cycles ``tx.wasted_cycles``
sums), so reporting can always distinguish a rate from a total.  New
sum-semantics counters must follow the pairing convention and say
"cycles"/"sum" in their name.

Serialization keeps the pre-registration invisible: a counter appears
in :meth:`StatsRegistry.counters` only once it has accumulated a
nonzero total, so constructing handles eagerly does not change the
serialized result of a run.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["Counter", "Histogram", "StatsRegistry"]


class Counter:
    """A named monotonic accumulator (an event count or a quantity sum)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A value histogram with exact moments and power-of-two buckets.

    Stores count/sum/min/max/sum-of-squares exactly plus a log2-bucketed
    distribution — enough for transaction-latency and gating-window
    reporting without keeping every sample.

    Recording is *deferred*: ``record`` only appends to a pending list
    (one list append — the simulator records on commit/abort/flush hot
    paths), and the moments fold in on first read.  Readers always go
    through the accessor properties, so the folding is unobservable;
    the pending buffer costs one machine word per sample until the run
    ends and is dropped at fold time.
    """

    __slots__ = (
        "name", "_pending", "_count", "_total", "_min", "_max",
        "_sumsq", "_buckets",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self._pending: list[int] = []
        self._count = 0
        self._total = 0
        self._min: int | None = None
        self._max: int | None = None
        self._sumsq = 0
        self._buckets: dict[int, int] = {}

    def record(self, value: int) -> None:
        self._pending.append(value)

    def reset(self) -> None:
        """Discard all samples, returning to the just-constructed state."""
        self._pending.clear()
        self._count = 0
        self._total = 0
        self._min = None
        self._max = None
        self._sumsq = 0
        self._buckets.clear()

    def record_many(self, values: Iterable[int]) -> None:
        self._pending.extend(values)

    def _fold(self) -> None:
        pending = self._pending
        if not pending:
            return
        self._pending = []
        count = self._count
        total = self._total
        sumsq = self._sumsq
        mn = self._min
        mx = self._max
        buckets = self._buckets
        for value in pending:
            count += 1
            total += value
            sumsq += value * value
            if mn is None or value < mn:
                mn = value
            if mx is None or value > mx:
                mx = value
            bucket = value.bit_length() if value > 0 else 0
            buckets[bucket] = buckets.get(bucket, 0) + 1
        self._count = count
        self._total = total
        self._sumsq = sumsq
        self._min = mn
        self._max = mx

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def total(self) -> int:
        self._fold()
        return self._total

    @property
    def min(self) -> int | None:
        self._fold()
        return self._min

    @property
    def max(self) -> int | None:
        self._fold()
        return self._max

    @property
    def buckets(self) -> dict[int, int]:
        self._fold()
        return self._buckets

    @property
    def mean(self) -> float:
        self._fold()
        return self._total / self._count if self._count else 0.0

    @property
    def variance(self) -> float:
        self._fold()
        if self._count < 2:
            return 0.0
        m = self._total / self._count
        return max(0.0, self._sumsq / self._count - m * m)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}: n={self.count} mean={self.mean:.1f} "
            f"min={self.min} max={self.max})"
        )


class StatsRegistry:
    """A namespace of counters and histograms keyed by dotted names."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        #: name-sorted (name, handle) pairs, rebuilt lazily after a new
        #: counter registers.  Serialization is per-member work inside a
        #: replicate pack (the registry survives Machine.reset), so the
        #: sort is paid once per pack rather than once per seed.
        self._order: list[tuple[str, Counter]] | None = None

    def counter(self, name: str) -> Counter:
        """Resolve (creating if needed) the counter handle for ``name``.

        Hot-path consumers call this once at construction and keep the
        returned object; the same name always resolves to the same
        handle, so components sharing a counter share its total.
        """
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
            self._order = None
        return c

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    def reset(self) -> None:
        """Zero every counter and histogram, keeping all handles bound.

        The machine-reset path: components re-resolve nothing, so the
        handles they bound at construction must stay live.  A reset
        registry serializes identically to a fresh one (zero-valued
        counters and empty histograms are filtered out), but any
        *previous* result still holding this registry now reads zeros —
        callers must copy ``counters()`` out before resetting.
        """
        for c in self._counters.values():
            c.value = 0
        for h in self._histograms.values():
            h.reset()

    def bump(self, name: str, amount: int = 1) -> None:
        """Shorthand for ``counter(name).add(amount)`` (cold paths only)."""
        self.counter(name).add(amount)

    def get(self, name: str, default: int = 0) -> int:
        c = self._counters.get(name)
        return c.value if c is not None else default

    def counters(self) -> dict[str, int]:
        """Nonzero counter totals, sorted by dotted name.

        Zero-valued counters are omitted so that eagerly binding a
        handle (which registers the name) is indistinguishable, in
        serialized results, from never having touched the counter —
        the pre-handle-binding encoding emitted exactly the counters
        that had been bumped.

        Finalization is one numpy pass over the cached name-sorted
        handle order: gather values, select the nonzero indices, build
        the dict.  Output is byte-identical to the historical sorted
        dict comprehension (same keys, same order, plain ints).
        """
        order = self._order
        if order is None:
            order = self._order = sorted(self._counters.items())
        values = np.fromiter(
            (c.value for _, c in order), dtype=np.int64, count=len(order)
        )
        return {
            order[i][0]: v
            for i, v in zip(np.nonzero(values)[0].tolist(), values[
                values != 0].tolist())
        }

    def histograms(self) -> dict[str, Histogram]:
        """Histograms holding at least one sample, sorted by name.

        Empty histograms are omitted for the same reason zero-valued
        counters are: eager handle binding must not change output.
        """
        return {
            k: h for k, h in sorted(self._histograms.items()) if h.count
        }

    def as_dict(self) -> dict[str, object]:
        """Flatten to plain data (for reports and tables)."""
        out: dict[str, object] = dict(self.counters())
        for name, h in self.histograms().items():
            out[f"{name}.count"] = h.count
            out[f"{name}.mean"] = h.mean
            out[f"{name}.min"] = h.min
            out[f"{name}.max"] = h.max
        return out
