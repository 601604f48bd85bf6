"""Lightweight statistics primitives used across the simulator.

``Counter`` is intentionally tiny — the hot path of the simulator
increments counters millions of times, so a bump is one attribute add
on the handle, with no method call.  ``StatsRegistry`` groups counters
under dotted names so run results can be serialized/merged uniformly.

Handle binding (the hot-path contract)
--------------------------------------
Components resolve their counters **once, at construction**::

    self._c_hits = stats.counter("proc0.cache.hits")   # wiring time
    ...
    self._c_hits.value += 1                            # hot path

Per-access f-string keys are a measured hot-path cost (see
``docs/performance.md``) and must not be reintroduced inside the
simulation inner loop.

Counts versus sums
------------------
A ``Counter`` is a plain accumulator; the registry does not distinguish
*event counts* (``tx.commits`` — ``value += 1`` per occurrence) from
*cycle/quantity sums* (``tx.wasted_cycles``, ``bus.busy_cycles`` —
``value += amount`` per occurrence).  By convention every sum-semantics
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

import sys

__all__ = ["Counter", "StatsRegistry"]


class Counter:
    """A named monotonic accumulator (an event count or a quantity sum)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class StatsRegistry:
    """A namespace of counters keyed by dotted names."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Resolve (creating if needed) the counter handle for ``name``.

        Hot-path consumers call this once at construction and keep the
        returned object; the same name always resolves to the same
        handle, so components sharing a counter share its total.

        Names are interned: every machine builds its per-component
        names afresh (``f"proc{i}.cache.hits"``), and one string object
        per name lets pickle share it across the results of a
        replicate pack.
        """
        c = self._counters.get(name)
        if c is None:
            name = sys.intern(name)
            c = self._counters[name] = Counter(name)
        return c

    def counters(self) -> dict[str, int]:
        """Nonzero counter totals, sorted by dotted name.

        Zero-valued counters are omitted so that eagerly binding a
        handle (which registers the name) is indistinguishable, in
        serialized results, from never having touched the counter —
        the pre-handle-binding encoding emitted exactly the counters
        that had been bumped.  Sorting the names alone, not the (name,
        handle) pairs, is what keeps this cheap.
        """
        counters = self._counters
        return {
            name: value
            for name in sorted(counters)
            if (value := counters[name].value)
        }
