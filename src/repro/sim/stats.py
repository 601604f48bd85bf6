"""Lightweight statistics primitives used across the simulator.

``Counter`` is intentionally tiny — the hot path of the simulator
increments counters millions of times, so it avoids any indirection
beyond an attribute add.  ``StatsRegistry`` groups counters under
dotted names so run results can be serialized/merged uniformly.

Handle binding (the hot-path contract)
--------------------------------------
Components resolve their counters **once, at construction**::

    self._c_hits = stats.counter("proc0.cache.hits")   # wiring time
    ...
    self._c_hits.add()                                 # hot path

Per-access f-string keys are a measured hot-path cost (see
``docs/performance.md``) and must not be reintroduced inside the
simulation inner loop.

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

import numpy as np

__all__ = ["Counter", "StatsRegistry"]


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


class StatsRegistry:
    """A namespace of counters keyed by dotted names."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
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

    def reset(self) -> None:
        """Zero every counter, keeping all handles bound.

        The machine-reset path: components re-resolve nothing, so the
        handles they bound at construction must stay live.  A reset
        registry serializes identically to a fresh one (zero-valued
        counters are filtered out), but any *previous* result still
        holding this registry now reads zeros — callers must copy
        ``counters()`` out before resetting.
        """
        for c in self._counters.values():
            c.value = 0

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
