"""Transaction-level derived metrics shared by run-result types.

Both :class:`~repro.harness.runner.RunResult` (the full in-process
result) and :class:`~repro.exec.jobs.ExecResult` (the condensed
process-boundary result) expose the same derived view over the run's
counters — commits, futile re-executions, abort rate, wasted work.
Keeping the definitions here, in a module with no simulator
dependencies, guarantees the two views can never drift apart (a cached
result must report aborts exactly like a fresh one) and keeps the
import graph acyclic: ``repro.harness`` and ``repro.exec`` both depend
on this module, never on each other's result types.

Hosts must provide ``counters`` (a ``str -> int`` mapping).  What
each counter name means is listed in docs/observability.md.
"""

from __future__ import annotations

__all__ = ["TxMetricsMixin"]


class TxMetricsMixin:
    """Counter-derived metrics over a run's ``counters`` mapping."""

    @property
    def commits(self) -> int:
        return self.counters.get("tx.commits", 0)

    @property
    def aborts(self) -> int:
        """All futile re-executions (conflict aborts + wake-up self-aborts).

        An *event count*: reads ``tx.aborts.total`` (one increment per
        abort), falling back to the conflict/self split for results
        recorded before the total existed.  Never derived from
        ``tx.wasted_cycles``, which is a cycle *sum* — see
        :meth:`wasted_cycles`.
        """
        total = self.counters.get("tx.aborts.total")
        if total is not None:
            return total
        return self.counters.get("tx.aborts.conflict", 0) + self.counters.get(
            "tx.aborts.self", 0
        )

    @property
    def abort_rate(self) -> float:
        attempts = self.counters.get("tx.attempts", 0)
        return self.aborts / attempts if attempts else 0.0

    @property
    def wasted_cycles(self) -> int:
        """Total cycles invested in attempts that aborted.

        A *cycle sum*, not an event count: each abort adds the age of
        the dying attempt.  Its paired count is ``tx.aborts.total``
        (exposed as :meth:`aborts`) — divide the sum by the count for
        mean wasted work per abort, and never mix the two in a rate.
        """
        return self.counters.get("tx.wasted_cycles", 0)
