"""Transaction-level derived metrics shared by run-result types.

Both :class:`~repro.harness.runner.RunResult` (the full in-process
result) and :class:`~repro.exec.jobs.ExecResult` (the condensed
process-boundary result) expose the same derived view over the run's
counters — commits, futile re-executions, abort rate, wasted work —
and the same one-line summary.  Keeping the definitions here, in a
module with no simulator dependencies, guarantees the two views can
never drift apart (a cached result must report aborts exactly like a
fresh one) and keeps the import graph acyclic: ``repro.harness`` and
``repro.exec`` both depend on this module, never on each other's
result types.

Hosts must provide ``counters`` (a ``str -> int`` mapping) plus the
``workload``, ``scale``, ``config``, ``parallel_time`` and ``energy``
attributes used by :meth:`TxMetricsMixin.summary`.
"""

from __future__ import annotations

__all__ = ["TxMetricsMixin", "DECLARED_METRICS"]

#: The canonical catalog of every counter name the code may bump —
#: simulator stats (``StatsRegistry.counter``) and observability
#: counters (``ObsRecorder.count``) alike.  Entries
#: are ``fnmatch`` patterns: per-component dotted prefixes that are
#: built with f-strings at wiring time (``f"{prefix}.cache.hits"``)
#: appear here with the dynamic segment collapsed to ``*``, exactly how
#: the ``OBS301[undeclared-metric]`` lint rule normalizes them.  Nothing
#: reads this catalog at run time: its only readers are `repro check`'s
#: OBS301 (a bumped name missing here) and OBS304 (an entry nothing
#: bumps), so it documents the names and no run enforces it (see
#: docs/static-analysis.md).
DECLARED_METRICS: frozenset[str] = frozenset({
    # -- transactions (htm/processor.py, htm/token.py) ---------------
    "tx.attempts",          # event count: transaction attempts started
    "tx.commits",           # event count: attempts that committed
    "tx.commit_attempts",   # event count: commit-token requests issued
    "tx.aborts.conflict",   # event count: conflict-invalidation aborts
    "tx.aborts.self",       # event count: wake-up self-aborts
    "tx.aborts.total",      # event count: all aborts (pairs wasted_cycles)
    "tx.wasted_cycles",     # cycle sum: work invested in aborted attempts
    "tx.aborts_while_committing",  # event count: aborts past token grant
    # -- commit-token vendor (htm/token.py, htm/machine.py) ----------
    "vendor.tids_issued",   # event count: TIDs handed out
    "vendor.commits",       # event count: commit grants
    "vendor.releases",      # event count: token releases
    "vendor.barrier_waits",  # event count: waits at the TID-order barrier
    "vendor.stale_grants",  # event count: grants to already-aborted txs
    # -- clock gating (gating/protocol.py, htm/processor.py) ---------
    "gating.gated",         # event count: Stop-Clock transitions taken
    "gating.wakeups",       # event count: Turn-On transitions taken
    "gating.redundant_on",  # event count: Turn-Ons for running procs
    "gating.renewals",      # event count: window renewals (all dirs)
    "gating.txinfo_requests",  # event count: TxInfoReq round-trips
    "*.aborts_recorded",    # dirN.gating: aborts logged at this directory
    "*.renewals",           # dirN.gating: window renewals here
    "*.turn_ons",           # dirN.gating: Turn-Ons sent from here
    "*.stale_off_cleared",  # dirN.gating: stale-OFF recoveries here
    # -- memory system (mem/bus.py, mem/memory.py, mem/directory.py) -
    "bus.messages",         # event count: messages carried
    "bus.busy_cycles",      # cycle sum: bus occupancy
    "bus.queue_cycles",     # cycle sum: waiting for the bus
    "memory.accesses",      # event count: DRAM accesses
    "memory.port_wait_cycles",  # cycle sum: port-contention waits
    # -- per-processor / per-cache / per-directory prefixes ----------
    "*.cache.hits",         # procN.cache.hits
    "*.cache.misses",       # procN.cache.misses
    "*.commits",            # procN.commits
    "*.aborts",             # procN.aborts
    "*.stale_fills",        # procN.stale_fills (post-abort fills)
    "*.fills",              # procN.cache / dirN fills
    "*.evictions",          # procN.cache.evictions
    "*.spec_evictions",     # speculative-line evictions
    "*.invalidations",      # procN.cache.invalidations
    "*.aborts_caused",      # dirN.aborts_caused
    "*.flushes",            # dirN.flushes
    "*.lines_committed",    # dirN.lines_committed (commit-flush volume)
    # -- result store / executor observability (ObsRecorder.count) ---
    "store.puts",           # records written through the store
    "store.hits",           # cache hits served
    "store.misses",         # cache misses
    "store.invalidations",  # tombstones written
    "store.skipped_records",  # torn/foreign-schema lines skipped
    "store.lock_acquisitions",  # advisory-lock acquires
    "store.lock_wait_s",    # seconds spent waiting on the lock
    "dir.flush_batches",    # batched commit-flush drains (PR 7)
    "pack.reset_reuses",    # pack members served by Machine.reset
    "pack.shared_prep_hits",  # pack members served from the prep cache
})


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

    def summary(self) -> str:
        gating = "gated" if self.config.gating.enabled else "ungated"
        return (
            f"{self.workload}[{self.scale}] x{self.config.num_procs} "
            f"({gating}): N={self.parallel_time} E={self.energy.total:.0f} "
            f"commits={self.commits} aborts={self.aborts} "
            f"(rate {self.abort_rate:.1%})"
        )
