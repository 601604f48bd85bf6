"""Conflict analysis: who aborts whom, and where.

Consumes a :class:`~repro.sim.trace.TraceRecorder` that recorded the
``tx`` (and optionally ``dir``) categories and aggregates its
``tx.abort`` events into :class:`ConflictStats`:

* aborter→victim pair counts — the contention topology (e.g. the queue
  head makes intruder's pairs nearly complete; disjoint workloads give
  none), plus the wake-ups that had no conflicting committer
  (self-aborts);
* per-site statistics — which static transactions (PC sites, the
  identity Eq. 8's renewal check compares) suffer and cause aborts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.trace import NullTrace

__all__ = ["ConflictStats", "conflict_stats"]


@dataclass
class ConflictStats:
    """Aggregated conflict behaviour of one run."""

    total_aborts: int = 0
    conflict_aborts: int = 0
    self_aborts: int = 0
    #: site -> times a transaction at this site was aborted
    victims_by_site: dict[str, int] = field(default_factory=dict)
    #: (aborter proc, victim proc) -> count
    pair_counts: dict[tuple[int, int], int] = field(default_factory=dict)
    #: directory -> aborts detected there
    by_directory: dict[int, int] = field(default_factory=dict)

    @property
    def hottest_site(self) -> str | None:
        if not self.victims_by_site:
            return None
        return max(self.victims_by_site, key=self.victims_by_site.get)

    @property
    def hottest_pair(self) -> tuple[int, int] | None:
        if not self.pair_counts:
            return None
        return max(self.pair_counts, key=self.pair_counts.get)

    def reciprocity(self) -> float:
        """Fraction of abort pairs that also abort in reverse.

        High reciprocity (mutual aborts) marks the livelock-prone
        pattern the gating-aware policy exists to break.
        """
        if not self.pair_counts:
            return 0.0
        mutual = sum(
            1
            for (a, b) in self.pair_counts
            if (b, a) in self.pair_counts
        )
        return mutual / len(self.pair_counts)


def conflict_stats(trace: NullTrace) -> ConflictStats:
    """Scan ``tx.abort`` events into :class:`ConflictStats`."""
    stats = ConflictStats()
    for event in trace.events("tx.abort"):
        stats.total_aborts += 1
        payload = event.payload
        if payload.get("cause") == "conflict":
            stats.conflict_aborts += 1
        else:
            stats.self_aborts += 1
        site = payload.get("site")
        if site is not None:
            stats.victims_by_site[site] = stats.victims_by_site.get(site, 0) + 1
        aborter = payload.get("aborter")
        if aborter is not None:
            pair = (aborter, payload["proc"])
            stats.pair_counts[pair] = stats.pair_counts.get(pair, 0) + 1
        directory = payload.get("directory")
        if directory is not None:
            stats.by_directory[directory] = (
                stats.by_directory.get(directory, 0) + 1
            )
    return stats
