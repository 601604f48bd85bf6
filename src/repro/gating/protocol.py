"""The gate/ungate protocol of Section V, one unit per directory.

Lifecycle of a gating episode (paper Fig. 2):

1. **Abort** — a commit flush at this directory invalidates a line the
   victim speculatively read.  The directory logs the aborter processor
   id, bumps the abort counter (resetting the renew counter), presets
   the timer to the contention manager's :math:`W_t(N_a, N_r)`, sets
   the OFF bit, and sends Stop-Clock with the invalidation
   (:meth:`GatingUnit.on_abort`).  A ``TxInfoReq`` round-trip to the
   committer fills the "Aborter Tx Id" field.
2. **Expiry** — the timer fires; after the multi-cycle high-fan-in OR
   over the Marked committer ids (Fig. 2e):

   * aborter not marked here → send "on";
   * aborter marked → ``TxInfoReq`` to it; a null reply (aborter gated
     or not in a transaction) or a different transaction id → "on";
   * same transaction id → **renew**: bump the renew counter and re-arm
     the timer with the new (longer) :math:`W_t`.

3. **Stale-OFF recovery** — any load/store/flush received from a
   processor marked OFF proves some other directory already woke it;
   the OFF bit is cleared and the local timer cancelled.

The protocol deliberately biases toward turning processors back on
(Section VI: "the protocol described in the previous section biases
slightly more on turning on the processor"); every uncertain branch
resolves to "on".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cm.base import ContentionManager
from ..config import SystemConfig
from ..sim.stats import StatsRegistry
from ..sim.trace import NullTrace
from .table import GatingEntry, GatingTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..htm.machine import Machine
    from ..mem.directory import Directory

__all__ = ["GatingUnit"]


class GatingUnit:
    """Gating controller attached to one directory."""

    def __init__(
        self,
        directory: "Directory",
        machine: "Machine",
        cm: ContentionManager,
        config: SystemConfig,
        stats: StatsRegistry,
        trace: NullTrace,
    ):
        self._dir = directory
        self._m = machine
        self._cm = cm
        self._config = config
        self._trace = trace
        self._trace_on = trace.enabled
        self.table = GatingTable(config.num_procs)
        self._entries = self.table.entries
        self._prefix = f"dir{directory.dir_id}.gating"
        self._c_aborts_recorded = stats.counter(
            f"{self._prefix}.aborts_recorded"
        )
        self._c_renewals = stats.counter(f"{self._prefix}.renewals")
        self._c_renewals_global = stats.counter("gating.renewals")
        self._c_turn_ons = stats.counter(f"{self._prefix}.turn_ons")
        self._c_stale_off_cleared = stats.counter(
            f"{self._prefix}.stale_off_cleared"
        )

    # ------------------------------------------------------------------
    # 1. abort path
    # ------------------------------------------------------------------
    def on_abort(self, victim: int, aborter: int, aborter_site: str | None) -> bool:
        """Record an abort of ``victim`` by ``aborter`` at this directory.

        ``aborter_site`` is the committing transaction's identity,
        carried by the flush request (see
        :meth:`~repro.mem.directory.Directory.receive_flush_request` for
        why this replaces the paper's *initial* TxInfoReq round-trip;
        the renewal-check TxInfoReq below is unchanged).

        Returns True when a Stop-Clock command should ride with the
        invalidation (i.e. this directory did not already believe the
        victim to be off).
        """
        now = self._m.engine.now
        entry = self.table.entry(victim)
        send_stop = not entry.off

        entry.cancel_timer(self._m.engine)  # re-arm below; bumps epoch
        entry.bump_abort(self._config.gating.abort_counter_max)
        entry.aborter_proc = aborter
        entry.aborter_site = aborter_site
        entry.off = True
        entry.gated_at = now
        # Momentum (Section VI future work): the victim's invested work
        # at abort time, learned from the abort acknowledgement.  Used
        # only by momentum-aware policies; Eq. 8 ignores it.
        entry.momentum = self._m.procs[victim].attempt_age()
        window = self._arm_timer(entry)

        self._c_aborts_recorded.value += 1
        if self._trace_on:
            self._trace.emit(
                now,
                "gate.record",
                directory=self._dir.dir_id,
                victim=victim,
                aborter=aborter,
                abort_count=entry.abort_count,
                window=window,
            )
        return send_stop

    def _arm_timer(self, entry: GatingEntry) -> int:
        """Schedule the entry's Eq. 8 timer; returns the armed window."""
        # Eq. 8 precondition: a window only exists for a recorded abort.
        # Both callers uphold this (on_abort bumps first, _renew checks
        # and ends stale episodes in a Turn-On) — keep the invariant
        # local so no future caller can reintroduce the PR 5 crash.
        assert entry.abort_count >= 1, (
            f"gating window armed with no abort recorded (proc {entry.proc})"
        )
        window = self._cm.gating_window_ex(
            entry.abort_count, entry.renew_count, entry.momentum
        )
        epoch = entry.epoch
        entry.timer_event = self._m.engine.schedule(
            window, self._timer_expired, entry, epoch
        )
        return window

    # ------------------------------------------------------------------
    # 2. expiry path
    # ------------------------------------------------------------------
    def _timer_expired(self, entry: GatingEntry, epoch: int) -> None:
        # Note: the chain deliberately does NOT check the OFF bit.  The
        # bit is the directory's *belief* and may be cleared by stale-OFF
        # recovery while the victim is in fact still frozen (the request
        # that cleared it could have been in flight when the Stop-Clock
        # landed).  A gating episode's timer chain therefore always runs
        # to completion and ends in a Turn-On — redundant Turn-Ons are
        # ignored by running processors, and this is what makes the
        # protocol deadlock-free ("biases slightly more on turning on").
        if entry.epoch != epoch:
            return
        entry.timer_event = None
        # The high fan-in bitwise OR over Marked processor ids "will
        # take multiple cycles ... extending the clock gating period
        # further by a small amount of time."
        self._m.engine.schedule(
            self._config.effective_or_circuit_cycles, self._check_ungate, entry, epoch
        )

    def _check_ungate(self, entry: GatingEntry, epoch: int) -> None:
        if entry.epoch != epoch:
            return
        aborter = entry.aborter_proc
        if aborter is None or aborter not in self._dir.marked:
            self._send_on(entry, reason="aborter-absent")
            return
        if entry.aborter_site is None:
            # Aborter info never arrived (or was null); bias to "on".
            self._send_on(entry, reason="no-aborter-tx")
            return
        self._m.query_tx_site(
            aborter, lambda site: self._after_tx_info(entry, epoch, site)
        )

    def _after_tx_info(self, entry: GatingEntry, epoch: int, site: str | None) -> None:
        if entry.epoch != epoch:
            return
        if site is not None and site == entry.aborter_site:
            self._renew(entry)
        else:
            # Null reply (aborter itself gated / between transactions)
            # or a different transaction: turn the victim on.
            self._send_on(entry, reason="aborter-moved-on")

    def _renew(self, entry: GatingEntry) -> None:
        if entry.abort_count < 1:
            # The victim committed since this episode began (stale-OFF
            # recovery let it resume; Machine.notify_commit reset its
            # counters) while this timer chain was still in flight.  The
            # episode is over: renewing would query Eq. 8 with N_a = 0.
            # End the chain in its guaranteed Turn-On instead.
            self._send_on(entry, reason="victim-committed")
            return
        entry.renew_count += 1
        self._c_renewals.value += 1
        self._c_renewals_global.value += 1
        window = self._arm_timer(entry)
        if self._trace_on:
            self._trace.emit(
                self._m.engine.now,
                "gate.renew",
                directory=self._dir.dir_id,
                victim=entry.proc,
                abort_count=entry.abort_count,
                renew_count=entry.renew_count,
                window=window,
            )

    def _send_on(self, entry: GatingEntry, reason: str) -> None:
        entry.off = False
        entry.cancel_timer(self._m.engine)
        self._c_turn_ons.value += 1
        if self._trace_on:
            self._trace.emit(
                self._m.engine.now,
                "gate.turn_on",
                directory=self._dir.dir_id,
                victim=entry.proc,
                reason=reason,
            )
        proc = self._m.procs[entry.proc]
        self._m.bus.send_ctrl(proc.receive_turn_on, self._dir.dir_id)

    # ------------------------------------------------------------------
    # 3. stale-OFF recovery
    # ------------------------------------------------------------------
    def notify_access(self, proc: int, sent_at: int) -> None:
        """A request issued by ``proc`` arrived: is it proof of life?

        Only requests *issued after* this gating episode began count —
        a gated processor cannot issue requests, so a later issue time
        proves some other directory already turned it on.  Requests
        that were in flight when the Stop-Clock landed prove nothing
        and must not cancel the wake-up timer (deadlock otherwise).
        """
        entry = self._entries[proc]
        if entry.off and sent_at > entry.gated_at:
            # Paper: "it resets the OFF bit as well in its local table."
            # Only the bit — the timer chain keeps running and delivers
            # a redundant Turn-On (see _timer_expired for why this is
            # load-bearing for deadlock freedom).
            entry.off = False
            self._c_stale_off_cleared.value += 1
            if self._trace_on:
                self._trace.emit(
                    self._m.engine.now,
                    "gate.stale_off",
                    directory=self._dir.dir_id,
                    proc=proc,
                )
