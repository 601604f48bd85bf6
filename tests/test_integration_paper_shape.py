"""Paper-shape integration tests.

These assert the *qualitative* claims of the evaluation section on
small-but-real runs — who wins, in which direction — without pinning
absolute numbers (our substrate is a simulator, not the authors'
modified M5).  The module builds the ``small`` seed-1 paper grid once
into a temporary result store: the Fig. 4–7 and headline checks read
its artifacts, and every per-point comparison on that grid reads the
same store instead of simulating again.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.exec.executor import Executor
from repro.exec.jobs import RunJob
from repro.figures import FigureBuilder, FigureParams
from repro.gating.protocol import GatingUnit
from repro.harness.compare import compare_gating
from repro.harness.runner import run_workload, workload
from repro.power.energy import compute_energy
from repro.power.model import PowerModel, PowerModelParams
from repro.power.states import ProcState
from repro.sim.trace import TraceRecorder

pytestmark = pytest.mark.integration

#: the seed of the module's paper grid (and of every grid point below)
SEED = 1


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    """The ``small`` seed-1 paper grid (63 simulations), built once."""
    directory = tmp_path_factory.mktemp("paper")
    builder = FigureBuilder(
        store=directory / "store", out_dir=directory / "figures",
        params=FigureParams(scale="small", seed=SEED),
    )
    report = builder.build()
    assert {a.status for a in report.artifacts} == {"built"}
    yield builder
    builder.store.close()


@pytest.fixture(scope="module")
def executor(paper) -> Executor:
    """Answers grid jobs from the module's store."""
    return Executor(store=paper.store)


def grid_point(app: str, procs: int, executor: Executor):
    return compare_gating(
        workload(app, scale="small", seed=SEED),
        SystemConfig(num_procs=procs, seed=SEED),
        executor=executor,
    )


def by_app(rows) -> dict[str, list[float]]:
    """``{app: [last column per processor count]}`` from figure rows."""
    out: dict[str, list[float]] = {}
    for row in rows:
        out.setdefault(row[0], []).append(row[-1])
    return out


def mean(values) -> float:
    return sum(values) / len(values)


def test_grid_points_are_read_from_the_store(executor):
    grid_point("genome", 8, executor)
    assert executor.last_report.executed == 0
    assert executor.last_report.cache_hits == 2


class TestFigureShapes:
    """Figs. 4–7 and the Section VIII averages over the 3 apps x
    {4, 8, 16} processors grid."""

    def test_fig4_no_collapse_and_intruder_gains_most(self, paper):
        rows = paper.data("fig4")["rows"]
        speedups = [row[4] for row in rows]
        # no catastrophic slowdown anywhere, and a clear win somewhere
        assert min(speedups) > 0.85
        assert max(speedups) > 1.05
        means = {app: mean(v) for app, v in by_app(rows).items()}
        assert means["intruder"] >= max(means["genome"], means["yada"]) - 0.02

    def test_fig5_energy_reductions(self, paper):
        reductions = by_app(paper.data("fig5")["rows"])
        # intruder (high abort rate) saves substantially at every count
        assert all(r > 1.15 for r in reductions["intruder"])
        # yada saves on average; genome, the low-contention outlier,
        # may lose slightly (the paper's own slowdown case)
        assert mean(reductions["yada"]) > 1.0
        assert mean(reductions["genome"]) > 0.9

    def test_fig6_follows_eq7(self, paper):
        fig4 = {(a, p): (n1, n2) for a, p, n1, n2, _ in paper.data("fig4")["rows"]}
        fig5 = {(a, p): r for a, p, _, _, r in paper.data("fig5")["rows"]}
        for app, procs, pu, pg, power_reduction in paper.data("fig6")["rows"]:
            n1, n2 = fig4[(app, procs)]
            assert power_reduction == pytest.approx(fig5[(app, procs)] * n2 / n1)
            # average power sits between the gated floor and run power
            assert 0.2 < pg <= 1.0
            assert 0.2 < pu <= 1.0

    def test_fig7_w0_is_first_order(self, paper):
        matrix = paper.data("fig7")["speedup"]
        # for the contended app the spread across W0 is visible at
        # every processor count
        for procs, curve in matrix["intruder"].items():
            assert max(curve.values()) - min(curve.values()) > 0.03, (procs, curve)
        # nothing degenerates anywhere in the sweep
        for app, by_procs in matrix.items():
            for curve in by_procs.values():
                assert all(s > 0.7 for s in curve.values()), (app, curve)

    def test_headline_directions(self, paper):
        headline = paper.data("headline")
        assert headline["points"] == 9.0
        assert headline["average_energy_reduction_pct"] > 5.0
        assert headline["average_power_reduction_pct"] > 0.0
        assert headline["average_speedup_pct"] > -2.0


class TestHighContentionSavings:
    """'For highly-conflicting application like intruder, abort rate is
    high and as a result savings in the energy is also reasonable.'"""

    @pytest.fixture(scope="class")
    def intruder16(self, executor):
        return grid_point("intruder", 16, executor)

    def test_abort_rate_is_high(self, intruder16):
        assert intruder16.ungated.abort_rate > 0.5

    def test_energy_savings_substantial(self, intruder16):
        assert intruder16.energy_reduction > 1.15

    def test_gating_reduces_wasted_work(self, intruder16):
        assert intruder16.gated.aborts < intruder16.ungated.aborts

    def test_gated_state_time_is_significant(self, intruder16):
        gated_cycles = intruder16.gated.energy.state_cycles(ProcState.GATED)
        total = (
            intruder16.gated.parallel_time * intruder16.gated.config.num_procs
        )
        assert gated_cycles / total > 0.05

    def test_renewals_happen(self, intruder16):
        """Short same-site transactions in a loop renew their windows."""
        assert intruder16.gated.counters.get("gating.renewals", 0) > 0


class TestModerateContention:
    """genome/yada: moderate conflicts; effects small, direction varies
    (the paper itself reports one slowdown case)."""

    def test_genome_effects_are_modest(self, executor):
        comparison = grid_point("genome", 8, executor)
        assert 0.9 < comparison.speedup < 1.1
        assert 0.85 < comparison.energy_reduction < 1.2

    def test_yada_saves_energy_at_low_counts(self, executor):
        assert grid_point("yada", 4, executor).energy_reduction > 1.0


class TestAblations:
    """Mechanism ablations on the highly contended intruder (and the
    long-transaction yada) at 8 processors."""

    SPEC = workload("intruder", scale="small", seed=SEED)
    CONFIG = SystemConfig(num_procs=8, seed=SEED)

    def test_eq8_gating_beats_immediate_retry(self, executor):
        """Section VI: gating with the Eq. 8 staircase saves energy over
        the immediate-retry baseline and cuts futile work."""
        baseline, eq8 = executor.run([
            RunJob(self.SPEC, self.CONFIG.with_gating(False)),
            RunJob(self.SPEC, self.CONFIG.with_gating(True)),
        ])
        assert baseline.energy.total / eq8.energy.total > 1.1
        assert eq8.aborts < baseline.aborts

    def test_leakage_sensitivity(self):
        """The gated state burns exactly the leakage power, so savings
        shrink as leakage grows; a State Retention Power Gating floor
        (Section IV) strictly improves on plain clock gating."""
        ungated = run_workload(self.SPEC, self.CONFIG.with_gating(False))
        gated = run_workload(self.SPEC, self.CONFIG.with_gating(True))

        def energy(result, model, gated_run):
            machine = result.machine_result
            window = (machine.parallel_start, machine.parallel_end)
            return compute_energy(machine.timelines, window, model,
                                  gated_run=gated_run).total

        reductions = []
        for leak in (0.10, 0.20, 0.30, 0.40):
            model = PowerModel.derive(PowerModelParams(leakage_fraction=leak))
            reductions.append(
                energy(ungated, model, False) / energy(gated, model, True)
            )
        assert reductions == sorted(reductions, reverse=True)

        base = PowerModel.derive()
        srpg = PowerModel(run=base.run, miss=base.miss, commit=base.commit,
                          gated=0.05)
        srpg_reduction = energy(ungated, base, False) / energy(gated, srpg, True)
        assert srpg_reduction > reductions[1]  # plain gating at 20 % leakage

    def test_momentum_windows_track_transaction_length(self):
        """The paper's future-work CM: the gating window scales with the
        victim's invested work, so long-transaction yada gets longer
        windows than under Eq. 8."""
        windows = {}
        for app in ("yada", "intruder"):
            for policy in ("gating-aware", "momentum"):
                trace = TraceRecorder(kinds=("gate.record", "gate.renew"))
                result = run_workload(
                    workload(app, scale="small", seed=SEED),
                    self.CONFIG.with_gating(True, contention_manager=policy),
                    trace=trace,
                )
                assert result.commits > 0
                armed = [event.window for event in trace]
                windows[(app, policy)] = (
                    sum(armed) / len(armed) if armed else 0.0
                )
        assert windows[("yada", "momentum")] > windows[("yada", "gating-aware")]

    def test_renewal_cuts_aborts(self, executor, monkeypatch):
        """Fig. 2e/2f: renewing the window lets victims sleep through
        doomed retries; forcing "on" at every expiry disables it."""
        (with_renewal,) = executor.run([RunJob(self.SPEC, self.CONFIG)])

        def never_renew(unit, entry, epoch):
            if entry.epoch == epoch:
                unit._send_on(entry, reason="renewal-ablated")

        monkeypatch.setattr(GatingUnit, "_check_ungate", never_renew)
        # simulated directly: the patch is invisible to job digests, so
        # this run must never reach the store
        without_renewal = run_workload(self.SPEC, self.CONFIG)

        assert with_renewal.counters.get("gating.renewals", 0) > 0
        assert without_renewal.counters.get("gating.renewals", 0) == 0
        assert with_renewal.aborts <= without_renewal.aborts


class TestEquationRelationships:
    """Eq. (7) couples Figs. 4–6: power = energy × (N2/N1)."""

    @pytest.fixture(scope="class")
    def comparison(self):
        return compare_gating(
            workload("counter", scale="small", seed=2),
            SystemConfig(num_procs=8, seed=2),
        )

    def test_power_vs_energy_relation(self, comparison):
        assert comparison.power_reduction == pytest.approx(
            comparison.energy_reduction * comparison.n2 / comparison.n1
        )

    def test_energy_reduction_exceeds_power_reduction_when_faster(self, comparison):
        if comparison.speedup > 1:
            assert comparison.energy_reduction > comparison.power_reduction


class TestGatingCorrectnessUnderLoad:
    def test_serializability_at_scale(self):
        """The strongest end-to-end check at a meaningful size."""
        result = run_workload(
            workload("intruder", scale="small", seed=3),
            SystemConfig(num_procs=8, seed=3),
            check_serial=True,
        )
        assert result.commits > 500

    def test_wakeups_match_gates_at_scale(self):
        result = run_workload(
            workload("intruder", scale="small", seed=3),
            SystemConfig(num_procs=8, seed=3),
        )
        c = result.counters
        assert c["gating.wakeups"] == c["gating.gated"]
