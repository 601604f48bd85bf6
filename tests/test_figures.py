"""The declarative figure pipeline: registry, extractors, builder, CLI.

The golden-fixture tests rebuild every registered artifact from the
committed result store at ``tests/data/figstore`` — asserting ZERO
residual simulations — and compare the produced JSON byte-for-byte
against ``tests/data/figures_golden``.  Regenerate both with
``scripts/regen_fig_golden.py`` only when behaviour legitimately
changes.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.figreport import format_figure, load_figure
from repro.errors import FigureError
from repro.figures import (
    FigureBuilder,
    FigureParams,
    FigureSpec,
    available_extractors,
    available_figures,
    csv_rows,
    figure_digest,
    get_extractor,
    get_figure,
    register_extractor,
    register_figure,
)
from repro.figures.registry import eval_grid_suite, w0_grid_suite
from repro.power.model import PowerModel

DATA = Path(__file__).parent / "data"

#: mirrors scripts/regen_fig_golden.py — the committed store covers this
GOLDEN_PARAMS = FigureParams(
    scale="tiny", seed=0, procs=(2, 4), w0=8, w0_values=(2, 8)
)

#: a 3-unique-job grid for fast live-simulation tests
TINY_PARAMS = FigureParams(
    scale="tiny", seed=0, apps=("counter",), procs=(2,), w0=2,
    w0_values=(2, 4),
)

PAPER_ARTIFACTS = (
    "fig3", "fig4", "fig5", "fig6", "fig7", "table1", "table2", "headline",
)


@pytest.fixture()
def golden_store(tmp_path):
    """A scratch copy of the committed store (tests must not touch it)."""
    target = tmp_path / "figstore"
    shutil.copytree(DATA / "figstore", target)
    return target


# ----------------------------------------------------------------------
# registry + specs
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        assert tuple(available_figures()) == PAPER_ARTIFACTS

    def test_unknown_figure(self):
        with pytest.raises(FigureError, match="unknown figure"):
            get_figure("fig99")

    def test_duplicate_registration_requires_overwrite(self):
        spec = get_figure("fig4")
        with pytest.raises(FigureError, match="already registered"):
            register_figure(spec)
        assert register_figure(spec, overwrite=True) is spec

    def test_figures_share_the_eval_suite(self):
        params = FigureParams()
        eval_json = eval_grid_suite(params).to_json()
        for name in ("fig4", "fig5", "fig6", "headline"):
            resolved = get_figure(name).resolve_suite(params)
            assert resolved.to_json() == eval_json
        assert get_figure("fig7").resolve_suite(params).to_json() \
            == w0_grid_suite(params).to_json()

    def test_analytic_figures_have_no_suite(self):
        for name in ("fig3", "table1", "table2"):
            assert get_figure(name).resolve_suite(FigureParams()) is None

    def test_bad_kind(self):
        with pytest.raises(FigureError, match="kind"):
            FigureSpec(name="x", title="x", extractor="fig3-cache-power",
                       kind="chart")


class TestParams:
    def test_lists_coerce_to_tuples(self):
        params = FigureParams(apps=["counter"], procs=[2], w0_values=[2])
        assert params.apps == ("counter",)
        assert params.procs == (2,)
        assert params.w0_values == (2,)

    def test_empty_axes_rejected(self):
        with pytest.raises(FigureError):
            FigureParams(apps=())

    @pytest.mark.parametrize("field, values", [
        ("apps", ("counter", "counter")),
        ("procs", (2, 2)),
        ("w0_values", (2, 8, 2)),
    ])
    def test_duplicate_axis_values_rejected(self, field, values):
        with pytest.raises(FigureError, match=f"{field} has duplicate"):
            FigureParams(**{field: values})

    def test_system_config_defaults_to_largest_grid(self):
        config = FigureParams(procs=(2, 8)).system_config()
        assert config.num_procs == 8
        assert config.gating.w0 == 8


class TestDigest:
    def test_digest_is_stable(self):
        spec = get_figure("fig4")
        params = FigureParams()
        power = PowerModel.derive()
        suite = spec.resolve_suite(params)
        assert figure_digest(spec, suite, params, power) \
            == figure_digest(spec, suite, params, power)

    def test_digest_tracks_params_and_extractor_version(self):
        power = PowerModel.derive()
        spec = get_figure("fig4")
        a = figure_digest(spec, spec.resolve_suite(FigureParams()),
                          FigureParams(), power)
        shrunk = FigureParams(procs=(2,))
        b = figure_digest(spec, spec.resolve_suite(shrunk), shrunk, power)
        assert a != b

        register_extractor("test-versioned", version=1)(lambda ctx: {})
        probe = FigureSpec(name="probe", title="p",
                           extractor="test-versioned")
        v1 = figure_digest(probe, None, FigureParams(), power)
        register_extractor("test-versioned", version=2)(lambda ctx: {})
        v2 = figure_digest(probe, None, FigureParams(), power)
        assert v1 != v2


# ----------------------------------------------------------------------
# extractors
# ----------------------------------------------------------------------
class TestExtractors:
    def test_all_registered(self):
        names = available_extractors()
        for spec_name in PAPER_ARTIFACTS:
            assert get_figure(spec_name).extractor in names

    def test_unknown_extractor(self):
        with pytest.raises(FigureError, match="unknown extractor"):
            get_extractor("no-such-extractor")

    def test_missing_grid_point_is_loud(self):
        from repro.figures.extract import fig4_rows

        with pytest.raises(FigureError, match="missing the"):
            fig4_rows({}, ("genome",), (4,))


# ----------------------------------------------------------------------
# incremental builds (live tiny simulations)
# ----------------------------------------------------------------------
class TestIncrementalBuild:
    def test_second_build_is_zero_simulations_and_byte_identical(
        self, tmp_path
    ):
        builder = FigureBuilder(
            store=tmp_path / "store", out_dir=tmp_path / "figs",
            params=TINY_PARAMS,
        )
        first = builder.build()
        # eval grid: ungated + gated@2; fig7 adds gated@4 (baseline shared)
        assert first.executed == 3
        assert first.total_jobs == 3
        assert {a.status for a in first.artifacts} == {"built"}
        cold = {
            a.name: a.path.read_bytes() for a in first.artifacts
        }

        second = builder.build()
        assert second.executed == 0
        assert second.planned_misses == 0
        assert {a.status for a in second.artifacts} == {"fresh"}
        for artifact in second.artifacts:
            assert artifact.path.read_bytes() == cold[artifact.name]

        forced = builder.build(force=True)
        assert forced.executed == 0
        assert {a.status for a in forced.artifacts} == {"rebuilt"}
        for artifact in forced.artifacts:
            assert artifact.path.read_bytes() == cold[artifact.name]

    def test_forced_build_reads_no_artifact(
        self, monkeypatch, tmp_path, golden_store
    ):
        builder = FigureBuilder(store=golden_store, out_dir=tmp_path / "f",
                                params=GOLDEN_PARAMS)
        first = {a.name: a.path.read_bytes()
                 for a in builder.build().artifacts}
        for name in ("fig4", "table1"):
            builder.artifact_path(name).unlink()

        def no_read(*_args):
            raise AssertionError("a forced build read an artifact")

        monkeypatch.setattr(FigureBuilder, "_artifact_state", no_read)
        forced = builder.build(force=True)
        assert forced.executed == 0
        assert {a.name: a.status for a in forced.artifacts} == {
            name: "built" if name in ("fig4", "table1") else "rebuilt"
            for name in PAPER_ARTIFACTS
        }
        for artifact in forced.artifacts:
            assert artifact.path.read_bytes() == first[artifact.name]

    def test_param_change_goes_stale(self, tmp_path):
        builder = FigureBuilder(store=tmp_path / "s", out_dir=tmp_path / "f",
                                params=TINY_PARAMS)
        builder.build(names=["table2"])
        grown = FigureBuilder(
            store=tmp_path / "s", out_dir=tmp_path / "f",
            params=FigureParams(
                scale="tiny", seed=0, apps=("counter",), procs=(4,), w0=2,
                w0_values=(2, 4),
            ),
        )
        (status,), _misses, _total = grown.overview(names=["table2"])
        assert status.artifact == "stale"
        report = grown.build(names=["table2"])
        assert report.artifacts[0].status == "rebuilt"

    def test_only_selection_and_unknown_names(self, tmp_path):
        builder = FigureBuilder(store=tmp_path / "s", out_dir=tmp_path / "f",
                                params=TINY_PARAMS)
        report = builder.build(names=["table1", "fig3"])
        # presentation order is kept regardless of request order
        assert [a.name for a in report.artifacts] == ["fig3", "table1"]
        assert report.executed == 0  # analytic only
        with pytest.raises(FigureError, match="unknown figure"):
            builder.build(names=["figx"])

    def test_data_requires_coverage(self, tmp_path):
        builder = FigureBuilder(store=tmp_path / "s", out_dir=tmp_path / "f",
                                params=TINY_PARAMS)
        with pytest.raises(FigureError, match="does not cover"):
            builder.data("fig4")
        assert builder.data("table1")["rows"]  # analytic: no coverage needed

    def test_lost_writes_leave_figures_incomplete(self, tmp_path, monkeypatch):
        """A figure is never rendered from a store that lacks its runs."""
        from repro.exec.store import ResultStore

        monkeypatch.setattr(ResultStore, "put", lambda *args, **kwargs: None)
        builder = FigureBuilder(store=tmp_path / "s", out_dir=tmp_path / "f",
                                params=TINY_PARAMS)
        report = builder.build()
        assert report.executed == 3
        statuses = {a.name: a.status for a in report.artifacts}
        assert statuses["fig7"] == "incomplete"
        assert not (tmp_path / "f" / "fig7.json").exists()
        assert statuses["table1"] == "built"  # analytic: needs no runs

        monkeypatch.undo()
        final = FigureBuilder(store=tmp_path / "s", out_dir=tmp_path / "f",
                              params=TINY_PARAMS)
        report = final.build()
        assert report.executed == 3
        assert all(a.status in ("built", "fresh")
                   for a in report.artifacts)


# ----------------------------------------------------------------------
# golden fixture: byte-stable artifacts, zero simulations
# ----------------------------------------------------------------------
class TestGoldenStore:
    def _normalized(self, payload: dict) -> bytes:
        payload = json.loads(json.dumps(payload))
        payload["provenance"]["git_sha"] = None
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()

    def test_every_figure_builds_byte_stable_from_the_committed_store(
        self, tmp_path, golden_store
    ):
        builder = FigureBuilder(
            store=golden_store, out_dir=tmp_path / "out",
            params=GOLDEN_PARAMS,
        )
        report = builder.build()
        assert report.executed == 0, (
            "committed figstore no longer covers the golden grid — "
            "simulation semantics or digests changed; see "
            "scripts/regen_fig_golden.py"
        )
        assert report.planned_misses == 0
        assert [a.name for a in report.artifacts] == list(PAPER_ARTIFACTS)
        for artifact in report.artifacts:
            golden = (DATA / "figures_golden" / f"{artifact.name}.json")
            produced = self._normalized(
                json.loads(artifact.path.read_text(encoding="utf-8"))
            )
            assert produced == golden.read_bytes(), (
                f"{artifact.name} drifted from its golden; regenerate "
                f"with scripts/regen_fig_golden.py if intended"
            )

    def test_golden_headline_covers_the_grid(self, tmp_path, golden_store):
        builder = FigureBuilder(store=golden_store, out_dir=tmp_path,
                                params=GOLDEN_PARAMS)
        headline = builder.data("headline")
        assert headline["points"] == float(
            len(GOLDEN_PARAMS.apps) * len(GOLDEN_PARAMS.procs)
        )

    def test_golden_rows_keep_the_paper_identities(
        self, tmp_path, golden_store
    ):
        builder = FigureBuilder(store=golden_store, out_dir=tmp_path,
                                params=GOLDEN_PARAMS)
        for _app, _procs, n1, n2, speedup in builder.data("fig4")["rows"]:
            assert speedup == pytest.approx(n1 / n2)
        for _app, _procs, eug, eg, reduction in builder.data("fig5")["rows"]:
            assert reduction == pytest.approx(eug / eg)
        assert all(len(row) == 5 for row in builder.data("fig6")["rows"])

        headline = builder.data("headline")
        factor = headline["average_energy_reduction_factor"]
        assert factor > 0
        assert headline["average_energy_reduction_pct"] == pytest.approx(
            (1 - 1 / factor) * 100
        )

        matrix = builder.data("fig7")["speedup"]
        assert set(matrix) == set(GOLDEN_PARAMS.apps)
        for by_procs in matrix.values():
            assert set(by_procs) == {str(p) for p in GOLDEN_PARAMS.procs}
            for curve in by_procs.values():
                assert set(curve) == {str(w) for w in GOLDEN_PARAMS.w0_values}

    def test_provenance_records_jobs_and_suite(self, golden_store, tmp_path):
        builder = FigureBuilder(store=golden_store, out_dir=tmp_path / "o",
                                params=GOLDEN_PARAMS)
        report = builder.build(names=["fig7"])
        payload = json.loads(report.artifacts[0].path.read_text())
        prov = payload["provenance"]
        assert prov["extractor"] == {"name": "fig7-w0-sensitivity",
                                     "version": 1}
        assert prov["suite"]["name"] == "paper-fig7"
        assert prov["store_backend"] == "jsonl"
        assert prov["jobs"] == sorted(prov["jobs"])
        assert len(prov["jobs"]) > 0
        assert prov["figure_digest"] == report.artifacts[0].digest


# ----------------------------------------------------------------------
# renderers + figreport
# ----------------------------------------------------------------------
class TestRenderers:
    def test_csv_shapes(self, golden_store, tmp_path):
        builder = FigureBuilder(store=golden_store, out_dir=tmp_path / "o",
                                params=GOLDEN_PARAMS)
        report = builder.build(csv=True)
        for artifact in report.artifacts:
            headers, rows = csv_rows(load_figure(artifact.path))
            assert headers and rows
            assert artifact.path.with_suffix(".csv").exists()
        fig7 = load_figure(tmp_path / "o" / "fig7.json")
        headers, rows = csv_rows(fig7)
        assert headers == ["app", "procs", "w0", "speedup"]
        assert len(rows) == (
            len(GOLDEN_PARAMS.apps) * len(GOLDEN_PARAMS.procs)
            * len(GOLDEN_PARAMS.w0_values)
        )

    def test_png_needs_matplotlib(self, golden_store, tmp_path):
        builder = FigureBuilder(store=golden_store, out_dir=tmp_path / "o",
                                params=GOLDEN_PARAMS)
        try:
            import matplotlib  # noqa: F401
        except ImportError:
            with pytest.raises(FigureError, match="matplotlib"):
                builder.build(names=["fig7"], png=True)
        else:  # pragma: no cover - env-dependent branch
            report = builder.build(names=["fig7"], png=True)
            assert report.artifacts[0].path.with_suffix(".png").exists()

    def test_format_figure_every_artifact(self, golden_store, tmp_path):
        builder = FigureBuilder(store=golden_store, out_dir=tmp_path / "o",
                                params=GOLDEN_PARAMS)
        report = builder.build()
        for artifact in report.artifacts:
            text = format_figure(load_figure(artifact.path))
            assert get_figure(artifact.name).title.split("—")[0][:20] in text

    def test_load_figure_rejects_non_artifacts(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[]")
        with pytest.raises(FigureError, match="not a figure artifact"):
            load_figure(path)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestFiguresCli:
    TINY_FLAGS = ["--scale", "tiny", "--apps", "counter", "--grid", "2",
                  "--w0", "2", "--w0-values", "2", "4"]

    def run(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_list(self, capsys):
        code, out, _err = self.run(capsys, "figures", "list")
        assert code == 0
        for name in PAPER_ARTIFACTS:
            assert name in out

    def test_status_without_store(self, capsys, tmp_path):
        code, out, err = self.run(
            capsys, "figures", "status",
            "--cache-dir", str(tmp_path / "nope"),
            "--out-dir", str(tmp_path / "figs"), *self.TINY_FLAGS,
        )
        assert code == 0
        assert "missing" in out
        assert "no result store" in err
        assert not (tmp_path / "nope").exists()

    def test_build_twice_is_incremental(self, capsys, tmp_path):
        argv = ["figures", "build",
                "--cache-dir", str(tmp_path / "cache"),
                "--out-dir", str(tmp_path / "figs"), *self.TINY_FLAGS]
        code, out, _err = self.run(capsys, *argv)
        assert code == 0
        assert "simulated 3 residual job(s)" in out
        code, out, _err = self.run(capsys, *argv)
        assert code == 0
        assert "simulated 0 residual job(s)" in out
        assert "8 fresh" in out

        code, out, _err = self.run(capsys, "figures", "status",
                                   "--cache-dir", str(tmp_path / "cache"),
                                   "--out-dir", str(tmp_path / "figs"),
                                   *self.TINY_FLAGS)
        assert code == 0
        assert "stale" not in out
        assert "0 artifact(s) need building" in out

    def test_build_only_show(self, capsys, tmp_path):
        code, out, _err = self.run(
            capsys, "figures", "build", "--only", "table1", "--only", "fig3",
            "--show", "--cache-dir", str(tmp_path / "cache"),
            "--out-dir", str(tmp_path / "figs"), *self.TINY_FLAGS,
        )
        assert code == 0
        assert "table1: built" in out
        assert "Power model" in out
        # Fig. 3: 64 KB with 2 B RW-bit tracking costs +5 %
        assert "105.000" in out
        assert "full TCC data-cache factor" in out
        assert not (tmp_path / "figs" / "fig4.json").exists()

    def test_incomplete_build_exits_nonzero(self, capsys, tmp_path,
                                            monkeypatch):
        from repro.exec.store import ResultStore

        monkeypatch.setattr(ResultStore, "put", lambda *args, **kwargs: None)
        code, out, err = self.run(
            capsys, "figures", "build", "--only", "fig7",
            "--cache-dir", str(tmp_path / "cache"),
            "--out-dir", str(tmp_path / "figs"), *self.TINY_FLAGS,
        )
        assert code == 1
        assert "fig7: incomplete" in out
        assert "incomplete (store lacks runs): fig7" in err

    def test_duplicate_grid_values_fail_before_simulating(
        self, capsys, tmp_path
    ):
        code, _out, err = self.run(
            capsys, "figures", "build", "--only", "fig4",
            "--cache-dir", str(tmp_path / "cache"),
            "--out-dir", str(tmp_path / "figs"),
            "--scale", "tiny", "--apps", "counter", "--grid", "2", "2")
        assert code == 2
        assert "procs has duplicate" in err
        # no store opened, so no records written
        assert not (tmp_path / "cache").exists()


class TestReviewRegressions:
    """Fixes from the PR's own review pass."""

    def test_csv_export_works_on_fresh_artifacts(self, tmp_path):
        builder = FigureBuilder(store=tmp_path / "s", out_dir=tmp_path / "f",
                                params=TINY_PARAMS)
        builder.build(names=["table1"])            # JSON only
        report = builder.build(names=["table1"], csv=True)
        assert report.artifacts[0].status == "fresh"
        assert (tmp_path / "f" / "table1.csv").exists()

    def test_residual_jobs_deduplicates_across_figures(self, tmp_path):
        builder = FigureBuilder(store=tmp_path / "s", out_dir=tmp_path / "f",
                                params=TINY_PARAMS)
        # per-figure miss counts overlap (fig4/5/6/headline share the
        # eval suite; fig7 shares jobs with it) — the aggregate must
        # match what a build would actually simulate
        _statuses, misses, total = builder.overview()
        assert (misses, total) == (3, 3)
        assert builder.build().executed == 3
        assert builder.overview()[1:] == (0, 3)

    def test_cli_status_reports_unique_residuals(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["figures", "status",
                     "--cache-dir", str(tmp_path / "nope"),
                     "--out-dir", str(tmp_path / "figs"),
                     *TestFiguresCli.TINY_FLAGS])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 residual simulation(s)" in out

    def test_throwaway_store_is_cleaned_up(self):
        import gc
        from pathlib import Path as _Path

        builder = FigureBuilder(store=None, params=TINY_PARAMS)
        tmp = _Path(builder.store.directory)
        assert tmp.exists()
        builder.store.close()
        del builder
        gc.collect()
        assert not tmp.exists()


class TestGridParity:
    """The built-in paper suites are the registry's grids, so ``suite
    run`` and ``figures build`` share one result store."""

    def test_eval_grid_is_the_builtin_suite(self):
        from repro.scenarios.builtin import get_suite

        for scale, seed in (("tiny", 0), ("small", 3)):
            builtin = get_suite("paper-eval", scale=scale, seed=seed)
            assert builtin.to_dict() == eval_grid_suite(
                FigureParams(scale=scale, seed=seed)
            ).to_dict()
            assert builtin.size == 18

    def test_w0_grid_digests_match_builtin(self):
        from repro.scenarios.builtin import get_suite

        params = FigureParams(scale="tiny", seed=0)
        builtin = get_suite("paper-fig7", scale="tiny", seed=0)
        assert builtin.to_dict() == w0_grid_suite(params).to_dict()
        assert [s.to_job().digest for s in builtin.expand()] == [
            s.to_job().digest for s in w0_grid_suite(params).expand()
        ]


class TestDataShapeRobustness:
    def test_scalar_mapping_with_speedup_key_is_not_a_matrix(self):
        from repro.figures.render import data_shape

        assert data_shape({"speedup": 1.2, "energy_saved": 0.9}) == "scalars"
        assert data_shape({"normalized_power": 1.5}) == "scalars"
        assert data_shape(
            {"speedup": {"genome": {}}, "apps": ["genome"]}
        ) == "matrix"
        assert data_shape([1, 2]) == "unknown"
