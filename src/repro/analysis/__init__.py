"""Post-run analysis tools.

Turns traces and timelines into the artefacts a systems study needs:

* :mod:`~repro.analysis.conflicts` — who aborted whom (aborter→victim
  pair counts), per-site conflict statistics.
* :mod:`~repro.analysis.gating` — gating-episode extraction (window
  lengths, renewal chains, per-directory behaviour).
* :mod:`~repro.analysis.timelines` — CSV export and state-share
  summaries of the power-state timelines.
* :mod:`~repro.analysis.runreport` — one text report combining all of
  the above for a run.
* :mod:`~repro.analysis.figreport` — paper-style text tables rendered
  from figure-pipeline artifacts (``figures/<name>.json``), consuming
  the shared :mod:`repro.figures.extract` outputs instead of
  re-deriving rows.
* :mod:`~repro.analysis.lint` / :mod:`~repro.analysis.rules` — the
  ``repro check`` static-analysis engine: AST rules for the store
  discipline, the typed core and the replicate-pack prep cache
  (imported lazily by the CLI; see docs/static-analysis.md).

Each name below imports its module on first use, so reading a
figure artifact (``figreport``, behind ``figures build --show``) loads
neither the simulator nor NumPy.
"""

from .._lazy import lazy_exports

__all__ = [
    "ConflictStats",
    "conflict_stats",
    "GatingEpisode",
    "extract_episodes",
    "gating_summary",
    "state_shares",
    "timelines_to_csv",
    "format_figure",
    "load_figure",
    "run_report",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".conflicts": ("ConflictStats", "conflict_stats"),
    ".figreport": ("format_figure", "load_figure"),
    ".gating": ("GatingEpisode", "extract_episodes", "gating_summary"),
    ".timelines": ("state_shares", "timelines_to_csv"),
    ".runreport": ("run_report",),
})
