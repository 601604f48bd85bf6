"""Renderers: figure payload dicts to JSON / CSV / PNG artifacts.

The JSON renderer is canonical and always available: sorted keys,
two-space indent, trailing newline — two builds of the same figure from
the same store produce byte-identical files, which is what the
incremental-figures CI job asserts.  CSV is a flat row export for
spreadsheet users; PNG requires matplotlib and degrades to a
:class:`~repro.errors.FigureError` naming the missing dependency when
it is not installed (the toolkit never hard-depends on it).

Provenance: every JSON artifact records where its bytes came from —
the figure content digest, extractor name + version, the resolved
suite's name/size/digest, the sorted job digests consumed from the
store, the store format (always ``jsonl``), and the git commit the
build ran at.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from ..errors import FigureError
from ..exec.serialize import canonical_json
from ..vcs import git_sha
from .spec import FIGURE_SCHEMA_VERSION, FigureSpec

__all__ = [
    "figure_payload",
    "render_json",
    "render_csv",
    "render_png",
    "csv_rows",
    "data_shape",
    "git_sha",
]


def data_shape(data: Any) -> str:
    """Classify a figure's ``data`` section for rendering dispatch.

    ``"rows"`` (headers + rows tables), ``"matrix"`` (the Fig. 7
    speed-up grid), ``"curves"`` (the Fig. 3 power curves),
    ``"scalars"`` (flat metric mappings like the headline), or
    ``"unknown"``.  The CSV, PNG and text renderers all dispatch
    through this one classifier, so a new shape is added in one place.
    """
    if isinstance(data, dict):
        if "rows" in data and "headers" in data:
            return "rows"
        # nested-shape checks, not bare key sniffs: a user extractor's
        # flat mapping may legitimately contain a "speedup" scalar
        if isinstance(data.get("speedup"), dict) and "apps" in data:
            return "matrix"
        if isinstance(data.get("normalized_power"), dict):
            return "curves"
        return "scalars"
    return "unknown"


def suite_digest(suite: Any) -> str:
    """Stable SHA-256 of a suite's canonical JSON description."""
    return hashlib.sha256(
        canonical_json(suite.to_dict()).encode()
    ).hexdigest()


def figure_payload(
    spec: FigureSpec,
    suite: Any,
    digest: str,
    data: Any,
    job_digests: list[str],
) -> dict[str, Any]:
    """Assemble the full JSON artifact for one figure."""
    from .extract import extractor_version

    return {
        "schema": FIGURE_SCHEMA_VERSION,
        "name": spec.name,
        "kind": spec.kind,
        "title": spec.title,
        "data": data,
        "provenance": {
            "figure_digest": digest,
            "extractor": {
                "name": spec.extractor,
                "version": extractor_version(spec.extractor),
            },
            "suite": (
                {
                    "name": suite.name,
                    "scenarios": suite.size,
                    "digest": suite_digest(suite),
                }
                if suite is not None
                else None
            ),
            "jobs": list(job_digests),
            # the store has a single format now; the key stays so that
            # artifacts built before keep their bytes
            "store_backend": "jsonl",
            "git_sha": git_sha(),
        },
    }


def render_json(payload: dict[str, Any], path: str | Path) -> Path:
    """Write the canonical JSON artifact (deterministic bytes)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def csv_rows(payload: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
    """Flatten any figure payload into (headers, rows) for CSV export.

    Row-shaped data exports as-is; the Fig. 7 matrix and the Fig. 3
    curves flatten to long form; scalar mappings (headline) export as
    (metric, value) pairs.
    """
    data = payload["data"]
    shape = data_shape(data)
    if shape == "rows":
        return list(data["headers"]), [list(row) for row in data["rows"]]
    if shape == "matrix":  # fig7
        rows = [
            [app, int(procs), int(w0), value]
            for app, by_procs in data["speedup"].items()
            for procs, curve in by_procs.items()
            for w0, value in curve.items()
        ]
        return ["app", "procs", "w0", "speedup"], rows
    if shape == "curves":  # fig3
        rows = [
            [int(size), int(granularity), power]
            for size, curve in data["normalized_power"].items()
            for granularity, power in curve.items()
        ]
        return ["cache_kb", "granularity_bytes", "normalized_power"], rows
    if shape == "scalars":  # headline-style metric mapping
        return ["metric", "value"], [[k, v] for k, v in data.items()]
    raise FigureError(
        f"figure {payload.get('name')!r} has no CSV representation"
    )


def render_csv(payload: dict[str, Any], path: str | Path) -> Path:
    import csv as _csv

    headers, rows = csv_rows(payload)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)
    return path


# ----------------------------------------------------------------------
# PNG (optional dependency)
# ----------------------------------------------------------------------
def render_png(payload: dict[str, Any], path: str | Path) -> Path:
    """Plot the figure with matplotlib (optional; clear error without)."""
    try:
        import matplotlib  # noqa: F401

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise FigureError(
            "PNG rendering needs matplotlib, which is not installed; "
            "use the JSON/CSV artifacts instead"
        ) from None

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = payload["data"]
    shape = data_shape(data)
    fig, ax = plt.subplots(figsize=(7, 4))
    try:
        if shape == "matrix":
            for app, by_procs in data["speedup"].items():
                for procs, curve in by_procs.items():
                    w0s = sorted(curve, key=int)
                    ax.plot([int(w) for w in w0s],
                            [curve[w] for w in w0s],
                            marker="o", label=f"{app} x{procs}")
            ax.set_xlabel("W0")
            ax.set_ylabel("speed-up (N1/N2)")
            ax.set_xscale("log", base=2)
            ax.legend(fontsize=7)
        elif shape == "curves":
            for size, curve in data["normalized_power"].items():
                gs = sorted(curve, key=int, reverse=True)
                ax.plot([int(g) for g in gs], [curve[g] for g in gs],
                        marker="o", label=f"{size} KB")
            ax.set_xlabel("RW-bit granularity (bytes)")
            ax.set_ylabel("normalized power (normal cache = 100)")
            ax.invert_xaxis()
            ax.legend(fontsize=7)
        else:
            headers, rows = csv_rows(payload)
            labels = [" ".join(str(v) for v in row[:-1]) for row in rows]
            values = [row[-1] for row in rows]
            numeric = [v for v in values if isinstance(v, (int, float))]
            ax.bar(range(len(numeric)), numeric)
            ax.set_xticks(range(len(numeric)))
            ax.set_xticklabels(
                [l for l, v in zip(labels, values)
                 if isinstance(v, (int, float))],
                rotation=60, ha="right", fontsize=6,
            )
            ax.set_ylabel(headers[-1])
        ax.set_title(payload["title"], fontsize=9)
        fig.tight_layout()
        fig.savefig(path, dpi=150)
    finally:
        plt.close(fig)
    return path
