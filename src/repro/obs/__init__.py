"""``repro.obs`` — structured tracing, run manifests and metrics.

The observability layer is *opt-in* and *global per process*: call
sites throughout the execution spine (executor, store, scenario
runner, figure builder) ask :func:`get_recorder` for the
process-wide recorder and emit spans/events/counters through it.  While
observability is off that recorder is a :class:`NullRecorder` whose
hooks are empty methods, so instrumentation costs nothing measurable
and — critically — changes no bytes in the result store or the figure
artifacts.

Enable it one of three ways:

* CLI flag: ``repro <command> --obs-dir obs``;
* environment: ``REPRO_OBS=1`` (directory from ``REPRO_OBS_DIR``,
  default ``obs``);
* programmatically: :func:`configure`.

The process that starts a run is its only writer.  Pool workers never
record: the executor lands each job's span, counters and profile rows
in the parent from the job's outcome.
"""

from __future__ import annotations

import os
from pathlib import Path

from .recorder import (OBS_SCHEMA_VERSION, NullRecorder, ObsRecorder, Span,
                       new_run_id)

__all__ = [
    "OBS_SCHEMA_VERSION",
    "Span",
    "ObsRecorder",
    "NullRecorder",
    "new_run_id",
    "get_recorder",
    "configure",
    "disable",
    "reset",
    "obs_enabled_from_env",
    "obs_dir_from_env",
]

_ENV_ENABLE = "REPRO_OBS"
_ENV_DIR = "REPRO_OBS_DIR"
_DEFAULT_DIR = "obs"
_TRUTHY = frozenset({"1", "true", "yes", "on"})

_NULL = NullRecorder()
_recorder: NullRecorder | None = None  # None = env not consulted yet


def obs_enabled_from_env() -> bool:
    return os.environ.get(_ENV_ENABLE, "").strip().lower() in _TRUTHY


def obs_dir_from_env() -> str:
    return os.environ.get(_ENV_DIR, "").strip() or _DEFAULT_DIR


def get_recorder() -> NullRecorder:
    """The process-wide recorder (NullRecorder while obs is off).

    The first call reads ``REPRO_OBS``: a process with it set starts
    its own run the first time any instrumented code runs.
    """
    global _recorder
    if _recorder is None:
        _recorder = (ObsRecorder(obs_dir_from_env())
                     if obs_enabled_from_env() else _NULL)
    return _recorder


def configure(directory: str | Path,
              argv: list[str] | None = None) -> ObsRecorder:
    """Start a new run in *directory*, written by this process."""
    global _recorder
    if isinstance(_recorder, ObsRecorder):
        _recorder.close()
    _recorder = ObsRecorder(directory, argv=argv)
    return _recorder


def disable() -> None:
    """Close any active recorder and pin this process to NullRecorder."""
    global _recorder
    if isinstance(_recorder, ObsRecorder):
        _recorder.close()
    _recorder = _NULL


def reset() -> None:
    """Forget recorder state entirely (tests): next access re-reads env."""
    global _recorder
    if isinstance(_recorder, ObsRecorder):
        _recorder.close()
    _recorder = None
