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

* CLI flag: ``repro --obs-dir obs <command>``;
* environment: ``REPRO_OBS=1`` (directory from ``REPRO_OBS_DIR``,
  default ``obs``) — this is how child worker *processes* inherit
  observability, since the recorder itself cannot cross a fork/spawn;
* programmatically: :func:`configure`.

Worker processes that should append to the *parent's* run pass the run
id through ``REPRO_OBS_RUN`` (set automatically by :func:`configure`
when ``export_env=True``); same-run appends are whole-line atomic via
an advisory file lock.
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
_ENV_RUN = "REPRO_OBS_RUN"
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

    First call reads the environment, so worker processes spawned with
    ``REPRO_OBS=1`` / ``REPRO_OBS_RUN=<id>`` lazily attach themselves
    to the parent's run the first time any instrumented code runs.
    """
    global _recorder
    if _recorder is None:
        if obs_enabled_from_env():
            _recorder = ObsRecorder(
                obs_dir_from_env(),
                run_id=os.environ.get(_ENV_RUN, "").strip() or None,
            )
        else:
            _recorder = _NULL
    return _recorder


def configure(directory: str | Path, run_id: str | None = None,
              argv: list[str] | None = None,
              export_env: bool = True) -> ObsRecorder:
    """Enable observability for this process (and, by env, its children).

    ``export_env=True`` sets ``REPRO_OBS``/``REPRO_OBS_DIR``/
    ``REPRO_OBS_RUN`` so pool workers and other child processes join
    the same run.
    """
    global _recorder
    if isinstance(_recorder, ObsRecorder):
        _recorder.close()
    recorder = ObsRecorder(directory, run_id=run_id, argv=argv)
    _recorder = recorder
    if export_env:
        os.environ[_ENV_ENABLE] = "1"
        os.environ[_ENV_DIR] = str(recorder.directory)
        os.environ[_ENV_RUN] = recorder.run_id
    return recorder


def disable() -> None:
    """Close any active recorder and pin this process to NullRecorder."""
    global _recorder
    if isinstance(_recorder, ObsRecorder):
        _recorder.close()
    _recorder = _NULL
    for key in (_ENV_ENABLE, _ENV_DIR, _ENV_RUN):
        os.environ.pop(key, None)


def reset() -> None:
    """Forget recorder state entirely (tests): next access re-reads env."""
    global _recorder
    if isinstance(_recorder, ObsRecorder):
        _recorder.close()
    _recorder = None
