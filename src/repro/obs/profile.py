"""Opt-in cProfile support for worker jobs.

``--profile`` wraps each executed job in :func:`profile_call`; the
worker returns a compact list of pstats rows (not the pstats object —
it must cross the process-pool pickle boundary), the parent merges rows
from every job with :func:`merge_rows`, and the manifest reports the
merged hot spots via :func:`top_rows`.  Rows are
``(func, ncalls, tottime_s, cumtime_s)`` with ``func`` rendered as
``file:line(name)``; functions that render alike (every
dataclass-generated ``__init__`` is ``<string>:2(__init__)``) share
one row.
"""

from __future__ import annotations

import cProfile
from types import CodeType
from typing import Any, Callable, TypeVar

__all__ = ["profile_call", "merge_rows", "top_rows", "PROFILE_ROW_LIMIT"]

T = TypeVar("T")

#: rows a single profiled job contributes (keeps pickles and manifests
#: bounded no matter how deep the call tree is)
PROFILE_ROW_LIMIT = 50


def profile_call(fn: Callable[..., T], *args: Any,
                 **kwargs: Any) -> tuple[T, list[tuple[str, int, float, float]]]:
    """Run ``fn`` under cProfile; return (result, top pstats rows).

    The rows come from the profiler's raw entries, one per code object,
    summed by label: ``pstats.Stats`` keys its table by label and keeps
    only the last of the functions that share one.
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args, **kwargs)
    acc: dict[str, list[float]] = {}
    merge_rows(acc, [
        (_label(entry.code), entry.callcount, entry.inlinetime,
         entry.totaltime)
        for entry in profiler.getstats()
    ])
    return result, top_rows(acc, PROFILE_ROW_LIMIT)


def _label(code: CodeType | str) -> str:
    """pstats' ``file:line(name)`` for a code object; a built-in is a
    plain string, which pstats files under ``~:0``."""
    if isinstance(code, str):
        return f"~:0({code})"
    return f"{code.co_filename}:{code.co_firstlineno}({code.co_name})"


def merge_rows(acc: dict[str, list[float]],
               rows: list[tuple[str, int, float, float]]) -> None:
    """Accumulate one job's rows into ``acc`` (func -> [ncalls, tot, cum])."""
    for func, ncalls, tottime, cumtime in rows:
        slot = acc.get(func)
        if slot is None:
            acc[func] = [float(ncalls), tottime, cumtime]
        else:
            slot[0] += ncalls
            slot[1] += tottime
            slot[2] += cumtime


def top_rows(acc: dict[str, list[float]],
             limit: int = 40) -> list[tuple[str, int, float, float]]:
    """The merged hot spots, heaviest cumulative time first."""
    ranked = sorted(acc.items(), key=lambda item: item[1][2], reverse=True)
    return [(func, int(ncalls), tottime, cumtime)
            for func, (ncalls, tottime, cumtime) in ranked[:limit]]
