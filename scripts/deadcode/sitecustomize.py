"""Record the first entry of every src/repro function, in every process.

Put this directory first on PYTHONPATH and set DEADCODE_OUT to an
existing directory: each process (forked pool workers included)
appends ``file:first_line`` records to its own ``<pid>.txt`` there.

``cProfile.Profile.disable()`` clears the process's profile hook, so
it is wrapped to put the hook back; otherwise nothing entered after
the first profiled job (``--profile``, a traced benchmark run) would
be recorded.
"""
import os
import sys
import threading

_OUT = os.environ.get("DEADCODE_OUT")
_seen: set = set()
_log = [None, None]  # [pid, file]


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    if "/src/repro/" not in code.co_filename:
        return
    if _log[0] != os.getpid():  # first record of this (forked) process
        _log[:] = [os.getpid(), open(f"{_OUT}/{os.getpid()}.txt", "a", buffering=1)]
    _log[1].write(f"{code.co_filename}:{code.co_firstlineno}\n")


def _rehook_after_cprofile():
    import cProfile

    disable = cProfile.Profile.disable

    def disable_and_rehook(self):
        disable(self)
        sys.setprofile(_hook)

    cProfile.Profile.disable = disable_and_rehook


if _OUT:
    sys.setprofile(_hook)
    threading.setprofile(_hook)
    _rehook_after_cprofile()
