"""Work split between the calling process and one forked child.

``in_two_processes(here, forked)`` runs ``forked`` in a child made by
``os.fork`` while ``here`` runs in the caller, and returns both values.
It is the only code that decides whether to fork: without ``os.fork``
it runs both in the caller, so its callers run the same two pieces of
work on every platform.  The two pieces are fixed before the fork: the
optimizer's even and odd starts, the path pass's two blocks, or,
against an idle caller (``here`` is ``lambda: None``), the CLI's whole
certificate.  That worker keeps the certificate's working set out of
the CLI process, which sets a run's peak RSS: g, the fit's imports
(``statistics``, with ``decimal`` and ``fractions``) and BFGS states,
the pass's stream and per-path finals, the artifacts' text.  Only the
odd starts' outcomes, the second block's per-step sums or the worker's
report cross a pipe.  While they run, the processes share nothing but
the path pass's results buffer, an anonymous shared mapping in which
each block writes only its own columns.

A child ends as soon as the process that forked it ends, at every
nesting depth: a daemon thread in the child leaves by ``os._exit`` at
EOF on a pipe whose only write end the caller holds.  So however the
caller ends, by a group signal or a SIGKILL of it alone, its helpers
end too, and no process group is made.

numpy's OpenBLAS build keeps an idle worker thread.  OpenBLAS shuts
its pool down in a ``pthread_atfork`` handler and restarts it at the
next threaded BLAS call, so the child starts with a fresh pool.
Python 3.12 and later warn (``DeprecationWarning``) when a process
with more than one thread forks, as a helper with its waiting thread
(which holds no lock) does when it forks in turn.  The warning is
attributed to this module, not to ``__main__``, so Python's default
filters hide it.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from collections.abc import Callable
from typing import TypeVar

from .errors import NumericalError

__all__ = ["in_two_processes"]

A = TypeVar("A")
B = TypeVar("B")


def _exit_at_eof(fd: int) -> None:
    """End this process once no process holds a write end of ``fd``'s pipe."""
    os.read(fd, 1)
    os._exit(1)


def in_two_processes(here: Callable[[], A], forked: Callable[[], B]) -> tuple[A, B]:
    """Run ``forked`` in a forked child while ``here`` runs in this process.

    Returns ``(here(), forked())``.  The child's value, or its
    exception, is pickled through a pipe and returned or raised here
    once the child is reaped.  The child leaves only by ``os._exit``, so
    it never unwinds into the caller's stack (which may write artifacts
    or spans) and never flushes the caller's buffered output.  If
    ``here`` fails, or an exception (a signal handler's, say) interrupts
    the wait for the child, the child is killed and still reaped.  The
    child also ends as soon as this process ends.

    Without ``os.fork``, ``here`` and then ``forked`` run in this
    process; if ``here`` raises, ``forked`` is not run.
    """
    if not hasattr(os, "fork"):
        return here(), forked()
    read_fd, write_fd = os.pipe()
    alive_r, alive_w = os.pipe()  # this process holds the one write end
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            os.close(alive_w)
            threading.Thread(target=_exit_at_eof, args=(alive_r,), daemon=True).start()
            try:
                payload = pickle.dumps((True, forked()))
            except BaseException as exc:
                try:
                    payload = pickle.dumps((False, exc))
                    pickle.loads(payload)
                except Exception:
                    payload = pickle.dumps(
                        (False, NumericalError(f"forked process failed: {exc!r}"))
                    )
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    os.close(alive_r)
    status = None
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            value = here()
            payload = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        if status is None:  # here failed, or the wait for the child was interrupted
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(alive_w)
    if status != 0 or not payload:
        raise NumericalError(f"forked process ended with status {status}")
    ok, child_value = pickle.loads(payload)
    if not ok:
        raise child_value
    return value, child_value
