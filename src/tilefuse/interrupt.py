"""SIGINT taken at safe points of the threaded pipeline.

Python's own SIGINT handler raises KeyboardInterrupt at whatever bytecode
the main thread runs next. Inside a `with lock:` of threading or
concurrent.futures (a submit to a thread pool, a wait on a future) that can
leave the lock held, and the pool's shutdown then joins a thread that
waits on it for ever. While `deferred()` is active, a SIGINT only records
itself, and `check()` raises KeyboardInterrupt on the calling thread, at a
point where it holds no lock.
"""

from __future__ import annotations

import contextlib
import signal
import threading

_pending = []  # signals seen: the handler appends, which takes no lock


def _record(signum, frame) -> None:
    _pending.append(signum)


def check() -> None:
    """Raise KeyboardInterrupt if a deferred SIGINT has arrived."""
    if _pending:
        raise KeyboardInterrupt


@contextlib.contextmanager
def deferred():
    """Defer SIGINT to check() while the block runs; one that arrived after
    the last check is raised when the block ends. Nothing changes off the
    main thread, inside an outer deferred(), or where SIGINT is not handled
    by Python's default handler (one ignored in a background job stays
    ignored)."""
    if (
        threading.current_thread() is not threading.main_thread()
        or signal.getsignal(signal.SIGINT) is not signal.default_int_handler
    ):
        yield
        return
    signal.signal(signal.SIGINT, _record)
    try:
        yield
        check()
    finally:
        signal.signal(signal.SIGINT, signal.default_int_handler)
        _pending.clear()
