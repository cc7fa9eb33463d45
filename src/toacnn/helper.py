"""The package's one helper thread, shared by the solvers and the network.

The banded factorization hands one of its two halves to this thread, and a
large network product the lower half of its output rows; the calling thread
does the other half meanwhile. Those halves are raw BLAS and LAPACK calls,
which run without the interpreter lock. Training also hands it whole numpy
jobs through ``Jobs``: each layer's weight gradients and Adam update, which
run while the calling thread carries the backward pass on. A job is Python
code between its numpy calls, so it shares the interpreter lock with the
calling thread, and any span around a package function it calls is timed on
this thread. The thread starts with the first handed-over call; a forked
child starts its own.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait

_executor: ThreadPoolExecutor | None = None
_lock = threading.Lock()
_pending = 0  # calls handed over and not yet finished or cancelled
_here = threading.local()


def _forget():
    global _executor, _lock, _pending
    _executor = None
    _lock = threading.Lock()
    _pending = 0


# a forked child has no helper thread, only the parent's executor object
os.register_at_fork(after_in_child=_forget)


def _mark():
    _here.helper = True


def _run(fn, args, kwargs):
    global _pending
    try:
        return fn(*args, **kwargs)
    finally:  # before the future completes, so a waiter wakes to an idle helper
        with _lock:
            _pending -= 1


def _dropped(fut: Future) -> None:
    global _pending
    if fut.cancelled():
        with _lock:
            _pending -= 1


def submit(fn, *args, **kwargs) -> Future:
    """Run ``fn(*args, **kwargs)`` on the helper thread, starting it if needed."""
    global _executor, _pending
    with _lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="toacnn-helper", initializer=_mark
            )
        fut = _executor.submit(_run, fn, args, kwargs)
        _pending += 1
    fut.add_done_callback(_dropped)
    return fut


def idle() -> bool:
    """True when the helper thread has no call queued or running."""
    return _pending == 0


def on_helper() -> bool:
    """True on the helper thread itself, where a call handed over would wait on itself."""
    return getattr(_here, "helper", False)


class Jobs:
    """Independent calls handed to the helper thread, finished together.

    ``finish`` takes back every call the helper has not started and runs it
    on the calling thread, in submission order, while the helper completes
    the one it is running; then it waits for that one and raises the first
    exception of any call. The calls must not depend on one another, since
    two of them may run at once. Used as a context manager, it drops the
    calls not yet started when the block raises and waits for the running
    one, so no call outlives the block and the block's exception is the one
    that propagates.
    """

    def __init__(self):
        self._calls: list[tuple[Future, object, tuple]] = []

    def __enter__(self) -> "Jobs":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finish()
        else:
            calls, self._calls = self._calls, []
            wait([fut for fut, _, _ in calls if not fut.cancel()])

    def submit(self, fn, *args) -> None:
        self._calls.append((submit(fn, *args), fn, args))

    def finish(self) -> None:
        if not self._calls:
            return
        calls, self._calls = self._calls, []
        taken = [(fn, args) for fut, fn, args in calls if fut.cancel()]
        started = [fut for fut, _, _ in calls if not fut.cancelled()]
        try:
            for fn, args in taken:
                fn(*args)
        finally:
            wait(started)
        for fut in started:
            fut.result()
