"""The package's one helper thread, shared by the solvers and the network.

All work reaches it through ``Jobs``, under one rule: a call the helper has
not started when its caller finishes is taken back and run on the calling
thread. So no caller waits behind another's queued work, and a call made on
the helper thread itself never waits on that thread.

The banded factorization and its back-solves hand it half B of a split
block, and a large network product the lower half of its output rows; the
calling thread does the other half meanwhile. Those halves are raw BLAS and
LAPACK calls, which run without the interpreter lock, and each is the same
call on either thread. Training also hands it whole numpy jobs: each layer's
weight gradients and Adam update, which run while the calling thread
carries the backward pass on. A job is Python code between its numpy calls,
so it shares the interpreter lock with the calling thread, and any span
around a package function it calls is timed on this thread. The thread
starts with the first handed-over call; a forked child starts its own.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait

_executor: ThreadPoolExecutor | None = None
_lock = threading.Lock()


def _forget():
    global _executor, _lock
    _executor = None
    _lock = threading.Lock()


# a forked child has no helper thread, only the parent's executor object
os.register_at_fork(after_in_child=_forget)


def submit(fn, *args) -> Future:
    """Run ``fn(*args)`` on the helper thread, starting it if needed."""
    global _executor
    with _lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="toacnn-helper")
        return _executor.submit(fn, *args)


class Jobs:
    """Independent calls handed to the helper thread, finished together.

    ``finish`` takes back every call the helper has not started and runs it
    on the calling thread, in submission order, while the helper completes
    the one it is running; then it waits for that one and raises the first
    exception of any call. The calls must not depend on one another, since
    two of them may run at once. Used as a context manager, it finishes the
    calls when the block ends; when the block raises, it drops the calls not
    yet started instead and waits for the running one, so no call outlives
    the block and the block's exception is the one that propagates.
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
