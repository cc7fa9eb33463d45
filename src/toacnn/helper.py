"""The package's one helper thread, shared by the solvers and the network.

The banded factorization hands one of its two halves to this thread, and a
large network product the lower half of its output rows; the calling thread
does the other half meanwhile. Only raw BLAS and LAPACK calls, which run
without the interpreter lock, are handed over, so the work overlaps and any
spans around the package's functions stay on the calling thread. The thread
starts with the first handed-over call; a forked child starts its own.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor

_executor: ThreadPoolExecutor | None = None
_lock = threading.Lock()


def _forget():
    global _executor, _lock
    _executor = None
    _lock = threading.Lock()


# a forked child has no helper thread, only the parent's executor object
os.register_at_fork(after_in_child=_forget)


def submit(fn, *args, **kwargs) -> Future:
    """Run ``fn(*args, **kwargs)`` on the helper thread, starting it if needed."""
    global _executor
    with _lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="toacnn-helper")
        return _executor.submit(fn, *args, **kwargs)
