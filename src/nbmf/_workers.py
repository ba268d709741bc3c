"""Forked worker processes for one fit, and the bound on OpenBLAS threads.

Every fit runs each sweep on ``p`` processes: itself and ``p - 1``
workers, none at ``p = 1``, forked after the problem is prepared.  The
workers inherit its arrays read-only, and the fit and its workers keep W,
H and the workers' array results in one anonymous shared mapping
(:func:`shared_arrays`), which every fit makes, whatever its ``p``.
:func:`fit_processes` works out ``p``, at most the cap that an open
:func:`capping_fit_processes` block sets; the fit reports it in
``FitReport.processes``.  :class:`Workers` owns the workers: each runs
one fixed range of row blocks whenever the fit sends it a sweep index,
and answers with what the range returned, or the exception it raised.
Index and answer travel as pickles over a pair of pipes per worker; with
no ranges it forks nothing and its calls return at once.  The fit itself
decides what a range computes and how the results are added up; see
``solver.fit``.

Every worker ignores SIGINT (Ctrl-C reaches the fit, which stops them),
leaves only through ``os._exit`` (a normal exit would run the fit's
callers' cleanup and flush their buffered output a second time), and exits
when its command pipe reaches EOF, so a fit that is killed leaves no worker
behind.  :meth:`Workers.close` reaps them.

Every fit, and every tune search, holds numpy's bundled OpenBLAS to one
thread with :func:`_one_blas_thread`: ``p`` processes then use ``p``
cores, and a fit's bytes do not depend on the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import functools
import math
import mmap
import os
import pickle
import signal
import sys
import threading
import warnings
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .errors import NbmfError


@functools.cache
def _openblas_thread_calls():
    """``(get, set)`` thread-count calls of numpy's bundled OpenBLAS, or None.

    Only a library the process has already loaded is opened, so a numpy
    built against another BLAS loads nothing here.
    """
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path), mode=noload | os.RTLD_LAZY)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


# The number of _one_blas_thread blocks open on any thread, and the thread
# count before the first of them opened.
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_before = None


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread inside the block.

    The thread count is process-wide, so blocks open at once on several
    threads share the bound, which is lifted only when the last block
    closes and the previous count is restored.  Without the bundled
    OpenBLAS this does nothing.
    """
    global _blas_holders, _blas_before
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _blas_lock:
        if not _blas_holders:
            _blas_before = get()
        _blas_holders += 1
        if get() != 1:
            set_(1)
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if not _blas_holders and get() != _blas_before:
                set_(_blas_before)


# Set only by tests: the CPU count that fit_processes assumes.
_FORCED_CPUS = None

# The cap of the innermost capping_fit_processes block open on each thread.
_scope = threading.local()


def fit_processes(n_blocks):
    """How many processes a fit of ``n_blocks`` row blocks runs on.

    On Linux, from the main thread while no other Python thread is alive,
    the number of CPUs this process may run on (``os.sched_getaffinity``),
    at most one per block and at most the cap of an open
    :func:`capping_fit_processes` block; anywhere else 1.
    """
    if not (sys.platform.startswith("linux")
            and threading.current_thread() is threading.main_thread()
            and threading.active_count() == 1):
        return 1
    cpus = _FORCED_CPUS or len(os.sched_getaffinity(0))
    cap = getattr(_scope, "cap", None)
    return max(1, min(cpus, n_blocks, cap or cpus))


@contextmanager
def capping_fit_processes(cap):
    """Run every fit that this thread starts in the block on at most ``cap``
    processes; None is no cap.  The outer block's cap returns on exit."""
    outer = getattr(_scope, "cap", None)
    _scope.cap = cap
    try:
        yield
    finally:
        _scope.cap = outer


def shared_arrays(*shapes):
    """Float arrays of the given shapes in one anonymous shared mapping.

    The mapping is inherited by processes forked after it is made, and
    writes to it are seen by all of them; it lives until its last array is
    gone, and leaves nothing on disk.
    """
    counts = [math.prod(shape) for shape in shapes]
    buffer = mmap.mmap(-1, 8 * max(sum(counts), 1))
    arrays, offset = [], 0
    for shape, count in zip(shapes, counts):
        arrays.append(np.frombuffer(buffer, count=count, offset=8 * offset)
                      .reshape(shape))
        offset += count
    return arrays


def _answer(run, sweep, start, stop):
    """A worker's pickled answer to one sweep: what ``run`` returned, or the
    exception it raised, or an :class:`NbmfError` naming an exception that
    does not survive a pickle round trip."""
    try:
        return pickle.dumps(run(sweep, start, stop))
    except Exception as exc:
        try:
            answer = pickle.dumps(exc)
            pickle.loads(answer)
            return answer
        except Exception:
            return pickle.dumps(NbmfError(f"fit worker: {type(exc).__name__}: {exc}"))


class Workers:
    """One forked worker per ``(start, stop)`` range of row blocks.

    :meth:`start` pickles a sweep index to every worker, which calls
    ``run(sweep, start, stop)`` and pickles back what it returned or the
    exception it raised; :meth:`wait` returns the answers in range order,
    raises the first exception, or raises :class:`NbmfError` if a worker
    has died.  Use it as a context manager: on exit the workers are
    stopped and reaped, however the block ends.
    """

    def __init__(self, run, ranges):
        self.pids, self.pipes = [], []
        try:
            for start, stop in ranges:
                self._fork(run, start, stop)
        except BaseException:
            self.close()
            raise

    def _fork(self, run, start, stop):
        commands, command_end = os.pipe()
        reply_end, replies = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 and later warn on fork() while other OS threads exist:
            # here those are OpenBLAS's pool threads.  The worker never uses them
            # (the fit holds OpenBLAS to one thread, so products run on the
            # calling thread), no other Python thread is alive, and the worker
            # runs only numpy calls on arrays before os._exit.  Checked on
            # CPython 3.12.1 and 3.13.0 with a standard-library copy of this
            # filter: with one other thread alive, a bare os.fork() warns and the
            # filtered one does not.  The tier-1 CI job runs the package's
            # suite on 3.12 and 3.13 as well as 3.11.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                # The fit's ends of every worker's pipes: a worker that held
                # another's command pipe open would keep it from seeing EOF.
                os.close(command_end)
                os.close(reply_end)
                for pipe in self.pipes:
                    for file in pipe:
                        file.close()
                commands, replies = open(commands, "rb"), open(replies, "wb")
                # Until pickle.load meets EOF: the fit has closed the pipe.
                while True:
                    replies.write(_answer(run, pickle.load(commands), start, stop))
                    replies.flush()
            finally:
                os._exit(0)
        os.close(commands)
        os.close(replies)
        self.pids.append(pid)
        self.pipes.append((open(command_end, "wb"), open(reply_end, "rb")))

    def _died(self, pid):
        return NbmfError(f"fit worker process {pid} died before it finished "
                         "its row blocks")

    def start(self, sweep):
        for pid, (commands, _) in zip(self.pids, self.pipes):
            try:
                pickle.dump(sweep, commands)
                commands.flush()
            except BrokenPipeError:
                raise self._died(pid) from None

    def wait(self):
        answers = []
        for pid, (_, replies) in zip(self.pids, self.pipes):
            try:
                answer = pickle.load(replies)
            except (EOFError, pickle.UnpicklingError):  # none, or cut short
                raise self._died(pid) from None
            if isinstance(answer, BaseException):
                raise answer
            answers.append(answer)
        return answers

    def close(self):
        """Close the pipes, so that every worker exits, and reap them."""
        for pipe in self.pipes:
            for file in pipe:
                with suppress(BrokenPipeError):  # a sweep a dead worker missed
                    file.close()
        self.pipes = []
        for pid in self.pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped elsewhere
                pass
        self.pids = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
