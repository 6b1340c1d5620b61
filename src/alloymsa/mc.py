"""Seeded, reproducible Monte-Carlo trial runner.

Per-trial seeds are derived from the master seed with a splitmix64 step,
so trial i always sees the same random stream no matter which process
runs it, and results are returned in trial order.  That makes every
experiment byte-identical across reruns and process counts.

The trials run in N = max(1, min(threads, trials)) processes, this one
included.  Share j holds trials j, j + N, j + 2N, ...: this process runs
share 0, and each of N - 1 children started with `os.fork` runs one
other share; with N = 1 there is no child, and share 0 is the serial
loop.  A child inherits the worker closure, which is never pickled, so
estimators may pass nested functions; it writes its share's results,
pickled, to a pipe and leaves by `os._exit`.

Every process runs its trials with one BLAS thread: the OpenBLAS of
numpy and that of scipy are set to one thread for the whole run, at
every `threads` (1 included), and set back to the caller's counts
afterwards.  The rounding of a multi-threaded BLAS depends on its
thread count (dsyevr's eigenvectors do), so a fixed count is what keeps
the results of a config and seed the same at every `threads`; and N
copies of a multi-threaded OpenBLAS on the same cores spin against each
other.  Another BLAS keeps the thread count of the environment, so set
its variable (MKL_NUM_THREADS=1, say).
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
from typing import BinaryIO, Callable, Sequence, TypeVar

import numpy as np

from .errors import CapacityError

T = TypeVar("T")

_MASK = (1 << 64) - 1


def splitmix64(master_seed: int, index: int) -> int:
    """Deterministic per-trial seed: one splitmix64 output for stream `index`."""
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(splitmix64(master_seed, index))


def resolve_threads(threads: int | None) -> int:
    if threads is None or threads <= 0:
        return os.cpu_count() or 1
    return threads


@functools.cache
def _openblas_thread_controls() -> tuple[tuple[Callable, Callable], ...]:
    """(get_num_threads, set_num_threads) of the OpenBLAS that numpy and
    that scipy link, under the symbol names of the plain, numpy and scipy
    builds; one pair per library.  Each is looked up by dlsym through the
    extension module that links it (numpy's _multiarray_umath, scipy's
    cython_blas), since dlsym searches a module's dependencies too.  Both
    modules are loaded with the package, before any trial runs."""
    from numpy._core import _multiarray_umath
    from scipy.linalg import cython_blas
    controls = {}
    for module in (_multiarray_umath, cython_blas):
        try:
            lib = ctypes.CDLL(module.__file__)
        except OSError:
            continue
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    controls[ctypes.cast(get, ctypes.c_void_p).value] = get, put
    return tuple(controls.values())


# (results of a share's trials in order, (trial, error) of its first
# failing trial or None); a failing trial ends its share
Outcome = tuple[list, tuple[int, Exception] | None]


def _run_share(worker: Callable, master_seed: int, trials: range) -> Outcome:
    results = []
    for i in trials:
        try:
            results.append(worker(i, trial_rng(master_seed, i)))
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _fork_share(worker: Callable, master_seed: int,
                trials: range) -> tuple[int, BinaryIO]:
    """Fork a child that runs `trials` and writes its pickled Outcome to a
    pipe; returns its pid and the read end, whose write end this process
    has closed, so that no later child inherits it."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_fd)
        os.close(write_fd)
        raise CapacityError(
            f"cannot start a Monte-Carlo worker process: {exc}") from exc
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            outcome = _run_share(worker, master_seed, trials)
            try:
                data = pickle.dumps(outcome)
            except Exception as exc:  # a result or error that does not pickle
                data = pickle.dumps(([], (trials[0], TypeError(
                    f"a Monte-Carlo result or error does not pickle: {exc}"))))
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def run_trials(
    n_trials: int,
    worker: Callable[[int, np.random.Generator], T],
    master_seed: int,
    threads: int | None = 1,
) -> list[T]:
    """Run `worker(i, rng_i)` for i = 0..n_trials-1, results in trial order.

    N = max(1, min(threads, n_trials)) processes share the trials, this one
    and N - 1 forked children (see the module docstring); results and
    errors cross the pipes pickled.  Every OpenBLAS runs at one thread
    until this returns or raises.  The error the serial loop would raise,
    that of the lowest failing trial, reaches the caller; a child that
    exits without sending its results (most likely killed for memory)
    raises CapacityError.  Every child is reaped before this returns or
    raises.
    """
    shares = max(1, min(resolve_threads(threads), n_trials))
    blas = _openblas_thread_controls()
    blas_threads = [get() for get, _ in blas]
    for _, put in blas:
        put(1)
    children: list[tuple[int, BinaryIO]] = []  # until reaped
    try:
        for j in range(1, shares):
            children.append(_fork_share(worker, master_seed,
                                        range(j, n_trials, shares)))
        outcomes = [_run_share(worker, master_seed, range(0, n_trials, shares))]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status != 0:
                raise CapacityError(
                    "a Monte-Carlo worker process died; it was most likely "
                    "killed for lack of memory")
            outcomes.append(pickle.loads(data))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for (_, put), n in zip(blas, blas_threads):
            put(n)
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results: list = [None] * n_trials
    for j, (share, _) in enumerate(outcomes):
        results[j::shares] = share
    return results


def mean_and_stderr(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and standard error (sample sigma / sqrt(n))."""
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n == 0:
        return 0.0, 0.0
    mean = float(arr.mean())
    if n == 1:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / np.sqrt(n))
