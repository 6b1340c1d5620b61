"""Seeded, reproducible Monte-Carlo trial runner.

Per-trial seeds are derived from the master seed with a splitmix64 step,
so trial i always sees the same random stream no matter how many workers
execute it, and results are accumulated in trial order.  That makes
every experiment byte-identical across reruns and worker counts.

`threads=N > 1` runs the trials in N worker processes started with
`fork`: each inherits the worker closure, which is never pickled, so
estimators may pass nested functions; only trial indices and results
cross the process boundary.  The processes split the BLAS threads this
one was given (OPENBLAS_NUM_THREADS, else one per core): each sets a
loaded OpenBLAS to max(1, threads // N), because N copies of a
multi-threaded OpenBLAS on the same cores spin against each other.
Another BLAS keeps the thread count of the environment, so set its
variable (MKL_NUM_THREADS=1, say) when N > 1.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import CapacityError

T = TypeVar("T")

_MASK = (1 << 64) - 1

# (worker, master_seed) of the pool this process serves; set only inside
# pool processes, by `_init_worker`
_job: tuple[Callable, int] | None = None


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


def _openblas_thread_controls() -> list[tuple[Callable, Callable]]:
    """(get_num_threads, set_num_threads) of every OpenBLAS mapped into
    this process, under the symbol names of the plain, numpy and scipy
    builds; empty where /proc/self/maps does not exist."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    controls.append((get, put))
    return controls


def _init_worker(worker: Callable, master_seed: int, n_workers: int) -> None:
    global _job
    _job = (worker, master_seed)
    for get, put in _openblas_thread_controls():
        put(max(1, get() // n_workers))


def _run_trial(i: int):
    worker, master_seed = _job
    return worker(i, trial_rng(master_seed, i))


def run_trials(
    n_trials: int,
    worker: Callable[[int, np.random.Generator], T],
    master_seed: int,
    threads: int | None = 1,
) -> list[T]:
    """Run `worker(i, rng_i)` for i = 0..n_trials-1, results in trial order.

    With `threads` > 1, min(threads, n_trials) forked processes share the
    trials.  The pool initializer hands them `worker`; a fork-started
    process inherits its arguments instead of unpickling them.  An error
    raised by `worker` reaches the caller unchanged; a worker process that
    dies (most likely killed for memory) raises CapacityError.
    """
    threads = resolve_threads(threads)
    if threads == 1 or n_trials <= 1:
        return [worker(i, trial_rng(master_seed, i)) for i in range(n_trials)]
    n_workers = min(threads, n_trials)
    pool = ProcessPoolExecutor(
        n_workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker, initargs=(worker, master_seed, n_workers))
    try:
        with pool:
            return list(pool.map(_run_trial, range(n_trials),
                                 chunksize=max(1, n_trials // (8 * n_workers))))
    except BrokenProcessPool as exc:
        raise CapacityError(
            "a Monte-Carlo worker process died; it was most likely killed "
            "for lack of memory") from exc


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
