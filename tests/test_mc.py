"""mc: seeding, trial order and the forked shares."""

import ctypes
import os
import signal
import time

import numpy as np
import pytest

from alloymsa import mc
from alloymsa.errors import CapacityError, ParameterError
from helpers import blas_threads


def float_worker(i, rng):
    return float(rng.random()) + i


def tuple_worker(i, rng):
    return i, bool(rng.random() < 0.5), [float(rng.normal())]


def array_worker(i, rng):
    return rng.standard_normal(i + 1)


def assert_all_children_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunTrials:
    @pytest.mark.parametrize("worker", [float_worker, tuple_worker])
    def test_processes_match_serial(self, worker):
        serial = mc.run_trials(23, worker, 9, threads=1)
        assert mc.run_trials(23, worker, 9, threads=2) == serial
        assert mc.run_trials(23, worker, 9, threads=8) == serial

    def test_arrays_match_serial(self):
        serial = mc.run_trials(23, array_worker, 9, threads=1)
        forked = mc.run_trials(23, array_worker, 9, threads=2)
        assert len(forked) == len(serial)
        for a, b in zip(forked, serial):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_nested_worker_is_not_pickled(self):
        offset = 10

        def worker(i, rng):
            return i + offset

        assert mc.run_trials(6, worker, 0, threads=2) == list(range(10, 16))

    def test_trials_run_in_child_processes(self):
        def worker(i, rng):
            time.sleep(0.05)
            return os.getpid()

        pids = set(mc.run_trials(8, worker, 0, threads=2))
        assert len(pids) == 2 and os.getpid() in pids
        assert_all_children_reaped()

    def test_more_threads_than_trials(self):
        serial = mc.run_trials(3, float_worker, 5, threads=1)
        assert mc.run_trials(3, float_worker, 5, threads=8) == serial
        assert_all_children_reaped()

    def test_worker_error_reaches_caller(self):
        # the lowest failing trial wins, as in the serial loop: at threads=2
        # trial 3 fails in the child and 6 here, at threads=3 the reverse
        def worker(i, rng):
            if i in (3, 6):
                raise ParameterError(f"trial {i} refused")
            return i

        for threads in (1, 2, 3):
            with pytest.raises(ParameterError, match="^trial 3 refused$"):
                mc.run_trials(8, worker, 0, threads=threads)
            assert_all_children_reaped()

    def test_unpicklable_result_of_a_child_raises(self):
        def worker(i, rng):
            return lambda: i

        with pytest.raises(TypeError, match="does not pickle"):
            mc.run_trials(2, worker, 0, threads=2)
        assert_all_children_reaped()

    def test_killed_child_raises_capacity_error(self):
        parent = os.getpid()

        def worker(i, rng):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        with pytest.raises(CapacityError, match="died"):
            mc.run_trials(6, worker, 0, threads=3)
        assert_all_children_reaped()

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                        reason="needs the process's memory maps")
    def test_openblas_controls_cover_every_mapped_openblas(self):
        # the oracle: every OpenBLAS file mapped into this process, and
        # the thread controls each exports
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
        mapped = set()
        for path in paths:
            lib = ctypes.CDLL(path)
            for prefix in ("openblas", "scipy_openblas"):
                for suffix in ("", "64_"):
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    if get is not None:
                        mapped.add(ctypes.cast(get, ctypes.c_void_p).value)
        found = {ctypes.cast(get, ctypes.c_void_p).value
                 for get, _ in mc._openblas_thread_controls()}
        assert found == mapped and found

    def test_worker_processes_split_openblas_threads(self):
        # every process runs its trials at one BLAS thread, at every thread
        # count; the caller's counts come back afterwards
        def worker(i, rng):
            return [get() for get, _ in mc._openblas_thread_controls()]

        controls = mc._openblas_thread_controls()
        assert controls and mc._openblas_thread_controls() is controls
        with blas_threads(2):
            for threads in (1, 2):
                seen = mc.run_trials(4, worker, 0, threads=threads)
                assert seen == [[1] * len(controls)] * 4
                assert [get() for get, _ in controls] == [2] * len(controls)
