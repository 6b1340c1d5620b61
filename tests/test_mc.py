"""mc: seeding, trial order and the forked worker pool."""

import os
import time

import numpy as np
import pytest

from alloymsa import mc
from alloymsa.errors import ParameterError


def float_worker(i, rng):
    return float(rng.random()) + i


def tuple_worker(i, rng):
    return i, bool(rng.random() < 0.5), [float(rng.normal())]


def array_worker(i, rng):
    return rng.standard_normal(i + 1)


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
        assert len(pids) >= 2
        assert os.getpid() not in pids

    def test_worker_error_reaches_caller(self):
        def worker(i, rng):
            if i == 3:
                raise ParameterError(f"trial {i} refused")
            return i

        with pytest.raises(ParameterError, match="trial 3 refused"):
            mc.run_trials(8, worker, 0, threads=2)

    def test_worker_processes_split_openblas_threads(self):
        def worker(i, rng):
            time.sleep(0.05)
            return [get() for get, _ in mc._openblas_thread_controls()]

        before = [get() for get, _ in mc._openblas_thread_controls()]
        seen = mc.run_trials(4, worker, 0, threads=2)
        assert seen == [[max(1, n // 2) for n in before]] * 4
        assert [get() for get, _ in mc._openblas_thread_controls()] == before
