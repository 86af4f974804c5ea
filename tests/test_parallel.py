import errno
import inspect
import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from graphssl import errors, parallel
from graphssl.errors import ComputationError, ConvergenceError, IsolatedVertexError


def blas_thread_counts():
    return [get() for get, _ in parallel._openblas_controls()]


needs_openblas = pytest.mark.skipif(not parallel._openblas_controls(),
                                    reason="no OpenBLAS library is mapped")


class TestPin:
    @needs_openblas
    def test_a_map_pins_for_good_and_a_second_map_sets_nothing(self, monkeypatch):
        controls = parallel._openblas_controls()
        before = blas_thread_counts()
        try:
            for _, set_ in controls:
                set_(2)
            list(parallel.fork_map(abs, range(2), 2))
            assert blas_thread_counts() == [1] * len(controls)
            calls = []
            monkeypatch.setattr(parallel, "_openblas_controls",
                                lambda: [(get, calls.append) for get, _ in controls])
            list(parallel.fork_map(abs, range(2), 2))
            assert calls == []
            assert blas_thread_counts() == [1] * len(controls)
        finally:
            for (_, set_), count in zip(controls, before):
                set_(count)


# Threads of this process, read in each worker after a nested fork_map and in
# the parent after the pool. A joined thread can stay listed for a moment
# while it exits, so a count above one is read again for up to a second; an
# OpenBLAS server thread sleeps once it has spun, and stays.
NESTED_POOL_THREADS = """
import json, os, time
import numpy
from graphssl import parallel

def threads():
    deadline = time.monotonic() + 1.0
    while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    return len(os.listdir("/proc/self/task"))

def inner(_):
    list(parallel.fork_map(abs, range(2), 2))
    return threads()

workers = list(parallel.fork_map(inner, range(2), 2))
parent = threads()
print(json.dumps([workers, parent]))
"""


class TestNoRestartAfterFork:
    """A pin makes no OpenBLAS set call where the count is already one.

    OpenBLAS stops its server threads on a fork, and its next set call
    starts them again, even to the count it already has. Each then spins
    on a CPU before it sleeps. With a set call on entry and exit of every
    pin, each worker and the parent held one such thread per library. A pin
    that always sets leaves one in each worker, whose inner map pins after
    the fork; a restore after the map leaves one in the parent. numpy is
    imported so that its OpenBLAS, started on two threads, is mapped.
    """

    @needs_openblas
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    def test_nested_pools_leave_every_process_on_one_thread(self):
        result = subprocess.run([sys.executable, "-c", NESTED_POOL_THREADS],
                                capture_output=True, text=True,
                                env={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [[1, 1], 1]


def spy_forks(monkeypatch):
    """Patch os.fork so that each worker exits before it claims an item; return the pids.

    A map that forks then raises ChildProcessError at its first item.
    """
    forks = []
    fork = os.fork

    def exit_at_once():
        pid = fork()
        if pid == 0:
            os._exit(0)
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", exit_at_once)
    return forks


@pytest.mark.parametrize("cpus, workers, items, expected", [
    (2, None, 5, 2),
    (8, None, 3, 3),
    (1, None, 5, 0),
    (1, 2, 5, 2),  # an explicit count is capped by the items, not the CPUs
])
def test_process_count(monkeypatch, cpus, workers, items, expected):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    forks = spy_forks(monkeypatch)
    if expected:
        with pytest.raises(ChildProcessError, match="ended without a result"):
            list(parallel.fork_map(abs, range(items), workers))
    else:
        assert list(parallel.fork_map(abs, range(items), workers)) == list(range(items))
    assert len(forks) == expected


def fail_on_three(item):
    if item == 3:
        raise IsolatedVertexError(item)
    return item


class TestForkMap:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_in_item_order(self, workers):
        offset = 10  # fn is a closure, which pickle could not send to a worker
        results = list(parallel.fork_map(lambda i: (i + offset, os.getpid()), range(5),
                                         workers))
        assert [value for value, _ in results] == list(range(10, 15))
        assert (os.getpid() in {pid for _, pid in results}) == (workers == 1)

    @needs_openblas
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fn_runs_with_one_blas_thread(self, workers):
        counts = list(parallel.fork_map(lambda _: blas_thread_counts(), range(2), workers))
        assert counts == [[1] * len(parallel._openblas_controls())] * 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_exception_reaches_the_caller_unchanged(self, workers):
        with pytest.raises(IsolatedVertexError) as caught:
            list(parallel.fork_map(fail_on_three, range(5), workers))
        assert caught.value.vertex == 3
        assert str(caught.value) == str(IsolatedVertexError(3))

    def test_a_worker_maps_in_process(self):
        # Two processes in all: the inner fork_map starts none.
        def inner(_):
            return list(parallel.fork_map(lambda _: os.getpid(), range(2), 2)) + [os.getpid()]

        for pids in parallel.fork_map(inner, range(2), 2):
            assert len(set(pids)) == 1 and pids[0] != os.getpid()

    def test_usable_cpus_is_one_in_a_worker(self):
        # The pool has the CPUs: code in a worker must not start threads of its own.
        cpus = parallel.usable_cpus()
        assert list(parallel.fork_map(lambda _: parallel.usable_cpus(), range(2), 1)) == [cpus] * 2
        assert list(parallel.fork_map(lambda _: parallel.usable_cpus(), range(2), 2)) == [1, 1]

    def test_a_dead_worker_is_a_child_process_error(self):
        with pytest.raises(ChildProcessError, match="ended without a result"):
            list(parallel.fork_map(lambda _: os._exit(3), range(2), 2))


def assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestPoolContract:
    """fork_map's children claim items from one shared file and spool their results."""

    def test_uneven_items_arrive_in_order_each_computed_once(self, tmp_path):
        # Every 7th item takes 8 times as long. Each call appends its item to
        # a log, whose O_APPEND writes the children cannot interleave.
        log = tmp_path / "calls.txt"

        def slow(item):
            time.sleep(0.004 if item % 7 == 0 else 0.0005)
            with open(log, "a") as fh:
                fh.write(f"{item}\n")
            return item, os.getpid()

        results = list(parallel.fork_map(slow, range(300), 2))
        assert [item for item, _ in results] == list(range(300))
        assert sorted(map(int, log.read_text().split())) == list(range(300))
        pids = {pid for _, pid in results}
        assert len(pids) == 2 and os.getpid() not in pids
        assert_no_child_is_left()

    def test_a_killed_worker_fails_at_its_item_and_leaves_no_child(self):
        def kill_on_three(item):
            if item == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return item

        arrived = []
        with pytest.raises(ChildProcessError, match="ended without a result: item 3"):
            for value in parallel.fork_map(kill_on_three, range(8), 2):
                arrived.append(value)
        assert arrived == [0, 1, 2]
        assert_no_child_is_left()

    def test_a_worker_that_cannot_spool_says_why(self, monkeypatch, capfd):
        def full_disk(fd, buffers):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "writev", full_disk)
        with pytest.raises(ChildProcessError, match=r"worker exit codes \[1, 1\]"):
            list(parallel.fork_map(abs, [-1, -2, -3], 2))
        reason = f": OSError: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}"
        messages = capfd.readouterr().err.splitlines()
        assert len(messages) == 2
        assert all(line.startswith("error: worker process ") and line.endswith(reason)
                   for line in messages)
        assert_no_child_is_left()

    def test_an_unpicklable_result_raises_the_pickling_error_at_its_item(self):
        def local():
            pass

        with pytest.raises(Exception) as expected:
            pickle.dumps(local)
        arrived = []
        with pytest.raises(type(expected.value)) as caught:
            for value in parallel.fork_map(lambda i: local if i == 2 else i, range(5), 2):
                arrived.append(value)
        assert str(caught.value) == str(expected.value)
        assert "local object" in str(caught.value)
        assert arrived == [0, 1]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_an_abandoned_map_leaves_no_child_and_no_descriptor(self):
        before = sorted(os.listdir("/proc/self/fd"))
        results = parallel.fork_map(lambda i: i * 2, range(10), 2)
        first = next(results)
        del results
        assert first == 0
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert_no_child_is_left()


ERROR_INSTANCES = {
    ComputationError: ComputationError("solver failed"),
    ConvergenceError: ConvergenceError("no convergence", residual=0.25),
    IsolatedVertexError: IsolatedVertexError(7),
}


def test_every_error_type_survives_pickling_with_its_attributes():
    # A forked worker's exception reaches the caller pickled.
    defined = {value for _, value in inspect.getmembers(errors, inspect.isclass)
               if issubclass(value, Exception) and value.__module__ == errors.__name__}
    assert defined == set(ERROR_INSTANCES)
    for cls, error in ERROR_INSTANCES.items():
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls
        assert (copy.args, vars(copy)) == (error.args, vars(error))
