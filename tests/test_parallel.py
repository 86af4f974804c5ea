import inspect
import os
import pickle

import pytest

from graphssl import errors, parallel
from graphssl.errors import ComputationError, ConvergenceError, IsolatedVertexError


def blas_thread_counts():
    return [get() for get, _ in parallel._openblas_controls()]


needs_openblas = pytest.mark.skipif(not parallel._openblas_controls(),
                                    reason="no OpenBLAS library is mapped")


class TestOneBlasThread:
    @needs_openblas
    def test_pins_every_library_and_restores_the_earlier_counts(self):
        controls = parallel._openblas_controls()
        before = blas_thread_counts()
        try:
            for _, set_ in controls:
                set_(2)
            with parallel.one_blas_thread():
                assert blas_thread_counts() == [1] * len(controls)
                with parallel.one_blas_thread():
                    pass
                assert blas_thread_counts() == [1] * len(controls)
            assert blas_thread_counts() == [2] * len(controls)
        finally:
            for (_, set_), count in zip(controls, before):
                set_(count)

    @needs_openblas
    def test_restores_the_counts_when_the_body_raises(self):
        before = blas_thread_counts()
        with pytest.raises(RuntimeError, match="body failed"):
            with parallel.one_blas_thread():
                raise RuntimeError("body failed")
        assert blas_thread_counts() == before


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

    def test_a_dead_worker_is_a_child_process_error(self):
        with pytest.raises(ChildProcessError, match="ended without a result"):
            list(parallel.fork_map(lambda _: os._exit(3), range(2), 2))


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
