"""Forked worker pools, with every OpenBLAS library held to one thread.

fork_map runs a function over items in forked processes, which inherit the
function and everything it refers to instead of receiving them pickled.
pin_one_blas_thread sets OpenBLAS to one thread, and one_blas_thread does
so for the length of a block. The pin is in place in the parent before the
fork and therefore in every worker: several workers each running
multi-threaded BLAS would oversubscribe the CPUs, and the rounding of some
BLAS routines depends on their thread count, so without the pin the answer
would depend on the worker count and the environment.

OpenBLAS stops its server threads when the process forks, in the parent as
in the child, and its next set call starts them again, even to the count
it already has. Each started thread spins before it sleeps: with numpy's
and scipy's libraries, one set call each after a fork cost 0.13-0.16 s
of CPU on a 2-vCPU Xeon. So a pin calls set only for a library whose
count is not already one, and restores only what it changed: a pin inside
another pin, or in a forked worker, makes no OpenBLAS call at all.

ctypes and multiprocessing are imported only when a pool or the pin is
used, so importing the package stays as fast as before.
"""

from __future__ import annotations

import contextlib
import os
import sys

# OpenBLAS thread-count controls, by symbol family: plain builds, 64-bit
# integer builds, and the scipy-openblas wheels numpy and scipy ship.
_BLAS_CONTROLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


def usable_cpus():
    """CPUs this process may run on; one inside a fork_map worker, whose pool has them."""
    if _inherited is not None or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _openblas_controls():
    """(get, set) thread-count functions of each OpenBLAS library mapped in.

    The libraries are found by name in /proc/self/maps, so this is empty on
    a system without it; other BLAS libraries are not found.
    """
    if not sys.platform.startswith("linux"):
        return []
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            maps = fh.read()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.rsplit("/", 1)[-1].lower()})
    if not paths:
        return []
    import ctypes

    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_CONTROLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                controls.append((get, set_))
                break
    return controls


def pin_one_blas_thread():
    """Set every mapped OpenBLAS library that is not on one thread to one.

    Returns the (set, earlier count) pairs of the libraries it changed. A
    library already on one thread, as in a forked worker or under another
    pin, is only read: a set call after a fork restarts its server threads.
    """
    changed = []
    for get, set_ in _openblas_controls():
        count = get()
        if count != 1:
            set_(1)
            changed.append((set_, count))
    return changed


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with every mapped OpenBLAS library set to one thread.

    The counts the pin changed are restored on exit. The setting is process
    wide, so it also holds for other threads while the body runs.
    """
    changed = pin_one_blas_thread()
    try:
        yield
    finally:
        for set_, count in changed:
            set_(count)


def fork_map(fn, items, workers):
    """Yield fn(item) for each item, in order, computed in forked processes.

    min(workers, len(items)) processes are started; with at most one,
    without the fork start method, or inside a worker of another fork_map
    (so pools never nest), fn runs in this process. Either way BLAS runs on
    one thread, so results do not depend on the worker count. fn
    reaches the workers through the fork and is never pickled; items and
    results are. An exception fn raises is re-raised here when its result is
    reached, and a worker that dies raises ChildProcessError.
    """
    items = list(items)
    workers = min(workers, len(items))
    with one_blas_thread():
        if workers > 1 and _inherited is None:
            import multiprocessing

            if "fork" in multiprocessing.get_all_start_methods():
                yield from _pool_map(fn, items, workers, multiprocessing.get_context("fork"))
                return
        for item in items:
            yield fn(item)


def _pool_map(fn, items, workers, context):
    """fork_map's results from a pool of `workers` processes made by context."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(workers, mp_context=context, initializer=_inherit,
                             initargs=(fn,)) as pool:
        try:
            yield from pool.map(_call_inherited, items)
        except BrokenProcessPool as exc:
            raise ChildProcessError(f"a worker process ended without a result: {exc}") from exc


# The function a forked worker applies, set by _inherit in the worker only;
# it also tells fork_map that it runs inside a worker.
_inherited = None


def _inherit(fn):
    global _inherited
    _inherited = fn


def _call_inherited(item):
    return _inherited(item)
