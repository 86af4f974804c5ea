"""Forked worker pools, with every OpenBLAS library held to one thread.

fork_map runs a function over items in forked children, which inherit it
and everything it refers to, and reads their results back from files in
TMPDIR, unlinked from the start. pin_one_blas_thread sets OpenBLAS to one
thread, and one_blas_thread does so for a block. The pin is in place
before the fork and therefore in every worker: several workers each
running multi-threaded BLAS would oversubscribe the CPUs, and the rounding
of some BLAS routines depends on their thread count, so without the pin
the answer would depend on the worker count and the environment.

OpenBLAS stops its server threads when the process forks, in the parent as
in the child, and its next set call starts them again, even to the count
it already has. Each started thread spins before it sleeps: with numpy's
and scipy's libraries, one set call each after a fork cost 0.13-0.16 s
of CPU on a 2-vCPU Xeon. So a pin calls set only for a library whose
count is not already one, and restores only what it changed: a pin inside
another pin, or in a forked worker, makes no OpenBLAS call at all.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
import tempfile

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
    without os.fork, or inside a worker of another fork_map (so pools never
    nest), fn runs in this process. Either way BLAS runs on one thread, so
    results do not depend on the worker count. fn reaches the workers
    through the fork; results are pickled. An exception raised by fn or by
    pickling its result is re-raised here when its item is reached, and an
    item whose worker died raises ChildProcessError.
    """
    items = list(items)
    workers = min(workers, len(items))
    with one_blas_thread():
        if workers > 1 and _inherited is None and hasattr(os, "fork"):
            yield from _pool_map(fn, items, workers)
        else:
            yield from map(fn, items)


def _pool_map(fn, items, workers):
    """fork_map's results from `workers` children forked by this process.

    Children claim items by reading indices from one shared file, whose
    offset the kernel moves under a lock, and append (index, size) headers
    and pickled results to spool files of their own, read back in order.
    """
    with contextlib.ExitStack() as files:
        queue, *spools = [files.enter_context(tempfile.TemporaryFile()).fileno()
                          for _ in range(workers + 1)]
        os.pwrite(queue, b"".join(b"%8d" % i for i in range(len(items))), 0)
        pids = []
        try:
            _flush_std_streams()
            for spool in spools:
                pids.append(os.fork())
                if pids[-1] == 0:
                    try:
                        _serve(fn, items, queue, spool)
                    except BaseException as exc:  # such as a full disk under the spool
                        print(f"error: worker process {os.getpid()}: {type(exc).__name__}: "
                              f"{exc}", file=sys.stderr, flush=True)
                    finally:
                        os._exit(1)
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        finally:  # kill and reap the children an exception left
            for pid in pids:
                with contextlib.suppress(ChildProcessError):  # reaped already
                    if os.waitpid(pid, os.WNOHANG) == (0, 0):
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
        where = {}
        for spool in spools:
            os.lseek(spool, 0, os.SEEK_SET)
            while len(header := os.read(spool, 24)) == 24:
                index, size = int(header[:8]), int(header[8:])
                where[index] = spool, size, os.lseek(spool, size, os.SEEK_CUR) - size
        for index in range(len(items)):
            if index not in where or len(data := os.pread(*where[index])) < where[index][1]:
                raise ChildProcessError(f"a worker process ended without a result: item "
                                        f"{index}, worker exit codes {codes}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            yield value


def _serve(fn, items, queue, spool):
    """Spool (ok, fn(item) or its exception) for each item claimed from queue, and exit."""
    global _inherited
    _inherited = fn
    while record := os.read(queue, 8):
        try:
            result = True, fn(items[int(record)])
        except BaseException as exc:
            result = False, exc
        try:
            data = pickle.dumps(result)
        except Exception as exc:  # raised at its item, as an exception of fn would be
            data = pickle.dumps((False, exc))
        os.writev(spool, (b"%8d%16d" % (int(record), len(data)), data))
    _flush_std_streams()
    os._exit(0)


def _flush_std_streams():
    for stream in filter(None, (sys.stdout, sys.stderr)):
        stream.flush()


# The function a forked worker applies, which tells fork_map it runs in one.
_inherited = None
