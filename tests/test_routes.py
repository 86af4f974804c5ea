"""Every command writes the same output on every route (ROADMAP aim 3).

A route is how a run is spread over the machine: the CPUs its process may
use, the OpenBLAS thread count of its environment, and the TMPDIR its
forked workers spool their results to. The answer must depend on the data
and the parameters only, so each row's tree (the files of its output
directory, its stdout and its exit code) must equal, byte for byte, that of
the reference route: this process with parallel.usable_cpus patched to 1,
where every stage runs in order here. Each route runs all of its rows
through cli.main, the subprocess routes in one subprocess each. A row takes
only the routes whose faults it can show.
"""

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from graphssl import fileio, parallel
from graphssl.datasets import gaussian_blobs, two_block_corpus

REFERENCE = "cpus-1"
ROUTES = (
    "cpus-2",  # in this process: stages with several items on forked workers
    "blas-1",  # subprocesses under OPENBLAS_NUM_THREADS=1 and =2: without the
    "blas-2",  # pin, some BLAS routines round differently on 2 threads
    "one-cpu",  # a subprocess that pins itself to one CPU before it loads numpy
    "empty-tmpdir",  # a subprocess whose workers must leave an empty TMPDIR empty
)

# name: (argv, routes). {inputs} is the input directory, {out} the output one.
ROWS = {
    "moons-demo": ("moons-demo --runs 3 --output {out}", ROUTES),
    "noise-sweep": ("noise-sweep --runs 3 --workers 2", ROUTES),  # metrics on stdout
    # One component of 600 points: a Lanczos solve in this process, which
    # forks nothing and so spools nothing to TMPDIR.
    "classify-connected": ("classify --k 10 --input {inputs}/connected.csv --labels "
                           "{inputs}/connected-labels.csv --truth {inputs}/connected-truth.txt "
                           "--output {out}", ROUTES[:-1]),
    # Five components of 3000 points: Lanczos solves on forked workers,
    # merged in component order.
    "classify-15000": ("classify --k 10 --seed 2 --input {inputs}/blobs.csv --labels "
                       "{inputs}/blobs-labels.csv --truth {inputs}/blobs-truth.txt "
                       "--output {out}", ROUTES),
    # Reads, refinements and row-block formatting on forked workers; the
    # 600-document components are Lanczos solves on graphs with hub rows.
    "refine-bow": ("refine-bow --input {inputs}/visual.txt {inputs}/textual.txt "
                   "--output {out}", ROUTES),
    # Three Lanczos components, solved on forked workers, written at full precision.
    "eigen-dump": ("eigen-dump --k 10 --input {inputs}/three-blobs.csv --output {out}", ROUTES),
    # One component of 15000 points, solved in this process: without cli.main's
    # BLAS pin, vector entries differ in their last bits under 1 and 2 threads.
    "eigen-dump-connected": ("eigen-dump --k 10 --input {inputs}/one-blob.csv --output {out}",
                             ("blas-1", "blas-2")),
}


def run_rows(rows, inputs, root):
    """Run each (name, argv) row through cli.main into root/name: out/, stdout and exit.

    The subprocess routes run this function's source.
    """
    from graphssl import cli

    for name, argv in rows:
        tree = os.path.join(root, name)
        os.makedirs(tree)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([arg.format(inputs=inputs, out=os.path.join(tree, "out"))
                             for arg in argv.split()])
        for file, text in (("stdout", stdout.getvalue()), ("exit", f"{code}\n")):
            with open(os.path.join(tree, file), "w", encoding="utf-8") as fh:
                fh.write(text)


SUBPROCESS = f"""\
import contextlib, io, json, os, sys
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
{inspect.getsource(run_rows)}
run_rows(*json.loads(sys.argv[2]))
"""


def write_points(path, x):
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in x.tolist()))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    for name, n, classes, spread, seed, per_class in (("connected", 600, 3, 0.5, 0, 5),
                                                      ("blobs", 15000, 5, 0.15, 2, 10)):
        x, truth = gaussian_blobs(n, classes=classes, spread=spread, seed=seed)
        rng = np.random.default_rng(seed)
        write_points(directory / f"{name}.csv", x)
        (directory / f"{name}-labels.csv").write_text("".join(
            f"{i},{cls}\n" for cls in range(classes)
            for i in np.sort(rng.choice(np.flatnonzero(truth == cls), per_class, replace=False))))
        (directory / f"{name}-truth.txt").write_text("".join(f"{t}\n" for t in truth.tolist()))
    _, visual, _, textual = two_block_corpus(n=1200, jitter=0.5, seed=1)
    (directory / "visual.txt").write_bytes(b"".join(fileio.bow_chunks(visual)))
    (directory / "textual.txt").write_bytes(b"".join(fileio.bow_chunks(textual)))
    write_points(directory / "three-blobs.csv", gaussian_blobs(1800, classes=3, seed=0)[0])
    write_points(directory / "one-blob.csv",
                 gaussian_blobs(15000, classes=3, spread=0.5, seed=0)[0])
    return directory


@pytest.fixture(scope="module")
def spool(tmp_path_factory):
    """The empty-tmpdir route's TMPDIR."""
    return tmp_path_factory.mktemp("spool")


@pytest.fixture(scope="module")
def route_root(tmp_path_factory, inputs, spool):
    """route -> the directory of its rows' trees; each route runs once."""
    roots = {}

    def run(route):
        if route not in roots:
            root = tmp_path_factory.mktemp(route)
            rows = [(name, argv) for name, (argv, routes) in ROWS.items()
                    if route == REFERENCE or route in routes]
            if route.startswith("cpus-"):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(parallel, "usable_cpus", lambda: int(route[-1]))
                    run_rows(rows, str(inputs), str(root))
            else:
                env = dict(os.environ)
                if route.startswith("blas-"):
                    env["OPENBLAS_NUM_THREADS"] = route[-1]
                if route == "empty-tmpdir":
                    env["TMPDIR"] = str(spool)
                result = subprocess.run([sys.executable, "-c", SUBPROCESS, route,
                                         json.dumps([rows, str(inputs), str(root)])],
                                        capture_output=True, text=True, env=env)
                assert result.returncode == 0, result.stderr
            roots[route] = root
        return roots[route]

    return run


def tree(directory):
    """{path relative to directory: bytes} of every file under it."""
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("row, route", [
    (row, route) for row, (_, routes) in ROWS.items() for route in routes])
def test_route_writes_the_reference_tree(route_root, row, route):
    if route.startswith("blas-") and not parallel._openblas_controls():
        pytest.skip("no OpenBLAS library is mapped")
    if route == "one-cpu" and not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is missing")
    expected = tree(route_root(REFERENCE) / row)
    assert expected["exit"] == b"0\n"
    got = tree(route_root(route) / row)
    assert sorted(got) == sorted(expected)
    assert [name for name in expected if got[name] != expected[name]] == []


def test_workers_leave_tmpdir_empty(route_root, spool):
    route_root("empty-tmpdir")
    assert list(spool.iterdir()) == []
