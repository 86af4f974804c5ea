"""The failure table: each broken input of ROADMAP aim 3, through every command it reaches.

A row is (command line, files, patches, exit code, stderr line). Each row
runs its command line through cli.main in this process, with
parallel.usable_cpus patched to 1 and then to 2, so that a stage with
several items runs once here and once on forked workers; a row whose fault
kills a worker runs on 2 only. Every run must exit with the row's code and
print one stderr line that starts with the row's text, and every run of a
row must fail alike. No run may leave the --output directory behind, nor a
file in TMPDIR (tempfile.tempdir), which points to an empty directory.

In a command line {g} is the directory of the valid inputs, {t} that of the
row's own files and {out} the output directory. A patch replaces a module
attribute for the row; fail_if_called in place of a stage shows that the
failing check runs before that stage.

Duplicate points and a component without a label give wrong answers, not
failures, and get rows with ROADMAP item 13.
"""

import ast
import errno
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import test_routes
from graphssl import bow, cli, fileio, harness, linalg, parallel
from graphssl.datasets import gaussian_blobs, two_block_corpus


def fail_if_called(*args, **kwargs):
    pytest.fail("the command ran its computation before checking its input")


def exit_worker(*args, **kwargs):
    os._exit(3)


def raise_in_worker(*args):
    raise RuntimeError("block formatter failed")


class FullDisk:
    """A file whose every write stores half of its data, then fails with ENOSPC."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def full_disk_at(name):
    """A stand-in for cli's open under which the disk fills while output `name` is written."""
    def flaky_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return FullDisk(fh) if os.path.basename(path).startswith(f".{name}.") else fh
    return flaky_open


def classify(x="{g}/x.csv", labels="{g}/labels.csv", flags=""):
    return f"classify --input {x} --labels {labels} --output {{out}} {flags}"


def eigen_dump(x="{g}/x.csv", flags=""):
    return f"eigen-dump --input {x} --output {{out}} {flags}"


def refine_bow(visual="{g}/visual.txt", textual="{g}/textual.txt", flags=""):
    return f"refine-bow --input {visual} {textual} --output {{out}} {flags}"


NO_BASIS = ((harness, "laplacian_basis", fail_if_called),)
NO_REFINEMENT = ((bow, "co_refine", fail_if_called),)
NO_TRIAL = ((harness, "multiclass_trial", fail_if_called),)
# A valid command line of each command, and the patch that forbids its work.
VALID = {
    "moons-demo": ("moons-demo --runs 1 --output {out}", NO_TRIAL),
    "noise-sweep": ("noise-sweep --runs 2 --workers 2 --output {out}", NO_TRIAL),
    "classify": (classify(), NO_BASIS),
    "refine-bow": (refine_bow(), NO_REFINEMENT),
    "eigen-dump": (eigen_dump(), NO_BASIS),
}
MISSING = "error: [Errno 2] No such file or directory: '{t}/%s'"
DUPLICATED = b"4 3 2\n0 0 1\n0 0 2\n"
ISOLATED = b"0,0\n0.25,0\n0.5,0\n0.75,0\n1,0\n1e6,0\n"  # point 5's weights underflow


def row(name, argv, code, line, files=None, patches=(), cpus=(1, 2)):
    return pytest.param(argv, files or {}, patches, code, line, cpus, id=name)


ROWS = [
    # The parser rejects these before any file is read.
    row("no-command", "", 1, "usage error: the following arguments are required: command"),
    row("moons-demo-abbreviated-flag", "moons-demo --run 1", 1,
        "usage error: unrecognized arguments: --run 1"),
    row("moons-demo-unknown-flag", "moons-demo --does-not-exist", 1,
        "usage error: unrecognized arguments: --does-not-exist"),
    row("classify-no-flags", "classify", 1,
        "usage error: the following arguments are required: --output, --input, --labels"),
    *[row(f"{command}-no-output", VALID[command][0].replace(" --output {out}", ""), 1,
          "usage error: the following arguments are required: --output",
          patches=VALID[command][1]) for command in ("classify", "refine-bow")],
    *[row(f"{command}-seed-negative", argv + " --seed -1", 1,
          "usage error: argument --seed: must be nonnegative, got '-1'", patches=patches)
      for command, (argv, patches) in VALID.items()],
    *[row(f"{command}-{flag[2:]}-{value}", f"{VALID[command][0]} {flag} {value}", 1,
          f"usage error: argument {flag}: must be in {bounds}, got '{value}'", patches=NO_TRIAL)
      for command in ("moons-demo", "noise-sweep")
      for flag, value, bounds in (("--k", 200, "[1, 199]"), ("--m", 201, "[1, 200]"),
                                  ("--m", 500, "[1, 200]"), ("--labels-per-class", 100, "[1, 99]"),
                                  ("--labels-per-class", 101, "[1, 99]"))],
    # Features.
    *[row(f"{command}-features-{fault}", argv, 1, f"error: {{t}}/f.csv: {message}",
          files={"f.csv": body}, patches=NO_BASIS)
      for command, argv in (("classify", classify("{t}/f.csv")),
                            ("eigen-dump", eigen_dump("{t}/f.csv")))
      for fault, body, message in (
          ("non-numeric", b"1,2\nbad,row\n", "line 2: not a numeric row"),
          ("non-finite", b"1,2\nnan,1\n", "line 2: non-finite value"),
          ("ragged", b"1,2\n1,2,3\n", "line 2: expected 2 columns, found 3"),
          ("empty", b"", "no data rows"),
          ("not-utf-8", b"\xff1,2\n", "line 1: byte 0 is not UTF-8"))],
    row("classify-features-missing", classify("{t}/f.csv"), 1, MISSING % "f.csv"),
    row("eigen-dump-features-missing", eigen_dump("{t}/f.csv"), 1, MISSING % "f.csv"),
    # Labels and truth: classify only.
    *[row(f"classify-labels-{fault}", classify(labels="{t}/l.csv"), 1, message,
          files={"l.csv": body}, patches=NO_BASIS)
      for fault, body, message in (
          ("empty", b"", "error: {t}/l.csv: no labels"),
          ("out-of-range", b"0,0\n60,1\n", "error: label index 60 out of range [0, 60)"),
          ("duplicated", b"0,0\n0,1\n", "error: duplicate label index 0"),
          ("negative", b"0,0\n1,-1\n", "error: class -1 out of range [0, 1)"),
          ("negative-only", b"0,-1\n", "error: class -1 out of range [0, 1)"),
          ("skipped-class", b"0,0\n1,2\n",
           "error: {t}/l.csv: class 1 has no label; each class from 0 to 2 needs one"),
          ("class-beyond-the-labels", b"0,0\n59,99999999999\n",
           "error: {t}/l.csv: class 1 has no label; each class from 0 to 99999999999 needs one"),
          ("malformed", b"0,0\n1\n", "error: {t}/l.csv: line 2: expected `index,class`"),
          ("not-utf-8", b"0,0\n\xff,1\n", "error: {t}/l.csv: line 2: byte 4 is not UTF-8"))],
    *[row(f"classify-truth-{fault}", classify(flags="--truth {t}/t.txt"), 1, message,
          files={"t.txt": body}, patches=NO_BASIS)
      for fault, body, message in (
          ("wrong-length", b"0\n1\n", "error: truth has 2 rows but features have 60"),
          ("non-integer", b"0\n1.5\n", "error: {t}/t.txt: line 2: expected an integer class"),
          ("beyond-64-bits", b"0\n9223372036854775808\n",
           "error: {t}/t.txt: line 2: class 9223372036854775808 does not fit in 64 bits"),
          ("not-utf-8", b"0\n\xff\n", "error: {t}/t.txt: line 2: byte 2 is not UTF-8"))],
    # k >= n and m > n; the moons commands' are parser rows above.
    *[row(f"{command}-{flag}-beyond-n", f"{VALID[command][0]} --{flag} {value}", 1,
          f"error: {prefix}{flag}={value} {message}", patches=VALID[command][1])
      for command, prefix, count in (("classify", "", "the sample count"),
                                     ("eigen-dump", "", "the sample count"),
                                     ("refine-bow", "visual ", "document count"))
      for flag, value, message in (("k", 60, f"must be smaller than {count} 60"),
                                   ("m", 61, f"exceeds {count} 60"))],
    # Triplet files, in either place, and a bad visual file before a bad textual one.
    *[row(f"refine-bow-{side}-{fault}", refine_bow(**{side: "{t}/bad.txt"}), 1,
          f"error: {{t}}/bad.txt: {message}", files={"bad.txt": body}, patches=NO_REFINEMENT)
      for side in ("visual", "textual")
      for fault, body, message in (
          ("malformed", b"4 3 1\n0 0 x\n", "line 2: malformed triplet"),
          ("duplicated", DUPLICATED, "line 3: duplicate coordinate (0, 0)"),
          ("non-finite", b"4 3 1\n0 0 nan\n", "line 2: non-finite value"),
          ("too-large", b"99999999999 99999 0\n",
           "line 1: a 99999999999 x 99999 matrix is too large to allocate"))],
    row("refine-bow-visual-missing", refine_bow("{t}/v.txt"), 1, MISSING % "v.txt",
        patches=NO_REFINEMENT),
    row("refine-bow-document-counts-differ", refine_bow(textual="{t}/t.txt"), 1,
        "error: document counts differ: 60 vs 4", files={"t.txt": b"4 3 1\n0 0 1\n"},
        patches=NO_REFINEMENT),
    *[row(f"refine-bow-{first}-before-{second}", refine_bow("{t}/v.txt", "{t}/t.txt"), 1, line,
          files=files, patches=NO_REFINEMENT)
      for first, second, line, files in (
          ("missing", "duplicated", MISSING % "v.txt", {"t.txt": DUPLICATED}),
          ("duplicated", "missing", "error: {t}/v.txt: line 3: duplicate coordinate (0, 0)",
           {"v.txt": DUPLICATED}))],
    # Numerical failures.
    row("classify-isolated-point", classify("{t}/f.csv", "{t}/l.csv", "--k 2 --m 3 --sigma .5"), 2,
        "numerical failure: vertex 5 is isolated (zero degree)",
        files={"f.csv": ISOLATED, "l.csv": b"0,0\n5,1\n"}),
    row("eigen-dump-isolated-point", eigen_dump("{t}/f.csv", "--k 2 --m 3 --sigma 0.5"), 2,
        "numerical failure: vertex 5 is isolated (zero degree)", files={"f.csv": ISOLATED}),
    row("refine-bow-empty-counterpart-row",
        refine_bow("{g}/zero-visual.txt", "{g}/zero-textual.txt"), 2,
        "numerical failure: vertex 5 is isolated (zero degree)"),
    *[row(f"{command}-weights-underflow", f"{argv} --sigma 1e-300", 2,
          "numerical failure: vertex 0 is isolated (zero degree)")
      for command, (argv, _) in VALID.items() if command != "refine-bow"],
    *[row(f"{command}-lanczos-budget", argv, 2, "numerical failure: component 0 of 3 (600 "
          "points): eigensolver did not converge within 1 iterations",
          patches=((linalg, "_lanczos_budget", lambda m: 1),))
      for command, argv in (
          ("classify", classify("{g}/three.csv", "{g}/three-labels.csv", "--k 10")),
          ("eigen-dump", eigen_dump("{g}/three.csv", "--k 10")))],
    # Dead workers and failed writes.
    *[row(f"{command}-dead-worker", argv.replace("--runs 1", "--runs 2"), 1,
          "error: a worker process ended without a result: item 0",
          patches=((harness, "multiclass_trial", exit_worker),), cpus=(2,))
      for command, (argv, _) in VALID.items() if command in ("moons-demo", "noise-sweep")],
    *[row(f"refine-bow-formatter-{fault}", refine_bow(), 1,
          "error: writing {out}/refined_visual.txt: " + message,
          patches=((fileio, "FORMAT_BLOCK_ROWS", 16), (fileio, "_format_block", formatter)),
          cpus=cpus)
      for fault, formatter, message, cpus in (
          ("raises", raise_in_worker, "block formatter failed", (1, 2)),
          ("exits", exit_worker, "a worker process ended without a result: item 0", (2,)))],
    # A nested --output: the run removes every directory it created, {out} included.
    *[row(f"{command}-disk-full{suffix}", VALID[command][0].replace("{out}", output), 1,
          f"error: writing {output}/{name}: [Errno 28] No space left on device",
          patches=((cli, "open", full_disk_at(name)),))
      for command, name in (("moons-demo", "moons_points.txt"), ("classify", "metrics.txt"),
                            ("refine-bow", "refined_textual.txt"))
      for suffix, output in (("", "{out}"), ("-nested-output", "{out}/a/b"))],
]


def write_points(path, x):
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in x.tolist()))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The valid inputs, {g}: 60 blob points with a label per class, three 600-point
    blobs with a label each, the 60-document corpus, and that corpus with an empty
    visual document 7 and an empty textual document 5."""
    directory = tmp_path_factory.mktemp("inputs")
    for name, n in (("x", 60), ("three", 1800)):
        x, truth = gaussian_blobs(n, classes=3, spread=0.1 if n == 60 else 0.15, seed=0)
        write_points(directory / f"{name}.csv", x)
        labels = "".join(f"{np.flatnonzero(truth == c)[0]},{c}\n" for c in range(3))
        (directory / ("labels.csv" if name == "x" else "three-labels.csv")).write_text(labels)
    _, visual, _, textual = two_block_corpus()
    for prefix, (v, t) in (("", (visual, textual)), ("zero-", (visual.copy(), textual.copy()))):
        if prefix:
            v[7], t[5] = 0.0, 0.0
        (directory / f"{prefix}visual.txt").write_bytes(b"".join(fileio.bow_chunks(v)))
        (directory / f"{prefix}textual.txt").write_bytes(b"".join(fileio.bow_chunks(t)))
    return directory


def setup_row(tmp_path, inputs, argv, files):
    """Write the row's files; return its argv list and the {g}, {t}, {out} paths."""
    paths = {"g": inputs, "t": tmp_path, "out": tmp_path / "out"}
    for name, body in files.items():
        (tmp_path / name).write_bytes(body)
    (tmp_path / "tmp").mkdir()
    return argv.format(**paths).split(), paths


@pytest.mark.parametrize("argv, files, patches, code, line, cpus", ROWS)
def test_failure(inputs, tmp_path, monkeypatch, capsys, argv, files, patches, code, line, cpus):
    argv, paths = setup_row(tmp_path, inputs, argv, files)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    for target, name, value in patches:
        # cli has no open of its own: the patch shadows the builtin there.
        monkeypatch.setattr(target, name, value, raising=name != "open")
    outcomes = []
    for count in cpus:
        monkeypatch.setattr(parallel, "usable_cpus", lambda count=count: count)
        outcomes.append((cli.main(argv), capsys.readouterr().err))
        assert not paths["out"].exists()
        assert list((tmp_path / "tmp").iterdir()) == []
    assert outcomes.count(outcomes[0]) == len(outcomes)
    got, err = outcomes[0]
    assert (got, err.count("\n")) == (code, 1)
    assert err.startswith(line.format(**paths)), err


def test_a_failed_write_keeps_an_empty_parent_that_was_there(tmp_path, monkeypatch):
    (tmp_path / "kept").mkdir()
    monkeypatch.setattr(cli, "open", full_disk_at("moons_points.txt"), raising=False)
    assert cli.main(["moons-demo", "--runs", "1", "--output", str(tmp_path / "kept/a/b")]) == 1
    assert list((tmp_path / "kept").iterdir()) == []


def test_a_row_in_a_process_of_its_own(inputs, tmp_path):
    # The installed script and python -m graphssl exit with cli.main's code.
    [params] = [param for param in ROWS if param.id == "classify-isolated-point"]
    argv, files, _, code, line, _ = params.values
    argv, paths = setup_row(tmp_path, inputs, argv, files)
    result = subprocess.run([sys.executable, "-m", "graphssl", *argv], capture_output=True,
                            text=True, env={**os.environ, "TMPDIR": str(tmp_path / "tmp")})
    assert (result.returncode, result.stderr.count("\n")) == (code, 1)
    assert result.stderr.startswith(line.format(**paths))
    assert not paths["out"].exists()
    assert list((tmp_path / "tmp").iterdir()) == []


def test_row_ids_are_unique():
    # pytest renames a repeated id without warning, and a dict literal keeps
    # only the last of a repeated key, so the route table's keys are read
    # from its source.
    assert len({param.id for param in ROWS}) == len(ROWS)
    with open(test_routes.__file__, encoding="utf-8") as fh:
        module = ast.parse(fh.read())
    [keys] = [node.value.keys for node in module.body if isinstance(node, ast.Assign)
              and [getattr(target, "id", None) for target in node.targets] == ["ROWS"]]
    assert len(keys) == len(test_routes.ROWS)
