"""Command-line entry point with reproducible seeded runs and file I/O.

Commands: moons-demo, classify, noise-sweep, refine-bow, eigen-dump. Each
command accepts only the flags it reads. A run fails in one of three ways:
`usage error:` (exit 1) from the parser, before any file is read, for all
that the command line alone decides, every flag's range included; `error:`
(exit 1) for an input fault, which names its file and line, a size the
input cannot hold, or an I/O error, a dead worker process included; and
`numerical failure:` (exit 2). Output files are renamed into place only
after all computation and every write succeeded, so a failed run leaves no
output file, no directory that it created and no temporary file;
tests/test_failures.py is the reference. Metrics are byte-identical across
invocations for a fixed seed (timing is deliberately excluded from all
documents). Every command runs with OpenBLAS on one thread, so its output
does not depend on the BLAS thread count of the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import math
import os
import pathlib
import sys

import numpy as np

from . import bow, fileio, floattext, harness, parallel
from .bow import TABLE2_TEXTUAL, TABLE2_VISUAL
from .errors import ComputationError
from .harness import MOONS_DEFAULTS
from .ssl import evaluate

SCHEMA_VERSION = 2

# Digit-dataset defaults: k=4, lam=0.01, m=20 with unit kernel bandwidth.
MNIST_STYLE = {"sigma": 1.0, "k": 4, "lam": 0.01, "m": 20}
# Graph defaults of the two moons commands, in the same keys.
MOONS_GRAPH = {name: MOONS_DEFAULTS[name] for name in MNIST_STYLE}
# The moons instance's size: k < n, m <= n, and a point of each class unlabeled.
_MOONS_N = MOONS_DEFAULTS["n"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(convert, holds, requirement):
    """An argparse type: convert the text, then require holds(value)."""
    def parse(text):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_count = _checked(int, lambda v: v >= 1, "at least 1")
_positive = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_nonnegative = _checked(float, lambda v: 0 <= v < math.inf, "nonnegative and finite")
_fraction = _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def _int_in(low, high):
    return _checked(int, lambda v: low <= v <= high, f"in [{low}, {high}]")


def _fraction_list(text):
    """Comma-separated fractions; empty items are skipped."""
    try:
        fractions = [_fraction(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid noise fraction list: {text!r}") from None
    if not fractions:
        raise argparse.ArgumentTypeError("noise fraction list is empty")
    return fractions


# Every flag, with its range check and default. Commands name the flags
# they read; a (flag, overrides) pair changes one flag for one command.
FLAGS = {
    "--seed": {"type": _checked(int, lambda v: v >= 0, "nonnegative"), "default": 0},
    "--output": {"help": "output directory (the one document goes to stdout if omitted)"},
    "--preset": {"choices": ("mnist-style",)},
    "--k": {"type": _count},
    "--sigma": {"type": _positive},
    "--lambda": {"dest": "lam", "type": _nonnegative},
    "--gamma": {"type": _nonnegative},
    "--m": {"type": _count},
    "--runs": {"type": _count, "default": 25},
    "--labels-per-class": {"type": _int_in(1, _MOONS_N // 2 - 1),
                           "default": MOONS_DEFAULTS["labels_per_class"]},
    "--noise-fraction": {"type": _fraction, "default": MOONS_DEFAULTS["flip_fraction"]},
    "--workers": {"type": _count, "default": 1,
                  "help": "worker processes, capped by --runs and the usable CPUs"},
    "--input": {"required": True, "help": "feature CSV, one sample per row"},
    "--labels": {"required": True, "help": "label CSV of `index,class` lines"},
    "--truth": {"help": "optional ground truth, one class per line"},
}

_GRAPH = ("--k", "--sigma", "--lambda", "--m")
_MOONS = ("--output", ("--k", {"type": _int_in(1, _MOONS_N - 1)}), "--sigma", "--lambda",
          ("--m", {"type": _int_in(1, _MOONS_N)}), "--runs", "--labels-per-class")
_OUTPUT_REQUIRED = ("--output", {"required": True, "help": "output directory"})

COMMAND_FLAGS = {
    "moons-demo": _MOONS + ("--noise-fraction",),
    "classify": (_OUTPUT_REQUIRED, "--preset") + _GRAPH + ("--input", "--labels", "--truth"),
    "noise-sweep": _MOONS + (
        "--workers",
        ("--noise-fraction", {"type": _fraction_list, "default": (0.0, 0.1, 0.2, 0.3, 0.4)}),
    ),
    "refine-bow": (
        _OUTPUT_REQUIRED, "--k", "--lambda", "--gamma", "--m",
        ("--input", {"nargs": 2, "metavar": ("VISUAL", "TEXTUAL"),
                     "help": "two sparse triplet files"}),
    ),
    "eigen-dump": ("--output", "--preset", "--k", "--sigma", "--m", "--input"),
}


def build_parser():
    # allow_abbrev=False: a prefix such as --run is an unknown flag, not --runs.
    parser = _Parser(prog="graphssl", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, flags in COMMAND_FLAGS.items():
        p = sub.add_parser(command, help=COMMANDS[command].__doc__, allow_abbrev=False)
        for flag in ("--seed",) + flags:
            flag, overrides = (flag, {}) if isinstance(flag, str) else flag
            p.add_argument(flag, **{**FLAGS[flag], **overrides})
    return parser


def _given(args, names):
    """The values of the flags among names that the command line set."""
    return {name: value for name in names if (value := getattr(args, name, None)) is not None}


def _graph_params(args, defaults=MNIST_STYLE):
    """Explicit flags over the command's defaults."""
    return {**defaults, **_given(args, defaults)}


def _header(args):
    """The metrics items every command writes first: schema, command and seed."""
    return [("schema", SCHEMA_VERSION), ("command", args.command), ("seed", args.seed)]


def _check_sizes(k, m, n, count="the sample count", prefix=""):
    """Reject a neighbor count k or basis size m that n points cannot hold."""
    if k >= n:
        raise ValueError(f"{prefix}k={k} must be smaller than {count} {n}")
    if m > n:
        raise ValueError(f"{prefix}m={m} exceeds {count} {n}")


def _emit(args, documents):
    """Write named documents into the output directory, or print to stdout.

    documents is an ordered list of (filename, document), where a document
    is a str or an iterator of encoded chunks, written as they arrive.
    Without --output there is one document. Each document is written to
    a temporary name in the output directory and renamed into place once all
    writes succeeded; on failure the temporaries are removed, and so are the
    output directory and each parent of it that this run created.
    """
    if args.output is None:
        [(_, document)] = documents
        sys.stdout.write(document if isinstance(document, str) else b"".join(document).decode())
        return
    path = pathlib.Path(args.output).absolute()  # makedirs creates these, deepest first:
    created = [directory for directory in [path, *path.parents] if not directory.exists()]
    os.makedirs(args.output, exist_ok=True)
    staged = []  # (temporary, final) paths not yet renamed into place
    try:
        for name, document in documents:
            temporary = os.path.join(args.output, f".{name}.{os.getpid()}.tmp")
            staged.append((temporary, os.path.join(args.output, name)))
            chunks = [document.encode()] if isinstance(document, str) else document
            try:
                with open(temporary, "wb") as fh:
                    for chunk in chunks:
                        fh.write(chunk)
            except Exception as exc:  # also what a chunk's worker raised or died of
                raise ValueError(f"writing {staged[-1][1]}: {exc}") from exc
        while staged:
            os.replace(*staged[0])
            del staged[0]
    finally:
        for temporary, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(temporary)
        for directory in created if staged else []:
            with contextlib.suppress(OSError):  # not empty once a file was renamed into place
                os.rmdir(directory)


def cmd_moons_demo(args):
    """paired noisy-label benchmark on two moons"""
    params = _graph_params(args, MOONS_GRAPH)
    runs = harness.run_moons_demo(args.seed, args.noise_fraction, args.runs,
                                  args.labels_per_class, **params)
    l1_acc, l2_acc = zip(*(trial.accuracies()[0] for trial, _ in runs))
    l1_reports, l2_reports = zip(*(reports for _, reports in runs))
    smoother = sum(a.l1_smoothness < b.l1_smoothness for a, b in zip(l1_reports, l2_reports))
    items = [
        *_header(args),
        ("runs", args.runs),
        ("n", MOONS_DEFAULTS["n"]),
        ("labels_per_class", args.labels_per_class),
        ("flip_fraction", args.noise_fraction),
        *params.items(),
        ("l1_accuracies", l1_acc),
        ("l2_accuracies", l2_acc),
    ]
    for method, reports in (("l1", l1_reports), ("l2", l2_reports)):
        items += [
            (f"{method}_fitting_errors", [r.fitting_error for r in reports]),
            (f"{method}_quadratic_smoothness", [r.l2_smoothness for r in reports]),
            (f"{method}_l1_smoothness", [r.l1_smoothness for r in reports]),
        ]
    items += [
        ("l1_accuracy_median", float(np.median(l1_acc))),
        ("l2_accuracy_median", float(np.median(l2_acc))),
        ("l1_smoother_runs", smoother),
    ]
    documents = [("metrics.txt", fileio.render_metrics(items))]
    if args.output is not None:
        first = runs[0][0]
        columns = (first.x[:, 0], first.x[:, 1], first.truth, *first.predictions(0),
                   first.labeled)
        lines = ["x0 x1 truth l1_pred l2_pred labeled"]
        lines += ["%r %r %d %d %d %d" % row for row in zip(*(c.tolist() for c in columns))]
        documents.append(("moons_points.txt", "\n".join(lines) + "\n"))
    _emit(args, documents)
    return 0


def cmd_classify(args):
    """label a feature file from partial labels"""
    params = _graph_params(args)
    x = fileio.read_features(args.input)
    assignments = fileio.read_label_assignments(args.labels)
    if not assignments:
        raise ValueError(f"{args.labels}: no labels")
    n = x.shape[0]
    truth = None
    if args.truth is not None:
        truth = fileio.read_truth(args.truth)
        if truth.size != n:
            raise ValueError(f"truth has {truth.size} rows but features have {n}")
    # At least one class, so that a file of negative classes fails as out of range.
    classes = max(1, max(cls for _, cls in assignments) + 1)
    present = sorted({cls for _, cls in assignments})
    if present[0] >= 0 and len(present) < classes:  # encode_labels rejects a negative class
        missing = next(c for c, cls in enumerate(present) if c != cls)
        raise ValueError(f"{args.labels}: class {missing} has no label; "
                         f"each class from 0 to {classes - 1} needs one")
    _check_sizes(params["k"], params["m"], n)

    solution = harness.l1_classify(x, assignments, classes, **params, seed=args.seed)
    items = [
        *_header(args),
        ("n", n),
        ("classes", classes),
        ("labeled", len(assignments)),
        *params.items(),
    ]
    if truth is not None:
        unlabeled = np.ones(n, dtype=bool)
        unlabeled[[index for index, _ in assignments]] = False
        items.append(("accuracy_all", evaluate(solution, truth, np.ones(n, dtype=bool))))
        if unlabeled.any():
            items.append(("accuracy_unlabeled", evaluate(solution, truth, unlabeled)))
    predictions = "".join([f"{label}\n" for label in solution.labels.tolist()])
    _emit(args, [
        ("predictions.txt", predictions),
        ("metrics.txt", fileio.render_metrics(items)),
    ])
    return 0


def cmd_noise_sweep(args):
    """accuracy vs label-noise fraction grid"""
    params = _graph_params(args, MOONS_GRAPH)
    runs = harness.run_noise_sweep(
        args.seed, args.noise_fraction, args.runs, args.labels_per_class, **params,
        workers=args.workers,
    )
    # One (L1 accuracies, L2 accuracies) pair per fraction, over the runs.
    accuracies = [tuple(zip(*pairs)) for pairs in zip(*runs)]
    items = [
        *_header(args),
        ("runs", args.runs),
        ("labels_per_class", args.labels_per_class),
        *params.items(),
        ("fractions", args.noise_fraction),
    ]
    for j, method in enumerate(("l1", "l2")):
        items.append((f"{method}_mean", [float(np.mean(a[j])) for a in accuracies]))
        items.append((f"{method}_ci95", [harness.confidence_halfwidth(a[j]) for a in accuracies]))
    for i, (l1, l2) in enumerate(accuracies):
        items += [(f"l1_accuracies.{i}", l1), (f"l2_accuracies.{i}", l2)]
    _emit(args, [("metrics.txt", fileio.render_metrics(items))])
    return 0


def cmd_refine_bow(args):
    """co-refine two bag-of-words matrices"""
    overrides = _given(args, ("lam", "gamma", "k", "m"))
    cfg_visual, cfg_textual = (
        dataclasses.replace(base, **overrides) for base in (TABLE2_VISUAL, TABLE2_TEXTUAL)
    )

    # Read on forked workers, one file each; results arrive in order, so a
    # bad visual file is reported before a bad textual one.
    visual, textual = parallel.fork_map(fileio.read_bow, args.input, parallel.usable_cpus())
    if visual.shape[0] != textual.shape[0]:
        raise ValueError(f"document counts differ: {visual.shape[0]} vs {textual.shape[0]}")
    n = visual.shape[0]
    for name, cfg in (("visual", cfg_visual), ("textual", cfg_textual)):
        _check_sizes(cfg.k, cfg.m, n, "document count", prefix=f"{name} ")

    refinements = bow.co_refine(visual, textual, cfg_visual, cfg_textual, seed=args.seed)

    items = [
        *_header(args),
        ("documents", n),
    ]
    for prefix, cfg, refinement in zip(("visual", "textual"), (cfg_visual, cfg_textual),
                                       refinements):
        items += [
            (f"{prefix}.lam", cfg.lam),
            (f"{prefix}.gamma", cfg.gamma),
            (f"{prefix}.k", cfg.k),
            (f"{prefix}.m", cfg.m),
            (f"{prefix}.changed_entries", refinement.changed_entries),
            (f"{prefix}.total_objective", refinement.total_objective),
            (f"{prefix}.max_kkt_residual", refinement.max_kkt_residual),
        ]
    refined_visual, refined_textual = fileio.bow_documents(refinements)
    _emit(args, [
        ("refined_visual.txt", refined_visual),
        ("refined_textual.txt", refined_textual),
        ("metrics.txt", fileio.render_metrics(items)),
    ])
    return 0


def cmd_eigen_dump(args):
    """write the smallest Laplacian eigenpairs"""
    params = _graph_params(args)
    x = fileio.read_features(args.input)
    n = x.shape[0]
    _check_sizes(params["k"], params["m"], n)
    _, basis = harness.laplacian_basis(x, params["sigma"], params["k"], params["m"], args.seed)
    rows = max(1, 2**16 // basis.m)  # formatted per block of about 2**16 values
    _emit(args, [("eigen.txt", itertools.chain(
        [f"{basis.n} {basis.m}\n".encode(), floattext.lines(basis.eigenvalues[None])],
        (floattext.lines(basis.vectors[i:i + rows]) for i in range(0, basis.n, rows))))])
    return 0


COMMANDS = {
    "moons-demo": cmd_moons_demo,
    "classify": cmd_classify,
    "noise-sweep": cmd_noise_sweep,
    "refine-bow": cmd_refine_bow,
    "eigen-dump": cmd_eigen_dump,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    # Pinned for good: after the command's forks, restoring the count would
    # restart OpenBLAS's server threads, and in-process callers would run
    # the next command beside them.
    parallel.pin_one_blas_thread()
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
