"""Command-line entry point with reproducible seeded runs and file I/O.

Commands: moons-demo, classify, noise-sweep, refine-bow, eigen-dump. Exit
codes: 0 success, 1 usage or configuration error, 2 numerical failure.
Each command accepts only the flags it reads, and every flag's range is
checked while parsing. Every command validates its configuration up front
and writes output files only after all computation has finished, so
failures never leave partial files behind. Metrics are byte-identical
across invocations for a fixed seed (timing is deliberately excluded from
all documents). Every command runs with OpenBLAS on one thread, so its
output does not depend on the BLAS thread count of the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys

import numpy as np

from . import bow, fileio, harness, parallel
from .bow import TABLE2_TEXTUAL, TABLE2_VISUAL
from .errors import ComputationError
from .harness import MOONS_DEFAULTS
from .ssl import evaluate

SCHEMA_VERSION = 2

# Digit-dataset defaults: k=4, lam=0.01, m=20 with unit kernel bandwidth.
MNIST_STYLE = {"sigma": 1.0, "k": 4, "lam": 0.01, "m": 20}
# Graph defaults of the two moons commands, in the same keys.
MOONS_GRAPH = {name: MOONS_DEFAULTS[name] for name in MNIST_STYLE}

# refine-bow's (visual, textual) configurations for each --preset value.
REFINE_PRESETS = {
    None: (TABLE2_VISUAL, TABLE2_TEXTUAL),
    "table2-visual": (TABLE2_VISUAL, TABLE2_VISUAL),
    "table2-textual": (TABLE2_TEXTUAL, TABLE2_TEXTUAL),
}


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
    "--seed": {"type": int, "default": 0},
    "--output": {"help": "output directory (metrics go to stdout if omitted)"},
    "--preset": {"choices": ("mnist-style",)},
    "--k": {"type": _count},
    "--sigma": {"type": _positive},
    "--lambda": {"dest": "lam", "type": _nonnegative},
    "--gamma": {"type": _nonnegative},
    "--m": {"type": _count},
    "--runs": {"type": _count, "default": 25},
    "--labels-per-class": {"type": _count, "default": MOONS_DEFAULTS["labels_per_class"]},
    "--noise-fraction": {"type": _fraction, "default": MOONS_DEFAULTS["flip_fraction"]},
    "--workers": {"type": _count, "default": 1,
                  "help": "worker processes, capped by --runs and the usable CPUs"},
    "--input": {"required": True, "help": "feature CSV, one sample per row"},
    "--labels": {"required": True, "help": "label CSV of `index,class` lines"},
    "--truth": {"help": "optional ground truth, one class per line"},
}

_GRAPH = ("--preset", "--k", "--sigma", "--lambda", "--m")

COMMAND_FLAGS = {
    "moons-demo": _GRAPH + ("--runs", "--labels-per-class", "--noise-fraction"),
    "classify": _GRAPH + ("--input", "--labels", "--truth"),
    "noise-sweep": _GRAPH + (
        "--runs", "--labels-per-class", "--workers",
        ("--noise-fraction", {"type": _fraction_list, "default": (0.0, 0.1, 0.2, 0.3, 0.4)}),
    ),
    "refine-bow": (
        ("--preset", {"choices": tuple(name for name in REFINE_PRESETS if name)}),
        "--k", "--lambda", "--gamma", "--m",
        ("--input", {"nargs": 2, "metavar": ("VISUAL", "TEXTUAL"),
                     "help": "two sparse triplet files"}),
    ),
    "eigen-dump": ("--preset", "--k", "--sigma", "--m", "--input"),
}


def build_parser():
    # allow_abbrev=False: a prefix such as --run is an unknown flag, not --runs.
    parser = _Parser(prog="graphssl", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, flags in COMMAND_FLAGS.items():
        p = sub.add_parser(command, help=COMMANDS[command].__doc__, allow_abbrev=False)
        for flag in ("--seed", "--output") + flags:
            flag, overrides = (flag, {}) if isinstance(flag, str) else flag
            p.add_argument(flag, **{**FLAGS[flag], **overrides})
    return parser


def _given(args, names):
    """The values of the flags among names that the command line set."""
    return {name: value for name in names if (value := getattr(args, name, None)) is not None}


def _graph_params(args, defaults=MNIST_STYLE):
    """Explicit flags over --preset mnist-style over the command's defaults."""
    base = MNIST_STYLE if args.preset else defaults
    return {**base, **_given(args, base)}


def _check_sizes(k, m, n, count="the sample count", prefix=""):
    """Reject a neighbor count k or basis size m that n points cannot hold."""
    if k >= n:
        raise ValueError(f"{prefix}k={k} must be smaller than {count} {n}")
    if m > n:
        raise ValueError(f"{prefix}m={m} exceeds {count} {n}")


def _check_moons(params, labels_per_class):
    """Reject a k, m or labeled count that the moons instance cannot hold."""
    _check_sizes(params["k"], params["m"], MOONS_DEFAULTS["n"])
    per_class = MOONS_DEFAULTS["n"] // 2
    if labels_per_class >= per_class:
        raise ValueError(
            f"--labels-per-class={labels_per_class} must be smaller than the "
            f"{per_class} moons points per class, so that some point is unlabeled"
        )


def _emit(args, documents):
    """Write named documents into the output directory, or print to stdout.

    documents is an ordered list of (filename, document), where a document
    is a str or an iterator of encoded chunks, written as they arrive.
    Without --output only a single str document may be emitted. Every
    document is first written to a temporary name in the output directory
    and renamed into place only after all writes succeeded; on failure the
    temporaries are removed, so no partial set of files is left behind.
    """
    if args.output is None:
        if len(documents) != 1:
            raise ValueError("this command writes multiple files; pass --output DIR")
        sys.stdout.write(documents[0][1])
        return
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


def cmd_moons_demo(args):
    """paired noisy-label benchmark on two moons"""
    params = _graph_params(args, MOONS_GRAPH)
    _check_moons(params, args.labels_per_class)
    trials = harness.run_moons_benchmark(
        args.seed, args.runs, labels_per_class=args.labels_per_class,
        flip_fraction=args.noise_fraction, **params,
    )
    l1_acc = [t.l1_accuracy for t in trials]
    l2_acc = [t.l2_accuracy for t in trials]
    smoother = sum(
        1 for t in trials if t.l1_smoothness.l1_smoothness < t.l2_smoothness.l1_smoothness
    )
    items = [
        ("schema", SCHEMA_VERSION),
        ("command", "moons-demo"),
        ("seed", args.seed),
        ("runs", args.runs),
        ("n", MOONS_DEFAULTS["n"]),
        ("labels_per_class", args.labels_per_class),
        ("flip_fraction", args.noise_fraction),
        *params.items(),
        ("l1_accuracies", l1_acc),
        ("l2_accuracies", l2_acc),
        ("l1_fitting_errors", [t.l1_smoothness.fitting_error for t in trials]),
        ("l1_quadratic_smoothness", [t.l1_smoothness.l2_smoothness for t in trials]),
        ("l1_l1_smoothness", [t.l1_smoothness.l1_smoothness for t in trials]),
        ("l2_fitting_errors", [t.l2_smoothness.fitting_error for t in trials]),
        ("l2_quadratic_smoothness", [t.l2_smoothness.l2_smoothness for t in trials]),
        ("l2_l1_smoothness", [t.l2_smoothness.l1_smoothness for t in trials]),
        ("l1_accuracy_median", float(np.median(l1_acc))),
        ("l2_accuracy_median", float(np.median(l2_acc))),
        ("l1_smoother_runs", smoother),
    ]
    documents = [("metrics.txt", fileio.render_metrics(items))]
    if args.output is not None:
        first = trials[0]
        labeled = set(first.labeled_indices)
        lines = ["x0 x1 truth l1_pred l2_pred labeled"]
        for i, (x0, x1) in enumerate(first.features.tolist()):
            lines.append(
                "%r %r %d %d %d %d" % (
                    x0, x1, first.truth[i], first.l1_predictions[i],
                    first.l2_predictions[i], int(i in labeled),
                )
            )
        documents.append(("moons_points.txt", "\n".join(lines) + "\n"))
    _emit(args, documents)
    return 0


def cmd_classify(args):
    """label a feature file from partial labels"""
    if args.output is None:
        raise ValueError("classify writes a predictions file; pass --output DIR")
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
            raise ValueError(
                f"truth has {truth.size} rows but features have {n}"
            )
    classes = max(cls for _, cls in assignments) + 1
    if truth is not None:
        classes = max(classes, int(truth.max()) + 1)
    _check_sizes(params["k"], params["m"], n)

    solution = harness.l1_classify(x, assignments, classes, **params, seed=args.seed)
    items = [
        ("schema", SCHEMA_VERSION),
        ("command", "classify"),
        ("seed", args.seed),
        ("n", n),
        ("classes", classes),
        ("labeled", len(assignments)),
        *params.items(),
    ]
    if truth is not None:
        labeled_mask = np.zeros(n, dtype=bool)
        for index, _ in assignments:
            labeled_mask[index] = True
        unlabeled = ~labeled_mask
        items.append(("accuracy_all", evaluate(solution, truth, np.ones(n, dtype=bool))))
        if unlabeled.any():
            items.append(("accuracy_unlabeled", evaluate(solution, truth, unlabeled)))
    predictions = "".join(f"{int(label)}\n" for label in solution.labels)
    _emit(args, [
        ("predictions.txt", predictions),
        ("metrics.txt", fileio.render_metrics(items)),
    ])
    return 0


def cmd_noise_sweep(args):
    """accuracy vs label-noise fraction grid"""
    params = _graph_params(args, MOONS_GRAPH)
    _check_moons(params, args.labels_per_class)
    cells = harness.run_noise_sweep(
        args.seed, args.noise_fraction, args.runs, args.labels_per_class, **params,
        workers=args.workers,
    )
    items = [
        ("schema", SCHEMA_VERSION),
        ("command", "noise-sweep"),
        ("seed", args.seed),
        ("runs", args.runs),
        ("labels_per_class", args.labels_per_class),
        *params.items(),
        ("fractions", args.noise_fraction),
        ("l1_mean", [c["l1_mean"] for c in cells]),
        ("l1_ci95", [c["l1_ci95"] for c in cells]),
        ("l2_mean", [c["l2_mean"] for c in cells]),
        ("l2_ci95", [c["l2_ci95"] for c in cells]),
    ]
    for i, cell in enumerate(cells):
        items.append((f"l1_accuracies.{i}", cell["l1_accuracies"]))
        items.append((f"l2_accuracies.{i}", cell["l2_accuracies"]))
    _emit(args, [("metrics.txt", fileio.render_metrics(items))])
    return 0


def cmd_refine_bow(args):
    """co-refine two bag-of-words matrices"""
    if args.output is None:
        raise ValueError("refine-bow writes matrix files; pass --output DIR")
    overrides = _given(args, ("lam", "gamma", "k", "m"))
    cfg_visual, cfg_textual = (
        dataclasses.replace(base, **overrides) for base in REFINE_PRESETS[args.preset]
    )

    visual = fileio.read_bow(args.input[0])
    textual = fileio.read_bow(args.input[1])
    if visual.shape[0] != textual.shape[0]:
        raise ValueError(
            f"document counts differ: {visual.shape[0]} vs {textual.shape[0]}"
        )
    n = visual.shape[0]
    for name, cfg in (("visual", cfg_visual), ("textual", cfg_textual)):
        _check_sizes(cfg.k, cfg.m, n, "document count", prefix=f"{name} ")

    (refined_visual, rep_v), (refined_textual, rep_t) = bow.co_refine(
        visual, textual, cfg_visual, cfg_textual, seed=args.seed
    )

    def summary(prefix, refined, original, cfg, reports):
        changed = int(np.count_nonzero(refined != original))
        return [
            (f"{prefix}.lam", cfg.lam),
            (f"{prefix}.gamma", cfg.gamma),
            (f"{prefix}.k", cfg.k),
            (f"{prefix}.m", cfg.m),
            (f"{prefix}.changed_entries", changed),
            (f"{prefix}.total_objective", reports.total_objective),
            (f"{prefix}.max_kkt_residual", reports.max_kkt_residual),
        ]

    items = [
        ("schema", SCHEMA_VERSION),
        ("command", "refine-bow"),
        ("seed", args.seed),
        ("documents", n),
    ]
    items += summary("visual", refined_visual, visual, cfg_visual, rep_v)
    items += summary("textual", refined_textual, textual, cfg_textual, rep_t)

    _emit(args, [
        ("refined_visual.txt", fileio.bow_chunks(refined_visual)),
        ("refined_textual.txt", fileio.bow_chunks(refined_textual)),
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
    lines = [f"{basis.n} {basis.m}"]
    lines.append(" ".join(map(repr, basis.eigenvalues.tolist())))
    lines += [" ".join(map(repr, row)) for row in basis.vectors.tolist()]
    _emit(args, [("eigen.txt", "\n".join(lines) + "\n")])
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
    try:
        with parallel.one_blas_thread():
            return COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
