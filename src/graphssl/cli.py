"""Command-line entry point with reproducible seeded runs and file I/O.

Commands: moons-demo, classify, noise-sweep, refine-bow, eigen-dump. Exit
codes: 0 success, 1 usage or configuration error, 2 numerical failure.
Every command validates its configuration up front and writes output files
only after all computation has finished, so failures never leave partial
files behind. Metrics are byte-identical across invocations for a fixed
seed (timing is deliberately excluded from all documents).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import bow, fileio, harness
from .bow import TABLE2_TEXTUAL, TABLE2_VISUAL, RefineConfig
from .errors import ComputationError
from .graph import GraphConfig, gaussian_knn_graph, normalized_laplacian
from .harness import MOONS_DEFAULTS
from .spectral import build_basis
from .ssl import evaluate

SCHEMA_VERSION = 2

# Digit-dataset defaults: k=4, lam=0.01, m=20 with unit kernel bandwidth.
MNIST_STYLE = {"k": 4, "lam": 0.01, "m": 20, "sigma": 1.0}

PRESETS = ("mnist-style", "table2-visual", "table2-textual")

MOONS_DEMO_KEYS = (
    "schema",
    "command",
    "seed",
    "runs",
    "n",
    "labels_per_class",
    "flip_fraction",
    "sigma",
    "k",
    "lam",
    "m",
    "l1_accuracies",
    "l2_accuracies",
    "l1_fitting_errors",
    "l1_quadratic_smoothness",
    "l1_l1_smoothness",
    "l2_fitting_errors",
    "l2_quadratic_smoothness",
    "l2_l1_smoothness",
    "l1_accuracy_median",
    "l2_accuracy_median",
    "l1_smoother_runs",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="graphssl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", help="output directory (metrics go to stdout if omitted)")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--preset", choices=PRESETS)
        p.add_argument("--k", type=int)
        p.add_argument("--sigma", type=float)
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--m", type=int)
        p.add_argument("--noise-fraction", dest="noise_fraction")
        p.add_argument("--labels-per-class", dest="labels_per_class", type=int)
        p.add_argument("--runs", type=int)

    demo = sub.add_parser("moons-demo", help="paired noisy-label benchmark on two moons")
    common(demo)

    classify = sub.add_parser("classify", help="label a feature file from partial labels")
    common(classify)
    classify.add_argument("--input", required=True, help="feature CSV, one sample per row")
    classify.add_argument("--labels", required=True, help="label CSV of `index,class` lines")
    classify.add_argument("--truth", help="optional ground truth, one class per line")

    sweep = sub.add_parser("noise-sweep", help="accuracy vs label-noise fraction grid")
    common(sweep)

    refine = sub.add_parser("refine-bow", help="co-refine two bag-of-words matrices")
    common(refine)
    refine.add_argument("--input", nargs=2, required=True,
                        metavar=("VISUAL", "TEXTUAL"), help="two sparse triplet files")

    dump = sub.add_parser("eigen-dump", help="write the smallest Laplacian eigenpairs")
    common(dump)
    dump.add_argument("--input", required=True, help="feature CSV, one sample per row")

    return parser


def _resolve(args, defaults):
    """Layer explicit flags over a preset over per-command defaults."""
    params = dict(defaults)
    if args.preset == "mnist-style":
        params.update(MNIST_STYLE)
    for name in ("k", "sigma", "lam", "m"):
        value = getattr(args, name, None)
        if value is not None:
            params[name] = value
    if params.get("sigma") is not None and params["sigma"] <= 0:
        raise ValueError("sigma must be positive")
    if params.get("k") is not None and params["k"] < 1:
        raise ValueError("k must be at least 1")
    if params.get("m") is not None and params["m"] < 1:
        raise ValueError("m must be at least 1")
    if params.get("lam") is not None and params["lam"] < 0:
        raise ValueError("lambda must be nonnegative")
    return params


def _parse_fraction_list(text, default):
    if text is None:
        return list(default)
    try:
        fractions = [float(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"invalid noise fraction list: {text!r}") from None
    if not fractions:
        raise ValueError("noise fraction list is empty")
    for f in fractions:
        if not 0.0 <= f <= 1.0:
            raise ValueError("noise fractions must lie in [0, 1]")
    return fractions


def _emit(args, documents):
    """Write named documents into the output directory, or print to stdout.

    documents is an ordered list of (filename, text). Without --output only
    metrics.txt-style single documents may be emitted. Every document is
    first written to a temporary name in the output directory and renamed
    into place only after all writes succeeded; on failure the temporaries
    are removed, so no partial set of files is left behind.
    """
    if args.output is None:
        if len(documents) != 1:
            raise ValueError("this command writes multiple files; pass --output DIR")
        sys.stdout.write(documents[0][1])
        return
    os.makedirs(args.output, exist_ok=True)
    staged = []  # (temporary, final) paths not yet renamed into place
    try:
        for name, text in documents:
            temporary = os.path.join(args.output, f".{name}.{os.getpid()}.tmp")
            staged.append((temporary, os.path.join(args.output, name)))
            with open(temporary, "w", encoding="utf-8") as fh:
                fh.write(text)
        while staged:
            os.replace(*staged[0])
            del staged[0]
    finally:
        for temporary, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(temporary)


def cmd_moons_demo(args):
    params = _resolve(args, {
        "sigma": MOONS_DEFAULTS["sigma"],
        "k": MOONS_DEFAULTS["k"],
        "lam": MOONS_DEFAULTS["lam"],
        "m": MOONS_DEFAULTS["m"],
    })
    runs = args.runs if args.runs is not None else 25
    if runs < 1:
        raise ValueError("runs must be at least 1")
    labels_per_class = args.labels_per_class if args.labels_per_class is not None else 5
    if args.noise_fraction is None:
        flip = 0.2
    else:
        try:
            flip = float(args.noise_fraction)
        except ValueError:
            raise ValueError(
                f"invalid noise fraction {args.noise_fraction!r} (moons-demo takes one value)"
            ) from None
    if not 0.0 <= flip <= 1.0:
        raise ValueError("noise fraction must lie in [0, 1]")

    trials = harness.run_moons_benchmark(
        args.seed, runs,
        labels_per_class=labels_per_class, flip_fraction=flip,
        sigma=params["sigma"], k=params["k"], lam=params["lam"], m=params["m"],
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
        ("runs", runs),
        ("n", MOONS_DEFAULTS["n"]),
        ("labels_per_class", labels_per_class),
        ("flip_fraction", flip),
        ("sigma", params["sigma"]),
        ("k", params["k"]),
        ("lam", params["lam"]),
        ("m", params["m"]),
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
    if args.output is None:
        raise ValueError("classify writes a predictions file; pass --output DIR")
    params = _resolve(args, dict(MNIST_STYLE))
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
    if params["k"] >= n:
        raise ValueError(f"k={params['k']} must be smaller than the sample count {n}")
    if params["m"] > n:
        raise ValueError(f"m={params['m']} exceeds the sample count {n}")

    solution = harness.l1_classify(
        x, assignments, classes,
        sigma=params["sigma"], k=params["k"], lam=params["lam"], m=params["m"],
        seed=args.seed,
    )
    items = [
        ("schema", SCHEMA_VERSION),
        ("command", "classify"),
        ("seed", args.seed),
        ("n", n),
        ("classes", classes),
        ("labeled", len(assignments)),
        ("sigma", params["sigma"]),
        ("k", params["k"]),
        ("lam", params["lam"]),
        ("m", params["m"]),
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
    params = _resolve(args, {
        "sigma": MOONS_DEFAULTS["sigma"],
        "k": MOONS_DEFAULTS["k"],
        "lam": MOONS_DEFAULTS["lam"],
        "m": MOONS_DEFAULTS["m"],
    })
    fractions = _parse_fraction_list(args.noise_fraction, (0.0, 0.1, 0.2, 0.3, 0.4))
    runs = args.runs if args.runs is not None else 25
    if runs < 1:
        raise ValueError("runs must be at least 1")
    labels_per_class = args.labels_per_class if args.labels_per_class is not None else 5
    if args.workers < 1:
        raise ValueError("workers must be at least 1")

    cells = harness.run_noise_sweep(
        args.seed, fractions, runs, labels_per_class,
        sigma=params["sigma"], k=params["k"], lam=params["lam"], m=params["m"],
        workers=args.workers,
    )
    items = [
        ("schema", SCHEMA_VERSION),
        ("command", "noise-sweep"),
        ("seed", args.seed),
        ("runs", runs),
        ("labels_per_class", labels_per_class),
        ("sigma", params["sigma"]),
        ("k", params["k"]),
        ("lam", params["lam"]),
        ("m", params["m"]),
        ("fractions", fractions),
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


def _refine_config(base, args):
    fields = {
        "lam": base.lam if args.lam is None else args.lam,
        "gamma": base.gamma if args.gamma is None else args.gamma,
        "k": base.k if args.k is None else args.k,
        "m": base.m if args.m is None else args.m,
    }
    return RefineConfig(**fields)


def cmd_refine_bow(args):
    if args.output is None:
        raise ValueError("refine-bow writes matrix files; pass --output DIR")
    if args.preset == "table2-textual":
        base_visual = base_textual = TABLE2_TEXTUAL
    elif args.preset == "table2-visual":
        base_visual = base_textual = TABLE2_VISUAL
    else:
        base_visual, base_textual = TABLE2_VISUAL, TABLE2_TEXTUAL
    cfg_visual = _refine_config(base_visual, args)
    cfg_textual = _refine_config(base_textual, args)

    visual = fileio.read_bow(args.input[0])
    textual = fileio.read_bow(args.input[1])
    if visual.shape[0] != textual.shape[0]:
        raise ValueError(
            f"document counts differ: {visual.shape[0]} vs {textual.shape[0]}"
        )
    n = visual.shape[0]
    for name, cfg in (("visual", cfg_visual), ("textual", cfg_textual)):
        if cfg.k >= n:
            raise ValueError(f"{name} k={cfg.k} must be smaller than document count {n}")
        if cfg.m > n:
            raise ValueError(f"{name} m={cfg.m} exceeds document count {n}")

    (refined_visual, rep_v), (refined_textual, rep_t) = bow.co_refine(
        visual, textual, cfg_visual, cfg_textual, seed=args.seed
    )

    def summary(prefix, refined, original, reports):
        changed = int(np.count_nonzero(refined != original))
        return [
            (f"{prefix}.lam", reports.config.lam),
            (f"{prefix}.gamma", reports.config.gamma),
            (f"{prefix}.k", reports.config.k),
            (f"{prefix}.m", reports.config.m),
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
    items += summary("visual", refined_visual, visual, rep_v)
    items += summary("textual", refined_textual, textual, rep_t)

    _emit(args, [
        ("refined_visual.txt", fileio.format_bow(refined_visual)),
        ("refined_textual.txt", fileio.format_bow(refined_textual)),
        ("metrics.txt", fileio.render_metrics(items)),
    ])
    return 0


def cmd_eigen_dump(args):
    params = _resolve(args, dict(MNIST_STYLE))
    x = fileio.read_features(args.input)
    n = x.shape[0]
    if params["m"] > n:
        raise ValueError(f"m={params['m']} exceeds the sample count {n}")
    if params["k"] >= n:
        raise ValueError(f"k={params['k']} must be smaller than the sample count {n}")
    graph = gaussian_knn_graph(x, GraphConfig(sigma=params["sigma"], k=params["k"]))
    lap = normalized_laplacian(graph)
    basis = build_basis(lap, params["m"], seed=args.seed)
    lines = [f"{basis.n} {basis.m}"]
    lines.append(" ".join(map(repr, basis.eigenvalues.tolist())))
    lines += [" ".join(map(repr, row)) for row in basis.vectors.tolist()]
    text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        _emit(args, [("eigen.txt", text)])
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
        return COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
