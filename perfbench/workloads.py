"""The benchmark's workloads: inputs made from a seed, the command, output checks.

Inputs are generated with graphssl.datasets and written with this module's
own writers, so a change to the program's file writers does not change them.
The program only sees the files and the command-line flags.
"""

from __future__ import annotations

import os

import numpy as np

# Entries at or below this magnitude are left out of triplet files, as the
# program's own writer does.
TRIPLET_THRESHOLD = 1e-12
# refine-bow must solve every column to this KKT residual.
KKT_LIMIT = 1e-8


class CheckFailed(Exception):
    """An invocation's outputs are wrong."""


class Instance:
    """One input set: the command line without --output, sizes, and check data."""

    def __init__(self, label, argv, sizes, size_keys, expect=None):
        self.label = label
        self.argv = argv
        self.sizes = sizes
        self.size_keys = size_keys  # metrics.txt keys copied into sizes
        self.expect = expect or {}


def instance_seeds(seed, count):
    return [int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(count)]


def write_features(path, x):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(",".join(map(repr, row)) + "\n" for row in x.tolist()))


def write_triplets(path, matrix):
    rows, cols = np.nonzero(np.abs(matrix) > TRIPLET_THRESHOLD)
    values = matrix[rows, cols].tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]} {rows.size}\n")
        fh.write("".join(f"{i} {j} {v!r}\n"
                         for i, j, v in zip(rows.tolist(), cols.tolist(), values)))


def read_triplets(path):
    """Dense matrix from a triplet file, parsed without the program's reader."""
    with open(path, "r", encoding="utf-8") as fh:
        n, m, nnz = (int(v) for v in fh.readline().split())
        body = np.fromstring(fh.read(), dtype=np.float64, sep=" ")
    if body.size != 3 * nnz:
        raise CheckFailed(f"{os.path.basename(path)}: header declares {nnz} entries, "
                          f"found {body.size / 3:g}")
    triplets = body.reshape(nnz, 3)
    dense = np.zeros((n, m))
    dense[triplets[:, 0].astype(np.int64), triplets[:, 1].astype(np.int64)] = triplets[:, 2]
    return dense


def _input_bytes(paths):
    return sum(os.path.getsize(p) for p in paths)


class ClassifyBlobs:
    name = "classify-blobs"
    why = ("large-n Lanczos path: the shift-invert eigensolve does most of the work, "
           "then the k-NN graph and the CSV reads")
    n = 30000
    classes = 5
    labels_per_class = 10
    # k=10 keeps each class one connected component, so there are exactly
    # `classes` zero eigenvalues whatever the seed.
    k = 10
    # Eigensolve time depends on the data; several input sets per run keep
    # the median from following one seed's draw.
    instances = 3

    def prepare(self, seed, workdir):
        from graphssl.datasets import gaussian_blobs

        out = []
        for j, data_seed in enumerate(instance_seeds(seed, self.instances)):
            x, truth = gaussian_blobs(self.n, classes=self.classes, seed=data_seed)
            rng = np.random.default_rng(data_seed)
            labeled = []
            for cls in range(self.classes):
                pick = rng.choice(np.flatnonzero(truth == cls), self.labels_per_class,
                                  replace=False)
                labeled += [(int(i), cls) for i in np.sort(pick)]
            paths = [os.path.join(workdir, f"blobs{j}-{name}")
                     for name in ("features.csv", "labels.csv", "truth.txt")]
            write_features(paths[0], x)
            with open(paths[1], "w", encoding="utf-8") as fh:
                fh.write("".join(f"{i},{cls}\n" for i, cls in labeled))
            with open(paths[2], "w", encoding="utf-8") as fh:
                fh.write("".join(f"{t}\n" for t in truth.tolist()))
            argv = ["classify", "--preset", "mnist-style", "--k", str(self.k),
                    "--input", paths[0], "--labels", paths[1], "--truth", paths[2],
                    "--seed", str(data_seed)]
            sizes = {"n": self.n, "classes": self.classes, "labeled": len(labeled),
                     "input_bytes": _input_bytes(paths)}
            out.append(Instance(f"blobs{j}", argv, sizes,
                                ("n", "classes", "labeled", "k", "m"),
                                {"n": self.n, "classes": self.classes}))
        return out

    def check(self, instance, outdir, metrics):
        with open(os.path.join(outdir, "predictions.txt"), "r", encoding="utf-8") as fh:
            labels = fh.read().split()
        if len(labels) != instance.expect["n"]:
            raise CheckFailed(f"{len(labels)} predictions for {instance.expect['n']} points")
        if not all(label.isdigit() and int(label) < instance.expect["classes"]
                   for label in labels):
            raise CheckFailed("a prediction is not a class index")
        if "accuracy_unlabeled" not in metrics:
            raise CheckFailed("metrics.txt has no accuracy_unlabeled")

    def quality(self, instance, outdir, metrics):
        return float(metrics["accuracy_unlabeled"])


class RefineBow:
    name = "refine-bow"
    why = ("file I/O, the dense n x n linear kernel, knn_sparsify and memory; "
           "the eigensolve is minor here")
    n = 3000
    vocab = 200
    other_vocab = 100
    jitter = 0.5
    instances = 1

    def prepare(self, seed, workdir):
        from graphssl.datasets import two_block_corpus

        clean, corrupted, mask, counterpart = two_block_corpus(
            n=self.n, vocab=self.vocab, other_vocab=self.other_vocab,
            jitter=self.jitter, seed=seed)
        paths = [os.path.join(workdir, "visual.txt"), os.path.join(workdir, "textual.txt")]
        write_triplets(paths[0], corrupted)
        write_triplets(paths[1], counterpart)
        argv = ["refine-bow", "--input", paths[0], paths[1], "--seed", str(seed)]
        sizes = {"n": self.n, "vocab": self.vocab, "other_vocab": self.other_vocab,
                 "visual_nnz": int(np.count_nonzero(corrupted)),
                 "textual_nnz": int(np.count_nonzero(counterpart)),
                 "corrupted_entries": int(mask.sum()),
                 "input_bytes": _input_bytes(paths)}
        return [Instance("corpus", argv, sizes,
                         ("documents", "visual.k", "visual.m", "textual.k", "textual.m"),
                         {"clean": clean, "corrupted": corrupted, "mask": mask})]

    def check(self, instance, outdir, metrics):
        for prefix in ("visual", "textual"):
            key = f"{prefix}.max_kkt_residual"
            if key not in metrics:
                raise CheckFailed(f"metrics.txt has no {key}")
            if not metrics[key] <= KKT_LIMIT:
                raise CheckFailed(f"{key} = {metrics[key]!r} exceeds {KKT_LIMIT:g}")
            if not os.path.isfile(os.path.join(outdir, f"refined_{prefix}.txt")):
                raise CheckFailed(f"refined_{prefix}.txt is missing")

    def quality(self, instance, outdir, metrics):
        """refine_moved: share of corrupted visual entries whose error went down."""
        refined = read_triplets(os.path.join(outdir, "refined_visual.txt"))
        clean = instance.expect["clean"]
        mask = instance.expect["mask"]
        if refined.shape != clean.shape:
            raise CheckFailed(f"refined visual matrix has shape {refined.shape}")
        before = np.abs(instance.expect["corrupted"] - clean)[mask]
        after = np.abs(refined - clean)[mask]
        return float(np.mean(after < before))


class NoiseSweep:
    name = "noise-sweep"
    why = ("many small problems: 125 dense-eigh cells with FISTA and CG solves "
           "through the harness thread pool; no input files")
    instances = 1

    def prepare(self, seed, workdir):
        workers = len(os.sched_getaffinity(0))
        argv = ["noise-sweep", "--workers", str(workers), "--seed", str(seed)]
        return [Instance("sweep", argv, {"workers": workers, "input_bytes": 0},
                         ("runs", "labels_per_class", "k", "m", "fractions"))]

    def check(self, instance, outdir, metrics):
        means = metrics.get("l1_mean")
        if not means or len(means) != len(metrics.get("fractions", ())):
            raise CheckFailed("metrics.txt has no l1_mean per fraction")
        if not all(0.0 <= v <= 1.0 for v in means):
            raise CheckFailed("an l1_mean lies outside [0, 1]")

    def quality(self, instance, outdir, metrics):
        return float(np.mean(metrics["l1_mean"]))


WORKLOADS = {w.name: w for w in (ClassifyBlobs(), RefineBow(), NoiseSweep())}
