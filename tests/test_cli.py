import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from graphssl import bow, cli, fileio, harness, parallel, solver, spectral
from graphssl.bow import refine
from graphssl.datasets import gaussian_blobs, two_block_corpus
from graphssl.graph import gaussian_knn_graph, normalized_laplacian
from graphssl.harness import _STREAM_EIGEN, child_seed, confidence_halfwidth
from graphssl.spectral import build_basis


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "graphssl", *map(str, args)],
        capture_output=True,
        text=True,
    )


def write_blob_dataset(tmp_path, n=60, classes=3, labeled_per_class=4, seed=0):
    x, truth = gaussian_blobs(n, classes=classes, spread=0.1, seed=seed)
    features = tmp_path / "features.csv"
    features.write_text("".join(f"{a},{b}\n" for a, b in x))
    rng = np.random.default_rng(seed + 1)
    lines = []
    for cls in range(classes):
        idx = np.flatnonzero(truth == cls)
        for i in rng.choice(idx, size=labeled_per_class, replace=False):
            lines.append(f"{i},{cls}\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("".join(lines))
    truth_path = tmp_path / "truth.txt"
    truth_path.write_text("".join(f"{t}\n" for t in truth))
    return features, labels, truth_path, truth


def write_bow(path, matrix):
    path.write_bytes(b"".join(fileio.bow_chunks(matrix)))


def write_corpus(tmp_path, seed=0):
    _, corrupted, _, other = two_block_corpus(seed=seed)
    visual = tmp_path / "visual.txt"
    textual = tmp_path / "textual.txt"
    write_bow(visual, corrupted)
    write_bow(textual, other)
    return visual, textual


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


class TestMoonsDemo:
    def test_schema_keys_exact(self):
        result = run_cli("moons-demo", "--runs", 2, "--seed", 3)
        assert result.returncode == 0
        parsed = fileio.parse_metrics(result.stdout)
        assert tuple(parsed.keys()) == MOONS_DEMO_KEYS

    def test_clean_run_high_accuracy_for_both(self):
        result = run_cli("moons-demo", "--runs", 5, "--noise-fraction", 0)
        parsed = fileio.parse_metrics(result.stdout)
        assert parsed["l1_accuracy_median"] >= 0.98
        assert parsed["l2_accuracy_median"] >= 0.98

    def test_noisy_run_favors_sparse_method(self):
        result = run_cli("moons-demo", "--runs", 5, "--seed", 1)
        parsed = fileio.parse_metrics(result.stdout)
        assert parsed["l1_accuracy_median"] >= parsed["l2_accuracy_median"]

    def test_output_directory_gets_points_file(self, tmp_path):
        out = tmp_path / "demo"
        result = run_cli("moons-demo", "--runs", 2, "--output", out)
        assert result.returncode == 0
        assert (out / "metrics.txt").exists()
        points = (out / "moons_points.txt").read_text().splitlines()
        assert points[0].split() == ["x0", "x1", "truth", "l1_pred", "l2_pred", "labeled"]
        assert len(points) == 1 + 200

    @pytest.mark.parametrize("fraction", ["0.2", "0.4"])
    def test_runs_are_the_sweeps_runs(self, fraction):
        # One trial and one decision rule: moons-demo is noise-sweep at one fraction.
        demo = fileio.parse_metrics(run_cli("moons-demo", "--seed", 0, "--runs", 5,
                                            "--noise-fraction", fraction).stdout)
        sweep = fileio.parse_metrics(run_cli("noise-sweep", "--seed", 0, "--runs", 5,
                                             "--noise-fraction", fraction).stdout)
        assert demo["l1_accuracies"] == sweep["l1_accuracies.0"]
        assert demo["l2_accuracies"] == sweep["l2_accuracies.0"]


class TestClassify:
    def test_writes_predictions_and_metrics(self, tmp_path):
        features, labels, truth, _ = write_blob_dataset(tmp_path)
        out = tmp_path / "out"
        result = run_cli(
            "classify", "--input", features, "--labels", labels, "--truth", truth,
            "--output", out, "--sigma", 0.5, "--k", 6, "--m", 10, "--lambda", 2.0,
        )
        assert result.returncode == 0, result.stderr
        predictions = (out / "predictions.txt").read_text().splitlines()
        assert len(predictions) == 60
        metrics = fileio.parse_metrics((out / "metrics.txt").read_text())
        assert metrics["accuracy_unlabeled"] >= 0.9
        assert "accuracy_all" in metrics

    def test_fully_labeled_small_lam_reproduces_labels(self, tmp_path):
        x, truth = gaussian_blobs(24, classes=3, spread=0.1, seed=5)
        features = tmp_path / "f.csv"
        features.write_text("".join(f"{a},{b}\n" for a, b in x))
        labels = tmp_path / "l.csv"
        labels.write_text("".join(f"{i},{c}\n" for i, c in enumerate(truth)))
        out = tmp_path / "out"
        result = run_cli(
            "classify", "--input", features, "--labels", labels, "--output", out,
            "--lambda", 1e-6, "--m", 24, "--k", 5, "--sigma", 0.5,
        )
        assert result.returncode == 0, result.stderr
        predictions = [int(v) for v in (out / "predictions.txt").read_text().split()]
        assert predictions == truth.tolist()

    def test_missing_truth_omits_metrics_section(self, tmp_path):
        features, labels, _, _ = write_blob_dataset(tmp_path)
        out = tmp_path / "out"
        result = run_cli(
            "classify", "--input", features, "--labels", labels, "--output", out,
            "--sigma", 0.5, "--k", 6, "--m", 10,
        )
        assert result.returncode == 0
        metrics = fileio.parse_metrics((out / "metrics.txt").read_text())
        assert "accuracy_all" not in metrics
        assert "accuracy_unlabeled" not in metrics

    def test_truth_naming_an_unlabeled_class_does_not_change_predictions(self, tmp_path):
        # Class 3 has no label. When --truth added its all-zero score column,
        # 23 of the 400 points went to it.
        x, truth = gaussian_blobs(400, classes=4, spread=0.8, seed=0)
        features = tmp_path / "features.csv"
        features.write_text("".join(f"{a!r},{b!r}\n" for a, b in x.tolist()))
        rng = np.random.default_rng(0)
        labels = tmp_path / "labels.csv"
        labels.write_text("".join(
            f"{i},{cls}\n" for cls in range(3)
            for i in rng.choice(np.flatnonzero(truth == cls), 5, replace=False)))
        truth_path = tmp_path / "truth.txt"
        truth_path.write_text("".join(f"{t}\n" for t in truth.tolist()))
        outputs = []
        for extra in ([], ["--truth", str(truth_path)]):
            out = tmp_path / f"out-{len(extra)}"
            assert cli.main(["classify", "--input", str(features), "--labels", str(labels),
                             "--output", str(out), *extra]) == 0
            outputs.append(out)
        assert ((outputs[0] / "predictions.txt").read_bytes()
                == (outputs[1] / "predictions.txt").read_bytes())
        assert fileio.parse_metrics((outputs[1] / "metrics.txt").read_text())["classes"] == 3


class TestNoiseSweep:
    def test_degenerate_grid_reduces_to_clean(self):
        clean = run_cli("noise-sweep", "--noise-fraction", "0", "--runs", 4, "--seed", 2)
        assert clean.returncode == 0
        parsed = fileio.parse_metrics(clean.stdout)
        assert parsed["fractions"] == [0.0]
        assert parsed["l1_mean"][0] >= 0.95

    def test_monotone_degradation(self):
        result = run_cli("noise-sweep", "--noise-fraction", "0,0.4", "--runs", 6, "--seed", 4)
        parsed = fileio.parse_metrics(result.stdout)
        assert parsed["l1_mean"][0] >= parsed["l1_mean"][1]
        assert parsed["l2_mean"][0] >= parsed["l2_mean"][1]

    def test_confidence_interval_matches_hand_computation(self):
        values = [0.9, 0.8, 1.0, 0.7]
        sd = np.std(values, ddof=1)
        assert confidence_halfwidth(values) == pytest.approx(1.96 * sd / 2.0)
        result = run_cli("noise-sweep", "--noise-fraction", "0.2,0.4", "--runs", 4,
                         "--seed", 8)
        parsed = fileio.parse_metrics(result.stdout)
        for method in ("l1", "l2"):
            assert len(parsed[f"{method}_mean"]) == len(parsed[f"{method}_ci95"]) == 2
            for i in range(2):
                accs = parsed[f"{method}_accuracies.{i}"]
                assert len(accs) == 4
                expected = 1.96 * np.std(accs, ddof=1) / np.sqrt(len(accs))
                assert parsed[f"{method}_mean"][i] == pytest.approx(np.mean(accs), abs=1e-12)
                assert parsed[f"{method}_ci95"][i] == pytest.approx(expected, abs=1e-12)

    def test_workers_do_not_change_results(self):
        one = run_cli("noise-sweep", "--noise-fraction", "0,0.2", "--runs", 4,
                      "--seed", 5, "--workers", 1)
        four = run_cli("noise-sweep", "--noise-fraction", "0,0.2", "--runs", 4,
                       "--seed", 5, "--workers", 4)
        assert one.stdout == four.stdout

    def test_noise_sweep_full_basis_is_accepted(self):
        result = run_cli("noise-sweep", "--runs", 1, "--noise-fraction", 0, "--m", 200)
        assert result.returncode == 0
        assert fileio.parse_metrics(result.stdout)["m"] == 200


class TestRefineBow:
    def test_refines_and_reports(self, tmp_path):
        visual, textual = write_corpus(tmp_path)
        out = tmp_path / "out"
        result = run_cli(
            "refine-bow", "--input", visual, textual, "--output", out,
            "--k", 29, "--m", 4, "--lambda", 0.01, "--gamma", 0.075,
        )
        assert result.returncode == 0, result.stderr
        refined = fileio.read_bow(out / "refined_visual.txt")
        original = fileio.read_bow(visual)
        metrics = fileio.parse_metrics((out / "metrics.txt").read_text())
        assert metrics["visual.changed_entries"] > 0
        assert metrics["visual.changed_entries"] == int(np.count_nonzero(refined != original))

    def test_unregularized_round_trips_input_bits(self, tmp_path):
        visual, textual = write_corpus(tmp_path, seed=1)
        out = tmp_path / "out"
        result = run_cli(
            "refine-bow", "--input", visual, textual, "--output", out,
            "--k", 29, "--m", 60, "--lambda", 0, "--gamma", 0,
        )
        assert result.returncode == 0, result.stderr
        assert (out / "refined_visual.txt").read_bytes() == visual.read_bytes()
        assert (out / "refined_textual.txt").read_bytes() == textual.read_bytes()

    def test_noise_free_input_unchanged_under_large_gamma(self, tmp_path):
        clean, _, _, other = two_block_corpus(seed=2)
        visual = tmp_path / "clean.txt"
        textual = tmp_path / "textual.txt"
        write_bow(visual, clean)
        write_bow(textual, other)
        out = tmp_path / "out"
        result = run_cli(
            "refine-bow", "--input", visual, textual, "--output", out,
            "--k", 29, "--m", 4, "--lambda", 0.01, "--gamma", 0.075,
        )
        assert result.returncode == 0, result.stderr
        metrics = fileio.parse_metrics((out / "metrics.txt").read_text())
        assert metrics["visual.changed_entries"] == 0


class TestEigenDump:
    def test_two_node_eigenvalues(self, tmp_path):
        features = tmp_path / "f.csv"
        features.write_text("0,0\n1,0\n")
        result = run_cli("eigen-dump", "--input", features, "--k", 1, "--m", 2,
                         "--sigma", 1.0)
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "2 2"
        values = [float(v) for v in lines[1].split()]
        assert values == pytest.approx([0.0, 2.0], abs=1e-10)

    def test_connected_graph_null_eigenvalue(self, tmp_path):
        features, _, _, _ = write_blob_dataset(tmp_path, n=30, classes=1)
        result = run_cli("eigen-dump", "--input", features, "--k", 5, "--m", 3,
                         "--sigma", 0.5)
        assert result.returncode == 0
        first = float(result.stdout.splitlines()[1].split()[0])
        assert abs(first) < 1e-8

    def test_matches_json_rendering_on_lanczos_path(self, tmp_path):
        # Three components of more than DENSE_EIGEN_CUTOFF points each, so
        # eigen-dump takes the Lanczos path.
        x, _ = gaussian_blobs(1800, classes=3, seed=0)
        features = tmp_path / "f.csv"
        features.write_text("".join(f"{a!r},{b!r}\n" for a, b in x.tolist()))
        out = tmp_path / "out"
        assert cli.main(["eigen-dump", "--input", str(features), "--k", "10", "--m", "5",
                         "--sigma", "1.0", "--seed", "4", "--output", str(out)]) == 0
        lap = normalized_laplacian(gaussian_knn_graph(fileio.read_features(features),
                                                      sigma=1.0, k=10))
        basis = build_basis(lap, 5, seed=child_seed(4, _STREAM_EIGEN))
        lines = ["1800 5", " ".join(json.dumps(float(v)) for v in basis.eigenvalues)]
        lines += [" ".join(json.dumps(float(v)) for v in row) for row in basis.vectors]
        assert (out / "eigen.txt").read_text() == "\n".join(lines) + "\n"

    def test_writes_the_basis_that_classify_fits(self, tmp_path, monkeypatch):
        # On the Lanczos path the eigenvectors depend on the eigensolver's
        # seed, and both commands derive it from --seed by one rule.
        features, labels, _, _ = write_blob_dataset(tmp_path, n=1800, labeled_per_class=5)
        bases = []

        def spy(*args, **kwargs):
            bases.append(build_basis(*args, **kwargs))
            return bases[-1]

        monkeypatch.setattr(harness, "build_basis", spy)
        flags = ["--k", "10", "--seed", "4", "--input", str(features)]
        assert cli.main(["classify", *flags, "--labels", str(labels),
                         "--output", str(tmp_path / "classify")]) == 0
        assert len(bases) == 1
        assert cli.main(["eigen-dump", *flags, "--output", str(tmp_path / "dump")]) == 0
        lines = (tmp_path / "dump" / "eigen.txt").read_text().splitlines()
        assert [float(v) for v in lines[1].split()] == bases[0].eigenvalues.tolist()
        assert [[float(v) for v in line.split()] for line in lines[2:]] == \
            bases[0].vectors.tolist()


class TestComponents:
    """Three blobs of 600 points, each a component solved by Lanczos."""

    def test_classify_predictions_do_not_depend_on_the_seed(self, tmp_path):
        # Each class's labels lie in one component, so every score off that
        # component is exactly 0. Solved whole, seeds 2 and 3 changed 114 and
        # 124 of the 1800 labels against seed 1; those labels rested on
        # rounding noise.
        features, labels, _, _ = write_blob_dataset(tmp_path, n=1800, labeled_per_class=5)
        predictions = set()
        for seed in ("1", "2", "3"):
            out = tmp_path / f"out-{seed}"
            assert cli.main(["classify", "--preset", "mnist-style", "--k", "10", "--seed", seed,
                             "--input", str(features), "--labels", str(labels),
                             "--output", str(out)]) == 0
            predictions.add((out / "predictions.txt").read_bytes())
        assert len(predictions) == 1


class TestAtomicOutput:
    def test_success_leaves_only_the_named_files(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["moons-demo", "--runs", "1", "--output", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["metrics.txt", "moons_points.txt"]


class TestStreamedBowOutput:
    def test_importing_the_cli_does_not_import_multiprocessing(self):
        # Nor does a sweep on two forked workers: fork_map calls os.fork
        # itself. concurrent.futures may be loaded by the import already
        # (numpy.testing, which some scipy releases import, loads it), so
        # the sweep is checked for the modules of either that it adds. Only
        # a graph maps scipy.sparse.csgraph, which the import leaves out.
        script = ("import sys\n"
                  "from graphssl import cli\n"
                  "imported = set(sys.modules)\n"
                  "code = cli.main(['noise-sweep', '--runs', '2', '--workers', '2'])\n"
                  "added = [name for name in set(sys.modules) - imported\n"
                  "         if name.partition('.')[0] in ('multiprocessing', 'concurrent')]\n"
                  "print(code, 'multiprocessing' in imported, 'scipy.sparse.csgraph' in imported,\n"
                  "      sorted(added), file=sys.stderr)\n")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stderr.strip() == "0 False False []"
        assert "l1_mean" in result.stdout


class TestRowBlockOutput:
    """refine-bow rebuilds the refined rows block by block where it formats them.

    Its files must equal bow_chunks of bow.refine's whole matrices. The
    202-document corpus ends off a 64-row window, and blocks of 1 and 7
    rows start off one.
    """

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("corpus")
        _, corrupted, _, other = two_block_corpus(n=202, jitter=0.5, seed=5)
        write_bow(directory / "visual.txt", corrupted)
        write_bow(directory / "textual.txt", other)
        return directory

    def run(self, corpus, out, *flags):
        return cli.main(["refine-bow", "--input", str(corpus / "visual.txt"),
                         str(corpus / "textual.txt"), "--output", str(out), "--seed", "3", *flags])

    @pytest.mark.parametrize("block_rows", [1, 7, 16, 256, 10_000])
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("given, flags", [({}, []), ({"lam": 0.0}, ["--lambda", "0"]),
                                              ({"gamma": 0.0}, ["--gamma", "0"])],
                             ids=["presets", "lambda 0", "gamma 0"])
    def test_files_equal_bow_chunks_of_refine(self, corpus, tmp_path, monkeypatch, block_rows,
                                              cpus, given, flags):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(fileio, "FORMAT_BLOCK_ROWS", block_rows)
        out = tmp_path / "out"
        assert self.run(corpus, out, *flags) == 0
        visual = fileio.read_bow(corpus / "visual.txt")
        textual = fileio.read_bow(corpus / "textual.txt")
        expected = {"schema": cli.SCHEMA_VERSION, "command": "refine-bow", "seed": 3,
                    "documents": 202}
        halves = (("visual", visual, textual), ("textual", textual, visual))
        for (prefix, y, other), preset in zip(halves, (bow.TABLE2_VISUAL, bow.TABLE2_TEXTUAL)):
            cfg = dataclasses.replace(preset, **given)
            refined, reports = refine(y, other, cfg, seed=3)
            assert ((out / f"refined_{prefix}.txt").read_bytes()
                    == b"".join(fileio.bow_chunks(refined)))
            expected.update({f"{prefix}.lam": cfg.lam, f"{prefix}.gamma": cfg.gamma,
                             f"{prefix}.k": cfg.k, f"{prefix}.m": cfg.m,
                             f"{prefix}.changed_entries": int(np.count_nonzero(refined != y)),
                             f"{prefix}.total_objective": reports.total_objective,
                             f"{prefix}.max_kkt_residual": reports.max_kkt_residual})
        assert (out / "metrics.txt").read_text() == fileio.render_metrics(expected.items())

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_non_finite_row_in_a_later_block_fails_before_any_file(
            self, corpus, tmp_path, monkeypatch, capsys, cpus):
        # A NaN smoothed entry in visual row 150, in the tenth 16-row block,
        # makes that refined entry NaN; forked workers inherit the patch.
        expand_rows = spectral.SpectralBasis.expand_rows

        def poisoned(basis, alpha, start, stop):
            rows = expand_rows(basis, alpha, start, stop)
            if start <= 150 < stop and alpha.shape[1] == 40:
                rows[150 - start, 3] = np.nan
            return rows

        monkeypatch.setattr(spectral.SpectralBasis, "expand_rows", poisoned)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(fileio, "FORMAT_BLOCK_ROWS", 16)
        out = tmp_path / "out"
        assert self.run(corpus, out) == 1
        assert capsys.readouterr().err == "error: matrix entries must be finite\n"
        assert not out.exists()

    def test_both_files_are_formatted_on_one_pool(self, corpus, tmp_path, monkeypatch):
        # Three pools start in this process, two workers each: the reads, the
        # refinements and the output; the eigensolves run inside the
        # refinement workers. A pool per output file, of one block each,
        # would fork no worker.
        forks = []
        fork = os.fork

        def counting():
            pid = fork()
            forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        assert self.run(corpus, tmp_path / "out") == 0
        assert len(forks) == 6


class TestDeterminism:
    def test_seed_changes_output(self):
        a = run_cli("moons-demo", "--runs", 3, "--seed", 9)
        b = run_cli("moons-demo", "--runs", 3, "--seed", 10)
        assert a.stdout != b.stdout


REFINE_ARGS = ("--k", "29", "--m", "4", "--lambda", "0.01", "--gamma", "0.075", "--seed", "2")


def logging_set_calls(log):
    """A stand-in for parallel._openblas_controls whose set calls append to log.

    The log is a file, so set calls in forked workers are counted too.
    """
    controls = parallel._openblas_controls

    def logged(set_):
        def set_and_log(count):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {count}\n")
            set_(count)
        return set_and_log

    return lambda: [(get, logged(set_)) for get, set_ in controls()]


class TestBlasPinOutlivesTheCommand:
    """cli.main leaves every OpenBLAS library on one thread.

    OpenBLAS stops its server threads on a fork, and its next set call
    starts them again, even to the count it already has. So after the first
    command neither cli.main nor a fork_map pin, in the parent or in a
    worker, may call set.
    """

    @pytest.mark.skipif(not parallel._openblas_controls(),
                        reason="no OpenBLAS library is mapped")
    @pytest.mark.parametrize("command", ["noise-sweep", "refine-bow"])
    def test_a_second_command_makes_no_set_call(self, tmp_path, monkeypatch, command):
        if command == "noise-sweep":
            argv = ["noise-sweep", "--runs", "2", "--workers", "2", "--noise-fraction", "0"]
        else:
            visual, textual = write_corpus(tmp_path, seed=3)
            argv = ["refine-bow", "--input", str(visual), str(textual), *REFINE_ARGS]
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        controls = parallel._openblas_controls()
        before = [get() for get, _ in controls]
        try:
            for _, set_ in controls:
                set_(2)
            assert cli.main(argv + ["--output", str(tmp_path / "first")]) == 0
            assert [get() for get, _ in controls] == [1] * len(controls)
            log = tmp_path / "set-calls.log"
            monkeypatch.setattr(parallel, "_openblas_controls", logging_set_calls(log))
            assert cli.main(argv + ["--output", str(tmp_path / "second")]) == 0
            assert not log.exists()
        finally:
            for (_, set_), count in zip(controls, before):
                set_(count)


# Flags that a command does not read, each with a value that is valid where
# the flag is read.
UNREAD_FLAGS = [
    ("moons-demo", "--workers", "2"),
    ("moons-demo", "--gamma", "0.1"),
    ("classify", "--workers", "2"),
    ("classify", "--gamma", "0.1"),
    ("classify", "--noise-fraction", "0.1"),
    ("classify", "--labels-per-class", "2"),
    ("classify", "--runs", "2"),
    ("moons-demo", "--preset", "mnist-style"),
    ("noise-sweep", "--gamma", "0.1"),
    ("noise-sweep", "--preset", "mnist-style"),
    ("refine-bow", "--workers", "2"),
    ("refine-bow", "--sigma", "1.0"),
    ("refine-bow", "--noise-fraction", "0.1"),
    ("refine-bow", "--labels-per-class", "2"),
    ("refine-bow", "--runs", "2"),
    ("eigen-dump", "--workers", "2"),
    ("eigen-dump", "--gamma", "0.1"),
    ("eigen-dump", "--lambda", "0.1"),
    ("eigen-dump", "--noise-fraction", "0.1"),
    ("eigen-dump", "--labels-per-class", "2"),
    ("eigen-dump", "--runs", "2"),
]
# A preset the command does not offer is an invalid choice where the command
# takes --preset, and an unrecognized argument where it takes none.
UNREAD_PRESETS = [
    pytest.param(command, preset, error, id=f"{command}-{preset}")
    for command, error in (("moons-demo", "unrecognized arguments"),
                           ("classify", "invalid choice"),
                           ("noise-sweep", "unrecognized arguments"),
                           ("eigen-dump", "invalid choice"),
                           ("refine-bow", "unrecognized arguments"))
    for preset in ("table2-visual", "table2-textual")
] + [pytest.param("refine-bow", "mnist-style", "unrecognized arguments",
                  id="refine-bow-mnist-style")]


@pytest.fixture
def valid_argv(tmp_path):
    """A small invocation of each command that runs to completion."""
    features, labels, _, _ = write_blob_dataset(tmp_path)
    visual, textual = write_corpus(tmp_path)
    return {
        "moons-demo": ["moons-demo", "--runs", "1"],
        "classify": ["classify", "--input", str(features), "--labels", str(labels),
                     "--k", "6", "--m", "10"],
        "noise-sweep": ["noise-sweep", "--noise-fraction", "0", "--runs", "1"],
        "refine-bow": ["refine-bow", "--input", str(visual), str(textual),
                       "--k", "29", "--m", "4"],
        "eigen-dump": ["eigen-dump", "--input", str(features), "--k", "6", "--m", "10"],
    }


@pytest.mark.parametrize("command, flags, fits", [
    ("moons-demo", [], 1),
    ("classify", [], 1),
    ("noise-sweep", ["--runs", "3"], 3),
    ("refine-bow", [], 2),
    ("refine-bow", ["--lambda", "0"], 0),
], ids=["moons-demo", "classify", "noise-sweep", "refine-bow", "refine-bow-lambda-0"])
def test_every_l1_fit_is_a_checked_l1_fit(valid_argv, tmp_path, monkeypatch,
                                           command, flags, fits):
    # One CPU keeps every fit in this process, where the spy counts it.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    calls = []
    original = solver.l1_fit
    monkeypatch.setattr(solver, "l1_fit", lambda *args: calls.append(args) or original(*args))
    assert cli.main(valid_argv[command] + flags + ["--output", str(tmp_path / "out")]) == 0
    assert len(calls) == fits


class TestParserContract:
    def test_valid_argv_succeeds(self, valid_argv, tmp_path):
        for command, argv in valid_argv.items():
            assert cli.main(argv + ["--output", str(tmp_path / command)]) == 0

    @pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS)
    def test_unread_flag_is_usage_error(self, valid_argv, tmp_path, capsys,
                                        command, flag, value):
        out = tmp_path / "out"
        assert cli.main(valid_argv[command] + [flag, value, "--output", str(out)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, preset, error", UNREAD_PRESETS)
    def test_unread_preset_is_usage_error(self, valid_argv, tmp_path, capsys,
                                          command, preset, error):
        out = tmp_path / "out"
        assert cli.main(valid_argv[command] + ["--preset", preset, "--output", str(out)]) == 1
        assert error in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["moons-demo", "--k", "0"], "--k"),
        (["noise-sweep", "--sigma", "0"], "--sigma"),
        (["moons-demo", "--lambda", "-1"], "--lambda"),
        (["refine-bow", "--input", "v.txt", "t.txt", "--gamma", "-1"], "--gamma"),
        (["eigen-dump", "--input", "f.csv", "--m", "0"], "--m"),
        (["moons-demo", "--runs", "0"], "--runs"),
        (["moons-demo", "--labels-per-class", "0"], "--labels-per-class"),
        (["moons-demo", "--labels-per-class", "-1"], "--labels-per-class"),
        (["noise-sweep", "--labels-per-class", "0"], "--labels-per-class"),
        (["noise-sweep", "--workers", "0"], "--workers"),
        (["moons-demo", "--noise-fraction", "1.5"], "--noise-fraction"),
        (["noise-sweep", "--noise-fraction", "0,1.5"], "--noise-fraction"),
        (["noise-sweep", "--noise-fraction", ","], "--noise-fraction"),
        (["noise-sweep", "--runs", "1", "--sigma", "inf"], "--sigma"),
        (["noise-sweep", "--runs", "1", "--lambda", "inf"], "--lambda"),
        (["refine-bow", "--input", "v.txt", "t.txt", "--gamma", "inf"], "--gamma"),
    ])
    def test_out_of_range_value_is_rejected_while_parsing(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        assert cli.main(argv + ["--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: argument {flag}: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["moons-demo", "--run", "1", "--lab", "3"],
        ["moons-demo", "--runs", "1", "--noise", "0"],
        ["noise-sweep", "--runs", "1", "--noise-fraction", "0", "--work", "2"],
        ["noise-sweep", "--runs", "1", "--noise-fraction", "0", "--lam", "1"],
        ["moons-demo", "--runs", "1", "--se", "3"],
    ])
    def test_abbreviated_flag_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli.main(argv + ["--output", str(out)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_with_equals_sign_still_parses(self):
        args = cli.build_parser().parse_args(["moons-demo", "--runs=3", "--output=out"])
        assert (args.runs, args.output) == (3, "out")

    def test_benchmark_argv_parses(self):
        parser = cli.build_parser()
        args = parser.parse_args(["classify", "--preset", "mnist-style", "--k", "10",
                                  "--input", "f.csv", "--labels", "l.csv", "--truth", "t.txt",
                                  "--seed", "7", "--output", "out"])
        assert (args.preset, args.k, args.truth, args.seed) == ("mnist-style", 10, "t.txt", 7)
        args = parser.parse_args(["refine-bow", "--input", "v.txt", "t.txt", "--seed", "7",
                                  "--output", "out"])
        assert (args.input, args.seed) == (["v.txt", "t.txt"], 7)
        args = parser.parse_args(["noise-sweep", "--workers", "2", "--seed", "7",
                                  "--output", "out"])
        assert (args.workers, args.noise_fraction, args.runs) == (2, (0.0, 0.1, 0.2, 0.3, 0.4), 25)

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_help(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--help"])
        assert exit_info.value.code == 0
        assert f"usage: graphssl {command}" in capsys.readouterr().out
