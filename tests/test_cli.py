import errno
import json
import subprocess
import sys

import numpy as np
import pytest

from graphssl import bow, cli, fileio, harness
from graphssl.bow import RefineConfig, co_refine
from graphssl.cli import MOONS_DEMO_KEYS
from graphssl.datasets import gaussian_blobs, two_block_corpus
from graphssl.graph import GraphConfig, gaussian_knn_graph, normalized_laplacian
from graphssl.harness import confidence_halfwidth
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


def write_corpus(tmp_path, seed=0):
    _, corrupted, _, other = two_block_corpus(seed=seed)
    visual = tmp_path / "visual.txt"
    textual = tmp_path / "textual.txt"
    fileio.write_bow(visual, corrupted)
    fileio.write_bow(textual, other)
    return visual, textual


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

    def test_malformed_feature_row_is_usage_error(self, tmp_path):
        features = tmp_path / "f.csv"
        features.write_text("1,2\nbad,row\n")
        labels = tmp_path / "l.csv"
        labels.write_text("0,0\n")
        result = run_cli("classify", "--input", features, "--labels", labels,
                         "--output", tmp_path / "out")
        assert result.returncode == 1
        assert "line 2" in result.stderr
        assert not (tmp_path / "out").exists()


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
        result = run_cli("noise-sweep", "--noise-fraction", "0.2", "--runs", 4, "--seed", 8)
        parsed = fileio.parse_metrics(result.stdout)
        accs = parsed["l1_accuracies.0"]
        expected = 1.96 * np.std(accs, ddof=1) / np.sqrt(len(accs))
        assert parsed["l1_ci95"][0] == pytest.approx(expected, abs=1e-12)

    def test_workers_do_not_change_results(self):
        one = run_cli("noise-sweep", "--noise-fraction", "0,0.2", "--runs", 4,
                      "--seed", 5, "--workers", 1)
        four = run_cli("noise-sweep", "--noise-fraction", "0,0.2", "--runs", 4,
                       "--seed", 5, "--workers", 4)
        assert one.stdout == four.stdout


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

    def test_refined_files_equal_write_bow_of_refined_matrices(self, tmp_path):
        visual, textual = write_corpus(tmp_path, seed=3)
        out = tmp_path / "out"
        result = run_cli(
            "refine-bow", "--input", visual, textual, "--output", out,
            "--k", 29, "--m", 4, "--lambda", 0.01, "--gamma", 0.075, "--seed", 2,
        )
        assert result.returncode == 0, result.stderr
        cfg = RefineConfig(lam=0.01, gamma=0.075, k=29, m=4)
        (ref_v, _), (ref_t, _) = co_refine(fileio.read_bow(visual), fileio.read_bow(textual),
                                           cfg, cfg, seed=2)
        for name, matrix in (("refined_visual.txt", ref_v), ("refined_textual.txt", ref_t)):
            expected = tmp_path / f"expected_{name}"
            fileio.write_bow(expected, matrix)
            assert (out / name).read_bytes() == expected.read_bytes()

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
        fileio.write_bow(visual, clean)
        fileio.write_bow(textual, other)
        out = tmp_path / "out"
        result = run_cli(
            "refine-bow", "--input", visual, textual, "--output", out,
            "--k", 29, "--m", 4, "--lambda", 0.01, "--gamma", 0.075,
        )
        assert result.returncode == 0, result.stderr
        metrics = fileio.parse_metrics((out / "metrics.txt").read_text())
        assert metrics["visual.changed_entries"] == 0

    def test_mismatched_documents_is_config_error(self, tmp_path):
        visual, _ = write_corpus(tmp_path)
        small = tmp_path / "small.txt"
        fileio.write_bow(small, np.ones((4, 3)))
        result = run_cli("refine-bow", "--input", visual, small,
                         "--output", tmp_path / "out")
        assert result.returncode == 1
        assert "differ" in result.stderr


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

    def test_m_larger_than_n_is_config_error(self, tmp_path):
        features = tmp_path / "f.csv"
        features.write_text("0,0\n1,0\n2,0\n")
        result = run_cli("eigen-dump", "--input", features, "--m", 5, "--k", 1)
        assert result.returncode == 1
        assert "exceeds" in result.stderr

    def test_matches_json_rendering_on_lanczos_path(self, tmp_path):
        # More points than DENSE_EIGEN_CUTOFF, so eigen-dump takes the Lanczos path.
        x, _ = gaussian_blobs(600, classes=3, seed=0)
        features = tmp_path / "f.csv"
        features.write_text("".join(f"{a!r},{b!r}\n" for a, b in x.tolist()))
        out = tmp_path / "out"
        assert cli.main(["eigen-dump", "--input", str(features), "--k", "10", "--m", "5",
                         "--sigma", "1.0", "--seed", "4", "--output", str(out)]) == 0
        lap = normalized_laplacian(gaussian_knn_graph(fileio.read_features(features),
                                                      GraphConfig(sigma=1.0, k=10)))
        basis = build_basis(lap, 5, seed=4)
        lines = ["600 5", " ".join(json.dumps(float(v)) for v in basis.eigenvalues)]
        lines += [" ".join(json.dumps(float(v)) for v in row) for row in basis.vectors]
        assert (out / "eigen.txt").read_text() == "\n".join(lines) + "\n"


def fail_if_called(*args, **kwargs):
    pytest.fail("the command ran its computation before checking --output")


class TestOutputRequiredUpFront:
    def test_classify_without_output_does_no_work(self, tmp_path, monkeypatch, capsys):
        features, labels, _, _ = write_blob_dataset(tmp_path)
        monkeypatch.setattr(harness, "l1_classify", fail_if_called)
        assert cli.main(["classify", "--input", str(features), "--labels", str(labels)]) == 1
        assert "pass --output DIR" in capsys.readouterr().err

    def test_refine_bow_without_output_does_no_work(self, tmp_path, monkeypatch, capsys):
        visual, textual = write_corpus(tmp_path)
        monkeypatch.setattr(bow, "co_refine", fail_if_called)
        assert cli.main(["refine-bow", "--input", str(visual), str(textual)]) == 1
        assert "pass --output DIR" in capsys.readouterr().err


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        result = run_cli()
        assert result.returncode == 1

    def test_unknown_flag_is_usage_error(self):
        result = run_cli("moons-demo", "--does-not-exist")
        assert result.returncode == 1

    def test_missing_required_input(self):
        result = run_cli("classify")
        assert result.returncode == 1

    def test_missing_file_is_usage_error(self, tmp_path):
        result = run_cli("classify", "--input", tmp_path / "absent.csv",
                         "--labels", tmp_path / "absent.csv",
                         "--output", tmp_path / "out")
        assert result.returncode == 1

    def test_numerical_failure_exits_two(self, tmp_path):
        # A point so remote that its kernel weights underflow to zero becomes
        # an isolated vertex, which is a computation-time failure.
        features = tmp_path / "f.csv"
        rows = [f"{v},0\n" for v in np.linspace(0, 1, 8)] + ["1e6,0\n"]
        features.write_text("".join(rows))
        labels = tmp_path / "l.csv"
        labels.write_text("0,0\n8,1\n")
        result = run_cli("classify", "--input", features, "--labels", labels,
                         "--output", tmp_path / "out", "--k", 2, "--m", 3,
                         "--sigma", 0.5)
        assert result.returncode == 2
        assert "isolated" in result.stderr
        assert not (tmp_path / "out").exists()


class TestAtomicOutput:
    def test_failed_second_write_leaves_no_files(self, tmp_path, monkeypatch, capsys):
        real_open = open
        opened = []

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        def flaky_open(path, *args, **kwargs):
            opened.append(path)
            fh = real_open(path, *args, **kwargs)
            return FullDisk(fh) if len(opened) == 2 else fh

        monkeypatch.setattr(cli, "open", flaky_open, raising=False)
        out = tmp_path / "out"
        assert cli.main(["moons-demo", "--runs", "1", "--output", str(out)]) == 1
        assert len(opened) == 2
        assert list(out.iterdir()) == []
        assert "No space left on device" in capsys.readouterr().err

    def test_success_leaves_only_the_named_files(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["moons-demo", "--runs", "1", "--output", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["metrics.txt", "moons_points.txt"]


class TestDeterminism:
    def test_moons_demo_byte_identical(self):
        a = run_cli("moons-demo", "--runs", 3, "--seed", 9)
        b = run_cli("moons-demo", "--runs", 3, "--seed", 9)
        assert a.stdout == b.stdout and a.stdout

    def test_seed_changes_output(self):
        a = run_cli("moons-demo", "--runs", 3, "--seed", 9)
        b = run_cli("moons-demo", "--runs", 3, "--seed", 10)
        assert a.stdout != b.stdout
