"""Tests of the benchmark itself: tracer hygiene, traced outputs, metric coverage."""

import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import graphssl.cli
import graphssl.solver
import layers
import run
import tracer
import workloads
from graphssl.datasets import gaussian_blobs, two_block_corpus

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


@pytest.fixture
def workdir(request):
    path = os.path.join(run.RUNS, f"test-{os.getpid()}-{request.node.name}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def small_commands(workdir):
    """One small command per workload; classify at n=600 takes the Lanczos path."""
    x, truth = gaussian_blobs(600, classes=3, seed=4)
    features = os.path.join(workdir, "features.csv")
    labels = os.path.join(workdir, "labels.csv")
    workloads.write_features(features, x)
    with open(labels, "w", encoding="utf-8") as fh:
        for cls in range(3):
            fh.writelines(f"{i},{cls}\n" for i in np.flatnonzero(truth == cls)[:4])
    _, corrupted, _, other = two_block_corpus(n=200, vocab=20, other_vocab=10,
                                              jitter=0.5, seed=2)
    visual = os.path.join(workdir, "visual.txt")
    textual = os.path.join(workdir, "textual.txt")
    workloads.write_triplets(visual, corrupted)
    workloads.write_triplets(textual, other)
    return {
        "classify": ["classify", "--k", "10", "--m", "8", "--input", features,
                     "--labels", labels],
        "refine": ["refine-bow", "--input", visual, textual],
        "sweep": ["noise-sweep", "--runs", "2", "--noise-fraction", "0,0.2",
                  "--workers", "2"],
        "sweep-serial": ["noise-sweep", "--runs", "2", "--noise-fraction", "0,0.2"],
    }


def invoke(argv, outdir, trace=None, invocation=0):
    """Run the CLI once, optionally traced; returns (wall, {file: digest})."""
    start = time.perf_counter()
    if trace is None:
        code = graphssl.cli.main(argv + ["--output", outdir])
    else:
        with trace.installed(invocation):
            code = graphssl.cli.main(argv + ["--output", outdir])
    wall = time.perf_counter() - start
    assert code == 0
    digests = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    shutil.rmtree(outdir)
    return wall, digests


def _current(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def test_uninstall_restores_every_patched_name():
    trace = tracer.Tracer()
    bindings = trace.bindings()
    markers = [(importlib.import_module(m), a) for m, a, _ in tracer.MARKERS]
    marker_originals = [getattr(module, attr) for module, attr in markers]
    owners = {key for owner, key, _ in bindings if isinstance(owner, dict)}
    assert {"classify", "refine-bow", "noise-sweep"} <= owners  # the CLI command table
    assert any(key == "ThreadPoolExecutor" for _, key, _ in bindings)

    with trace.installed(0):
        assert all(_current(owner, key) is not original for owner, key, original in bindings)
        assert all(getattr(m, a) is not o
                   for (m, a), o in zip(markers, marker_originals))
    assert all(_current(owner, key) is original for owner, key, original in bindings)
    assert all(getattr(m, a) is o for (m, a), o in zip(markers, marker_originals))

    with pytest.raises(RuntimeError):
        with trace.installed(1):
            raise RuntimeError("invocation failed")
    assert all(_current(owner, key) is original for owner, key, original in bindings)


def test_traced_outputs_are_byte_identical(workdir):
    trace = tracer.Tracer()
    for index, argv in enumerate(small_commands(workdir).values()):
        outdir = os.path.join(workdir, "out")
        _, plain = invoke(argv, outdir)
        _, traced = invoke(argv, outdir, trace, index)
        assert traced == plain, argv[0]
        assert trace.spans_of(index)


@pytest.mark.parametrize("command", ["classify", "refine", "sweep-serial"])
def test_self_times_sum_to_at_most_wall_time(workdir, command):
    trace = tracer.Tracer()
    wall, _ = invoke(small_commands(workdir)[command], os.path.join(workdir, "out"), trace)
    spans = trace.spans_of(0)
    own = tracer.self_times(spans)
    assert all(value >= -1e-9 for value in own.values())
    assert sum(own.values()) <= wall


def test_self_time_subtracts_union_of_overlapping_children():
    def span(span_id, parent, start, end):
        s = tracer.Span(span_id, "harness.x", parent, 0)
        s.start, s.end = start, end
        return s

    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 5.0), span(2, 0, 3.0, 7.0),
             span(3, 0, 9.0, 12.0)]
    own = tracer.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own[1] == pytest.approx(4.0)


def test_every_layer_metric_is_computed_on_its_workload(workdir):
    trace = tracer.Tracer()
    assert layers.absent_reasons(trace) == {}
    values = {}
    for index, (name, argv) in enumerate(small_commands(workdir).items()):
        invoke(argv, os.path.join(workdir, "out"), trace, index)
        values[name] = layers.invocation_metrics(trace.spans_of(index))
        assert set(values[name]) == set(layers.UNITS) - {"cli.write_bytes"} - {
            name for name, _ in layers.OVERHEAD}

    classify, refine, sweep = values["classify"], values["refine"], values["sweep"]
    assert classify["linalg.eigensolves.lanczos"] == 1 and classify["linalg.eigsh_s"] > 0
    assert classify["fileio.read_bytes"] > 0 and classify["graph.knn_graph_s"] > 0
    assert classify["graph.components"] == 3
    assert classify["graph.unlabeled_components"] == 0
    assert refine["graph.linear_kernel_bytes"] == 2 * 200 * 200 * 8
    assert refine["graph.knn_sparsify_s"] > 0 and refine["solver.fista_calls"] == 30
    assert 0 < refine["bow.restored_share"] < 1
    assert sweep["linalg.eigensolves.dense"] == 4 and sweep["harness.cells"] == 4
    assert sweep["linalg.cg_iterations"] > 0 and sweep["fileio.read_s"] == 0
    assert 0 < sweep["harness.parallel_efficiency"] <= 1.0 + 1e-9


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(graphssl.solver, "fista_weighted_l1")
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + ("nosuchlayer",))
    trace = tracer.Tracer()
    assert "nosuchlayer" in trace.missing
    reasons = layers.absent_reasons(trace)
    for name in ("solver.fista_s", "solver.fista_calls", "solver.fista_iterations"):
        assert "fista_weighted_l1 not found" in reasons[name]
    assert "linalg.eigsh_s" not in reasons


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(200))) == {"value": 189, "percentile": 95.0, "beyond": 10}
    assert run.tail(list(range(100)))["value"] == 89
    # Fewer samples would put that percentile below p90: the maximum instead.
    assert run.tail(list(range(99))) == {"value": 98, "percentile": 100.0, "beyond": 0}
    assert run.tail([3.0, 1.0, 2.0]) == {"value": 3.0, "percentile": 100.0, "beyond": 0}


def test_triplet_writer_round_trips():
    matrix = np.array([[0.0, 1.25], [1e-13, 0.1]])
    path = os.path.join(run.RUNS, f"triplets-{os.getpid()}.txt")
    os.makedirs(run.RUNS, exist_ok=True)
    try:
        workloads.write_triplets(path, matrix)
        np.testing.assert_array_equal(workloads.read_triplets(path),
                                      [[0.0, 1.25], [0.0, 0.1]])
    finally:
        os.remove(path)


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_match_emitted_metrics():
    spec = _bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


@pytest.mark.parametrize("trace_flag", [0, 1])
def test_run_prints_every_metric(trace_flag):
    spec = _bench_json()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "noise-sweep", "--seed", "3",
         "--seconds", "1", "--trace", str(trace_flag)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in spec["per_layer" if trace_flag else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    if not trace_flag:
        assert all(result["metrics"][name]["value"] > 0 for name in names)


def test_run_fails_outside_a_checkout(workdir):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    shutil.copytree(BENCH, os.path.join(workdir, "perfbench"),
                    ignore=shutil.ignore_patterns(".runs", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "noise-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


class TinySweep(workloads.NoiseSweep):
    def prepare(self, seed, workdir):
        argv = ["noise-sweep", "--runs", "2", "--noise-fraction", "0,0.2", "--seed", str(seed)]
        return [workloads.Instance("sweep", argv, {}, ())]


def test_outputs_that_change_fail_the_check_and_count_in_ok_ratio(workdir):
    bench = run.Bench(TinySweep(), 0, 0.5, 0, workdir)
    instances, warmups, peak_rss_mb = bench.run(time.monotonic() + 60)
    assert warmups == 1 and len(bench.records) > 1
    assert not any("failed" in r for r in bench.records)
    instances[0].argv[-1] = "1"  # another seed changes metrics.txt
    record = bench.invoke(instances[0], traced=False)
    assert "outputs differ from the first invocation" in record["failed"]
    values, _ = run.end_to_end(bench, bench.records[warmups:], [0.5], peak_rss_mb)
    assert values["ok_ratio"] == 1.0 - 1.0 / len(bench.records)
