"""Benchmark of the graphssl command line: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a repository checkout; it imports the program from
src/. One process makes the workload's inputs from --seed, calls
graphssl.cli.main once per input set to warm up (traced, untimed; its outputs
are the reference), then calls it again and again, one invocation at a time,
for S seconds. Every invocation's outputs are checked.

With --trace 0 the last line of standard output reports the end-to-end
metrics of the untraced invocations; with --trace 1 traced and untraced
invocations alternate and it reports the per-layer metrics of the traced
ones. The line before it is a JSON record with the machine, the input sizes,
sample counts and every failure. Spans of a traced run are written to
perfbench/.runs/spans-<workload>.jsonl. Exit codes: 0 outputs correct,
1 an invocation failed its checks, 2 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from workloads import WORKLOADS, CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, ".runs")

WORKLOAD_NAMES = ("classify-blobs", "refine-bow", "noise-sweep")
# Fresh interpreters timed per run for setup_s; one more runs first, untimed,
# so bytecode caches exist.
SETUP_REPEATS = 5
# Stop starting invocations after this long, so a run ends within 180 s.
HARD_STOP_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s", "wall_s.tail": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_ratio": "ratio", "accuracy": "ratio",
}

SETUP_CODE = "import graphssl.cli, time; print(repr(time.monotonic()))"


class SetupFailed(Exception):
    pass


def measure_setup(repeats):
    """Seconds from starting a fresh interpreter until graphssl.cli is imported.

    CLOCK_MONOTONIC is shared by all processes, so the child's reading after
    the import minus the parent's reading before the start is that interval.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    samples = []
    for attempt in range(repeats + 1):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise SetupFailed(f"importing graphssl.cli failed:\n{proc.stderr}")
        if attempt:
            samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def tail(samples):
    """Highest percentile with at least ten samples above it, once that is p90 or more.

    Below 100 samples that percentile would fall under p90, and below 21
    under the median, so the maximum is reported instead, with zero samples
    beyond. A fixed rule over the sample counts a run gets keeps the metric
    from switching between order statistics as the count changes.
    """
    ordered = sorted(samples)
    if len(ordered) >= 100:
        index = len(ordered) - 11
        return {"value": ordered[index], "percentile": 100.0 * (index + 1) / len(ordered),
                "beyond": 10}
    return {"value": ordered[-1], "percentile": 100.0, "beyond": 0}


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def blas_record():
    """OpenBLAS libraries loaded in this process, with the thread count each will use."""
    getters = ("openblas_get_num_threads", "openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
    configs = ("openblas_get_config", "openblas_get_config64_",
               "scipy_openblas_get_config", "scipy_openblas_get_config64_")
    paths = sorted({line.split()[-1] for line in _read("/proc/self/maps").splitlines()
                    if "openblas" in line.rsplit("/", 1)[-1].lower()})
    out = []
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            entry["error"] = str(exc)
            out.append(entry)
            continue
        for symbol in getters:
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                entry["threads"] = int(getattr(lib, symbol)())
                break
        for symbol in configs:
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_char_p
                entry["config"] = getattr(lib, symbol)().decode(errors="replace").strip()
                break
        out.append(entry)
    return out


def machine_record():
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level")).strip()
        kind = _read(os.path.join(base, index, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size")).strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _digests(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = (hashlib.blake2b(fh.read()).hexdigest(),
                         os.path.getsize(os.path.join(outdir, name)))
    return out


class Bench:
    """One run of one workload: inputs, warm-up, timed loop, checks, metrics."""

    def __init__(self, workload, seed, seconds, trace, workdir):
        import graphssl.cli
        import graphssl.fileio
        import layers
        import tracer

        self.cli = graphssl.cli
        self.parse_metrics = graphssl.fileio.parse_metrics
        self.layers = layers
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.tracer = tracer.Tracer()
        self.records = []
        self.references = {}
        self.quality = {}

    def invoke(self, instance, traced):
        index = len(self.records)
        outdir = os.path.join(self.workdir, f"out-{index}")
        argv = instance.argv + ["--output", outdir]
        record = {"index": index, "instance": instance.label, "traced": traced}
        # Objects the benchmark keeps (spans, records) must not slow the
        # collector inside later invocations.
        gc.collect()
        gc.freeze()
        with self.tracer.installed(index) if traced else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:
                code = None
                record["error"] = traceback.format_exc(limit=8)
            record["wall_s"] = time.perf_counter() - start
        try:
            self.check(instance, outdir, code, record)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            record["failed"] = f"{type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        self.records.append(record)
        return record

    def check(self, instance, outdir, code, record):
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        with open(os.path.join(outdir, "metrics.txt"), "r", encoding="utf-8") as fh:
            metrics = self.parse_metrics(fh.read())
        digests = _digests(outdir)
        record["write_bytes"] = sum(size for _, size in digests.values())
        reference = self.references.get(instance.label)
        if reference is None:
            self.workload.check(instance, outdir, metrics)
            self.quality[instance.label] = self.workload.quality(instance, outdir, metrics)
            instance.sizes.update({k: metrics[k] for k in instance.size_keys if k in metrics})
            self.references[instance.label] = digests
            return
        if digests != reference:
            changed = sorted(set(digests) ^ set(reference)
                             | {n for n in digests if digests[n] != reference.get(n)})
            raise CheckFailed(f"outputs differ from the first invocation: {changed}")
        self.workload.check(instance, outdir, metrics)

    def run(self, deadline):
        """Warm up each input set, then invoke until the time is up.

        Returns (instances, number of warm-ups, peak RSS in MB). A failed
        warm-up leaves no reference to check against, so it ends the run.
        """
        instances = self.workload.prepare(self.seed, self.workdir)
        for instance in instances:
            warm = self.invoke(instance, traced=True)
            if "failed" in warm:
                return instances, len(self.records), None
            graph = self.layers.invocation_metrics(self.tracer.spans_of(warm["index"]))
            instance.sizes.update({
                "graph_nnz": int(graph["graph.nnz"]),
                "graph_components": int(graph["graph.components"]),
                "unlabeled_components": int(graph["graph.unlabeled_components"]),
            })
        warmups = len(self.records)
        needed = {True, False} if self.trace else {False}
        stop = time.monotonic() + self.seconds
        turn = 0
        while True:
            kinds = {r["traced"] for r in self.records[warmups:]}
            estimate = statistics.median(r["wall_s"] for r in self.records)
            now = time.monotonic()
            if now > deadline or (kinds >= needed and now + estimate > stop):
                break
            traced = bool(self.trace) and turn % 2 == 0
            self.invoke(instances[turn % len(instances)], traced)
            turn += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return instances, warmups, peak_rss_mb


def end_to_end(bench, timed, setup, peak_rss_mb):
    """Metrics of the untraced invocations; wall times of passed ones only."""
    walls = [r["wall_s"] for r in timed if "failed" not in r]
    failed = sum("failed" in r for r in bench.records)
    tail_info = tail(walls)
    values = {
        "wall_s": statistics.median(walls),
        "wall_s.tail": tail_info["value"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1.0 - failed / len(bench.records),
        "accuracy": statistics.fmean(bench.quality.values()) if bench.quality else 0.0,
    }
    detail = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    detail["wall_s"]["samples"] = len(walls)
    detail["wall_s.tail"].update(samples=len(walls), percentile=tail_info["percentile"],
                                 beyond=tail_info["beyond"])
    detail["setup_s"]["samples"] = len(setup)
    detail["ok_ratio"]["samples"] = len(bench.records)
    detail["accuracy"]["samples"] = len(bench.quality)
    if bench.workload.name == "refine-bow":
        detail["accuracy"]["refine_moved"] = values["accuracy"]
    return values, detail


def per_layer(bench, timed):
    """Medians over the passed traced invocations; trace overhead against untraced ones."""
    layers = bench.layers
    passed = [r for r in timed if "failed" not in r]
    traced = [r for r in passed if r["traced"]]
    plain = [r for r in passed if not r["traced"]]
    per_invocation = []
    for r in traced:
        values = layers.invocation_metrics(bench.tracer.spans_of(r["index"]))
        values["cli.write_bytes"] = float(r.get("write_bytes", 0))
        per_invocation.append(values)
    absent = layers.absent_reasons(bench.tracer)
    values = {}
    for name in layers.UNITS:
        samples = [v[name] for v in per_invocation if name in v]
        values[name] = 0.0 if name in absent or not samples else statistics.median(samples)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = (traced_wall - statistics.median(r["wall_s"] for r in plain)
                                  if plain else 0.0)
    detail = {name: {"value": v, "unit": layers.UNITS[name], "samples": len(traced)}
              for name, v in values.items()}
    detail["trace.overhead_s"]["untraced_samples"] = len(plain)
    return values, detail, absent


def write_spans(bench):
    os.makedirs(RUNS, exist_ok=True)
    path = os.path.join(RUNS, f"spans-{bench.workload.name}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for span in bench.tracer.spans:
            fh.write(json.dumps(span.record()) + "\n")
    return os.path.relpath(path, ROOT)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "graphssl", "cli.py")):
        print(f"perfbench: {os.path.relpath(SRC)}/graphssl not found; run from the root "
              "of a graphssl checkout", file=sys.stderr)
        return 2
    try:
        setup = measure_setup(SETUP_REPEATS)
    except (SetupFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(RUNS, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        bench = Bench(workload, args.seed, args.seconds, args.trace, workdir)
        instances, warmups, peak_rss_mb = bench.run(started + HARD_STOP_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    timed = bench.records[warmups:]
    failures = [{"index": r["index"], "instance": r["instance"], "reason": r["failed"],
                 "error": r.get("error")} for r in bench.records if "failed" in r]
    detail = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, one client, one invocation at a time, single process",
        "machine": machine_record(),
        "inputs": [dict(instance=i.label, **i.sizes) for i in instances],
        "commands": [" ".join(["graphssl"] + [os.path.relpath(a, ROOT) if os.sep in a else a
                                              for a in i.argv]) for i in instances],
        "warmups": warmups,
        "failures": failures,
        "invocations": [{k: r[k] for k in ("index", "instance", "traced", "wall_s")}
                        for r in bench.records],
    }
    passed = {r["traced"] for r in timed if "failed" not in r}
    measured = passed >= ({True, False} if args.trace else {False})
    correct = measured and not failures
    metrics = {}
    if measured and args.trace:
        values, detail["metrics"], detail["absent"] = per_layer(bench, timed)
        detail["spans_file"] = write_spans(bench)
    elif measured:
        values, detail["metrics"] = end_to_end(bench, timed, setup, peak_rss_mb)
    if measured:
        metrics = {name: {"value": v, "unit": detail["metrics"][name]["unit"]}
                   for name, v in values.items()}
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": len(bench.records),
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
